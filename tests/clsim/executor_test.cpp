// Executor behaviour: NDRange geometry, automatic local-range selection,
// divergent-barrier detection, device capability checks, and stats
// plumbing.

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "clsim/runtime.hpp"

namespace clsim = hplrepro::clsim;

namespace {

clsim::Device tesla() {
  return *clsim::Platform::get().device_by_name("Tesla");
}

TEST(Executor, ChooseLocalRangeDividesEvenly) {
  for (std::size_t n : {1u, 2u, 7u, 64u, 100u, 1000u, 1021u, 4096u}) {
    const auto local = clsim::choose_local_range(clsim::NDRange(n));
    EXPECT_EQ(n % local.sizes[0], 0u) << n;
    EXPECT_LE(local.sizes[0], 256u);
  }
  const auto local2d = clsim::choose_local_range(clsim::NDRange(64, 48));
  EXPECT_EQ(64 % local2d.sizes[0], 0u);
  EXPECT_EQ(48 % local2d.sizes[1], 0u);
  EXPECT_LE(local2d.sizes[0] * local2d.sizes[1], 256u);
}

TEST(Executor, ChooseLocalRangeBalancesSquareGlobals) {
  // Greedy dimension-0-first factoring used to produce 256x1 strips; the
  // divisor search must pick the balanced tile instead.
  const auto square = clsim::choose_local_range(clsim::NDRange(512, 512));
  EXPECT_EQ(square.sizes[0], 16u);
  EXPECT_EQ(square.sizes[1], 16u);

  const auto small = clsim::choose_local_range(clsim::NDRange(64, 64));
  EXPECT_EQ(small.sizes[0], 16u);
  EXPECT_EQ(small.sizes[1], 16u);  // 16x16 fills the 256 budget exactly
}

TEST(Executor, ChooseLocalRangeHandlesRaggedGlobals) {
  // 512x3: dimension 1 only divides by 1 or 3; keeping the 3 maximizes
  // the minimum extent, and dimension 0 fills the rest of the budget.
  const auto ragged = clsim::choose_local_range(clsim::NDRange(512, 3));
  EXPECT_EQ(ragged.sizes[0], 64u);
  EXPECT_EQ(ragged.sizes[1], 3u);
  EXPECT_EQ(512 % ragged.sizes[0], 0u);
}

TEST(Executor, ChooseLocalRangeHandlesPrimeExtents) {
  // A prime extent has no divisor between 1 and itself: (251, 4) can only
  // use 251x1 (fits the 256 budget) or 1xb; more covered items wins.
  const auto prime = clsim::choose_local_range(clsim::NDRange(251, 4));
  EXPECT_EQ(prime.sizes[0], 251u);
  EXPECT_EQ(prime.sizes[1], 1u);

  // A square prime tile fits whole.
  const auto sq_prime = clsim::choose_local_range(clsim::NDRange(13, 13));
  EXPECT_EQ(sq_prime.sizes[0], 13u);
  EXPECT_EQ(sq_prime.sizes[1], 13u);
}

TEST(Executor, LaunchSliceRunsOnlyItsGroupsWithFullGeometry) {
  // A slice narrows execution to a run of work-groups, but work-items
  // must still observe the FULL launch geometry (global size, group
  // count) — co-executed grid-stride kernels depend on it.
  const char* src = R"(
__kernel void tag(__global int* out) {
  size_t i = get_global_id(0);
  out[i] = (int)(get_global_size(0) * 1000 + get_group_id(0));
}
)";
  clsim::Context context(tesla());
  clsim::CommandQueue queue(context);
  clsim::Buffer buffer(context, 32 * sizeof(std::int32_t));
  std::vector<std::int32_t> init(32, -1);
  queue.enqueue_write_buffer(buffer, init.data(), 32 * sizeof(std::int32_t));
  clsim::Program program(context, src);
  program.build();
  clsim::Kernel kernel(program, "tag");
  kernel.set_arg(0, buffer);
  clsim::LaunchSlice slice;
  slice.dim = 0;
  slice.group_begin = 2;
  slice.group_count = 3;
  queue.enqueue_ndrange_kernel(kernel, clsim::NDRange(32),
                               clsim::NDRange(4), {}, slice);
  std::vector<std::int32_t> out(32);
  queue.enqueue_read_buffer(buffer, out.data(), 32 * sizeof(std::int32_t));
  queue.finish();
  for (std::size_t i = 0; i < 32; ++i) {
    const std::size_t group = i / 4;
    if (group >= 2 && group < 5) {
      EXPECT_EQ(out[i], static_cast<std::int32_t>(32 * 1000 + group)) << i;
    } else {
      EXPECT_EQ(out[i], -1) << i;  // outside the slice: untouched
    }
  }
}

TEST(Executor, LaunchSliceOutOfRangeRejected) {
  const char* src = "__kernel void k(__global int* o) { o[0] = 1; }";
  clsim::Context context(tesla());
  clsim::CommandQueue queue(context);
  clsim::Buffer buffer(context, 64);
  clsim::Program program(context, src);
  program.build();
  clsim::Kernel kernel(program, "k");
  kernel.set_arg(0, buffer);

  clsim::LaunchSlice overrun{0, 6, 4};  // 8 groups: 6+4 > 8
  EXPECT_THROW(queue.enqueue_ndrange_kernel(kernel, clsim::NDRange(32),
                                            clsim::NDRange(4), {}, overrun),
               clsim::RuntimeError);
  clsim::LaunchSlice bad_dim{1, 0, 1};  // 1-D launch has no dimension 1
  EXPECT_THROW(queue.enqueue_ndrange_kernel(kernel, clsim::NDRange(32),
                                            clsim::NDRange(4), {}, bad_dim),
               clsim::RuntimeError);
  clsim::LaunchSlice empty{0, 0, 0};  // zero groups
  EXPECT_THROW(queue.enqueue_ndrange_kernel(kernel, clsim::NDRange(32),
                                            clsim::NDRange(4), {}, empty),
               clsim::RuntimeError);
  queue.finish();
}

TEST(Executor, ThreeDimensionalRange) {
  const char* src = R"(
__kernel void k(__global int* out) {
  size_t x = get_global_id(0);
  size_t y = get_global_id(1);
  size_t z = get_global_id(2);
  size_t nx = get_global_size(0);
  size_t ny = get_global_size(1);
  out[(z * ny + y) * nx + x] = (int)(x + 10 * y + 100 * z);
}
)";
  clsim::Context context(tesla());
  clsim::CommandQueue queue(context);
  clsim::Buffer buffer(context, 4 * 3 * 2 * sizeof(std::int32_t));
  clsim::Program program(context, src);
  program.build();
  clsim::Kernel kernel(program, "k");
  kernel.set_arg(0, buffer);
  queue.enqueue_ndrange_kernel(kernel, clsim::NDRange(4, 3, 2),
                               clsim::NDRange(2, 1, 1));
  std::vector<std::int32_t> out(24);
  queue.enqueue_read_buffer(buffer, out.data(), out.size() * 4);
  queue.finish();  // the queue is asynchronous; block before reading `out`
  for (std::size_t z = 0; z < 2; ++z) {
    for (std::size_t y = 0; y < 3; ++y) {
      for (std::size_t x = 0; x < 4; ++x) {
        EXPECT_EQ(out[(z * 3 + y) * 4 + x],
                  static_cast<std::int32_t>(x + 10 * y + 100 * z));
      }
    }
  }
}

TEST(Executor, MismatchedLocalSizeRejected) {
  const char* src = "__kernel void k(__global int* o) { o[0] = 1; }";
  clsim::Context context(tesla());
  clsim::CommandQueue queue(context);
  clsim::Buffer buffer(context, 64);
  clsim::Program program(context, src);
  program.build();
  clsim::Kernel kernel(program, "k");
  kernel.set_arg(0, buffer);
  EXPECT_THROW(queue.enqueue_ndrange_kernel(kernel, clsim::NDRange(10),
                                            clsim::NDRange(3)),
               hplrepro::InvalidArgument);
}

TEST(Executor, DivergentBarrierDetected) {
  const char* src = R"(
__kernel void k(__global int* o) {
  if (get_local_id(0) == 0) {
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  o[get_global_id(0)] = 1;
}
)";
  clsim::Context context(tesla());
  clsim::CommandQueue queue(context);
  clsim::Buffer buffer(context, 8 * sizeof(std::int32_t));
  clsim::Program program(context, src);
  program.build();
  clsim::Kernel kernel(program, "k");
  kernel.set_arg(0, buffer);
  // Execution errors surface when the host synchronizes, not at enqueue.
  EXPECT_THROW(
      {
        queue.enqueue_ndrange_kernel(kernel, clsim::NDRange(8),
                                     clsim::NDRange(4));
        queue.finish();
      },
      hplrepro::clc::TrapError);
}

TEST(Executor, DoubleKernelRejectedOnQuadro) {
  const char* src = "__kernel void k(__global double* o) { o[0] = 1.0; }";
  auto quadro = *clsim::Platform::get().device_by_name("Quadro");
  clsim::Context context(quadro);
  clsim::CommandQueue queue(context);
  clsim::Buffer buffer(context, 64);
  clsim::Program program(context, src);
  program.build();  // compiles fine; execution is what the device refuses
  clsim::Kernel kernel(program, "k");
  kernel.set_arg(0, buffer);
  EXPECT_THROW(queue.enqueue_ndrange_kernel(kernel, clsim::NDRange(1)),
               hplrepro::InvalidArgument);
}

TEST(Executor, LocalMemoryOverCapacityRejected) {
  // 64 KB of __local exceeds the Tesla's 48 KB per group.
  const char* src = R"(
__kernel void k(__global float* o) {
  __local float big[16384];
  big[get_local_id(0)] = 1.0f;
  o[0] = big[0];
}
)";
  clsim::Context context(tesla());
  clsim::CommandQueue queue(context);
  clsim::Buffer buffer(context, 64);
  clsim::Program program(context, src);
  program.build();
  clsim::Kernel kernel(program, "k");
  kernel.set_arg(0, buffer);
  EXPECT_THROW(queue.enqueue_ndrange_kernel(kernel, clsim::NDRange(1)),
               hplrepro::InvalidArgument);
}

TEST(Executor, UnsetArgumentRejected) {
  const char* src =
      "__kernel void k(__global int* a, __global int* b) { a[0] = b[0]; }";
  clsim::Context context(tesla());
  clsim::CommandQueue queue(context);
  clsim::Buffer buffer(context, 64);
  clsim::Program program(context, src);
  program.build();
  clsim::Kernel kernel(program, "k");
  kernel.set_arg(0, buffer);  // b never set
  EXPECT_THROW(queue.enqueue_ndrange_kernel(kernel, clsim::NDRange(1)),
               clsim::RuntimeError);
}

TEST(Executor, StatsCountItemsAndGroups) {
  const char* src = "__kernel void k(__global int* o) { o[get_global_id(0)] = 1; }";
  clsim::Context context(tesla());
  clsim::CommandQueue queue(context);
  clsim::Buffer buffer(context, 1024 * 4);
  clsim::Program program(context, src);
  program.build();
  clsim::Kernel kernel(program, "k");
  kernel.set_arg(0, buffer);
  const auto event = queue.enqueue_ndrange_kernel(kernel, clsim::NDRange(1024),
                                                  clsim::NDRange(64));
  EXPECT_EQ(event.stats().items, 1024u);
  EXPECT_EQ(event.stats().groups, 16u);
  EXPECT_EQ(event.stats().global_store_bytes, 1024u * 4);
  EXPECT_GT(event.stats().global_transactions, 0u);
}

// Coalescing reaches the timing model through the tracker: a coalesced
// store costs 4 segments of 32 B per 32-lane warp on the Tesla in every
// interpreter (the stack VM keys the tracker by pc, the register VMs by
// memory slot), and the CPU, which does not model coalescing, counts none.
TEST(Executor, TransactionsFollowTheDeviceInEveryInterpreter) {
  const char* src = R"(
__kernel void k(__global int* o) {
  o[get_global_id(0)] = 1;
  barrier(CLK_GLOBAL_MEM_FENCE);
  o[get_global_id(0)] += 2;
})";
  for (const char* device : {"Tesla", "Xeon"}) {
    for (const char* options :
         {"-cl-interp=stack", "-cl-wg-loops=off", "-cl-wg-loops=on"}) {
      SCOPED_TRACE(std::string(device) + " " + options);
      clsim::Context context(*clsim::Platform::get().device_by_name(device));
      clsim::CommandQueue queue(context);
      clsim::Buffer buffer(context, 1024 * 4);
      clsim::Program program(context, src);
      program.build(options);
      clsim::Kernel kernel(program, "k");
      kernel.set_arg(0, buffer);
      const auto event = queue.enqueue_ndrange_kernel(
          kernel, clsim::NDRange(1024), clsim::NDRange(64));
      EXPECT_EQ(event.stats().global_store_bytes, 2u * 1024 * 4);
      // Three accesses per item (store, load, store), each 32 warps x 4.
      EXPECT_EQ(event.stats().global_transactions,
                std::string(device) == "Tesla" ? 3u * 32 * 4 : 0u);
    }
  }
}

TEST(Executor, BarrierGlobalVisibility) {
  // Work-items write global memory, barrier, then read a neighbour's slot
  // (within the same group): the writes must be visible.
  const char* src = R"(
__kernel void k(__global int* data) {
  size_t gid = get_global_id(0);
  size_t lid = get_local_id(0);
  size_t lsz = get_local_size(0);
  size_t n = get_global_size(0);
  data[gid] = (int)gid * 2;
  barrier(CLK_GLOBAL_MEM_FENCE);
  size_t neighbor = gid - lid + ((lid + 1) % lsz);
  data[n + gid] = data[neighbor] + 1;  /* disjoint output: no write race */
}
)";
  clsim::Context context(tesla());
  clsim::CommandQueue queue(context);
  clsim::Buffer buffer(context, 16 * 4);
  clsim::Program program(context, src);
  program.build();
  clsim::Kernel kernel(program, "k");
  kernel.set_arg(0, buffer);
  queue.enqueue_ndrange_kernel(kernel, clsim::NDRange(8), clsim::NDRange(4));
  std::vector<std::int32_t> out(16);
  queue.enqueue_read_buffer(buffer, out.data(), 64);
  queue.finish();  // the queue is asynchronous; block before reading `out`
  for (std::size_t gid = 0; gid < 8; ++gid) {
    const std::size_t lid = gid % 4;
    const std::size_t neighbor = gid - lid + ((lid + 1) % 4);
    EXPECT_EQ(out[8 + gid], static_cast<std::int32_t>(neighbor * 2 + 1))
        << gid;
  }
}

}  // namespace
