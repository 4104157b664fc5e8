// End-to-end smoke tests: OpenCL C source -> clc compile -> clsim launch.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "clsim/runtime.hpp"

namespace clsim = hplrepro::clsim;

namespace {

const char* kSaxpySource = R"(
__kernel void saxpy(__global float* y, __global const float* x, float a) {
  size_t i = get_global_id(0);
  y[i] = a * x[i] + y[i];
}
)";

TEST(RuntimeSmoke, SaxpyOnDefaultDevice) {
  auto& platform = clsim::Platform::get();
  clsim::Device device = platform.default_accelerator();
  EXPECT_NE(device.type(), clsim::DeviceType::Cpu);

  clsim::Context context(device);
  clsim::CommandQueue queue(context);

  constexpr std::size_t n = 1024;
  std::vector<float> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<float>(i);
    y[i] = 1.0f;
  }

  clsim::Buffer bx(context, n * sizeof(float));
  clsim::Buffer by(context, n * sizeof(float));
  queue.enqueue_write_buffer(bx, x.data(), n * sizeof(float));
  queue.enqueue_write_buffer(by, y.data(), n * sizeof(float));

  clsim::Program program(context, kSaxpySource);
  program.build();
  clsim::Kernel kernel(program, "saxpy");
  kernel.set_arg(0, by);
  kernel.set_arg(1, bx);
  kernel.set_arg(2, 2.0f);

  clsim::Event event =
      queue.enqueue_ndrange_kernel(kernel, clsim::NDRange(n));
  queue.enqueue_read_buffer(by, y.data(), n * sizeof(float));
  queue.finish();  // the queue is asynchronous; block before reading `y`

  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_FLOAT_EQ(y[i], 2.0f * static_cast<float>(i) + 1.0f) << "i=" << i;
  }
  EXPECT_EQ(event.stats().items, n);
  EXPECT_GT(event.sim_seconds(), 0.0);
}

TEST(RuntimeSmoke, LocalReductionWithBarrier) {
  const char* source = R"(
__kernel void dotp(__global const float* v1, __global const float* v2,
                   __global float* psums) {
  __local float shared[32];
  size_t lid = get_local_id(0);
  size_t gid = get_global_id(0);
  shared[lid] = v1[gid] * v2[gid];
  barrier(CLK_LOCAL_MEM_FENCE);
  if (lid == 0) {
    float sum = 0.0f;
    for (int i = 0; i < 32; i++) {
      sum += shared[i];
    }
    psums[get_group_id(0)] = sum;
  }
}
)";
  auto& platform = clsim::Platform::get();
  clsim::Context context(platform.default_accelerator());
  clsim::CommandQueue queue(context);

  constexpr std::size_t n = 256, m = 32, groups = n / m;
  std::vector<float> v1(n, 2.0f), v2(n, 3.0f), psums(groups, 0.0f);

  clsim::Buffer b1(context, n * sizeof(float));
  clsim::Buffer b2(context, n * sizeof(float));
  clsim::Buffer bp(context, groups * sizeof(float));
  queue.enqueue_write_buffer(b1, v1.data(), n * sizeof(float));
  queue.enqueue_write_buffer(b2, v2.data(), n * sizeof(float));

  clsim::Program program(context, source);
  program.build();
  clsim::Kernel kernel(program, "dotp");
  kernel.set_arg(0, b1);
  kernel.set_arg(1, b2);
  kernel.set_arg(2, bp);

  queue.enqueue_ndrange_kernel(kernel, clsim::NDRange(n), clsim::NDRange(m));
  queue.enqueue_read_buffer(bp, psums.data(), groups * sizeof(float));
  queue.finish();  // the queue is asynchronous; block before reading `psums`

  for (std::size_t g = 0; g < groups; ++g) {
    ASSERT_FLOAT_EQ(psums[g], 6.0f * m) << "group " << g;
  }
}

}  // namespace
