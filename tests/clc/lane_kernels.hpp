#ifndef HPLREPRO_TESTS_CLC_LANE_KERNELS_HPP
#define HPLREPRO_TESTS_CLC_LANE_KERNELS_HPP

// Kernels shaped to break the work-group VM's lane groups (lockstep
// execution of race-free regions, vm.hpp) if the lanes rule or the scalar
// fallback were wrong. Each is a kernel `k` whose leading `buffer_args`
// parameters are all bound to one zero-initialised uint buffer of `words`
// elements. The hazards stay inside a work-group (group g owns its own
// segment of the buffer), since groups run concurrently. optimizer_diff_test.cpp runs them through the interpreter
// matrix (bits and every ExecStats counter against the stack VM) and
// checks that the trapping ones report what the stack VM reports;
// wgloops_test.cpp checks which regions the analysis lets run in lanes.

#include <cstddef>
#include <cstdint>

namespace clc_test {

struct LaneKernel {
  const char* label;
  const char* source;
  std::size_t words;
  std::size_t global;
  std::size_t local;
  int buffer_args;
  bool region0_lanes;  // what analyze_wg_loops decides for region 0
};

// A barrier kernel run at several group sizes: lane groups of 1, 5, 8+4
// and 4x8+1 items.
inline constexpr const char* kLaneSizesKernel = R"CLC(
__kernel void k(__global uint* out) {
  __local uint t[64];
  uint lid = (uint)get_local_id(0);
  uint i = (uint)get_global_id(0);
  t[lid] = i * 7u + 3u;
  barrier(CLK_LOCAL_MEM_FENCE);
  out[i] = t[lid] * 5u + t[(lid + 1u) % (uint)get_local_size(0)];
}
)CLC";

inline constexpr LaneKernel kLaneKernels[] = {
    // Each item reads its left neighbour's element and writes its own
    // successor: run in item order this is a chain; in lockstep every
    // load would see the old values.
    {"inplace_neighbour", R"CLC(
__kernel void k(__global uint* a) {
  uint i = (uint)get_global_id(0) + (uint)get_group_id(0);
  a[i + 1u] = a[i] * 3u + i + 1u;
}
)CLC",
     68, 64, 16, 1, false},
    // Every item of a group updates the group's one element.
    {"racy_accumulate", R"CLC(
__kernel void k(__global uint* a) {
  uint g = (uint)get_group_id(0);
  uint i = (uint)get_global_id(0);
  a[g] += i * 7u + 1u;
  a[i + 4u] = a[g];
}
)CLC",
     68, 64, 16, 1, false},
    // A uniform offset that changes inside the region is not one index.
    {"loop_carried_offset", R"CLC(
__kernel void k(__global uint* a) {
  uint i = (uint)get_global_id(0) + 2u * (uint)get_group_id(0);
  for (uint j = 0u; j < 3u; j++) a[i + j] = a[i + j] * 5u + j + 1u;
}
)CLC",
     72, 64, 16, 1, false},
    // One buffer as two arguments, shifted: the chain of
    // inplace_neighbour, which only the launch-time alias check sees.
    {"alias_shifted", R"CLC(
__kernel void k(__global uint* a, __global uint* b) {
  uint i = (uint)get_global_id(0) + (uint)get_group_id(0);
  a[i + 1u] = b[i] * 3u + i + 1u;
}
)CLC",
     68, 64, 16, 2, true},
    // One buffer as two arguments at the same index stays in lanes.
    {"alias_same_index", R"CLC(
__kernel void k(__global uint* a, __global uint* b) {
  uint i = (uint)get_global_id(0);
  a[i] = b[i] * 3u + i + 1u;
  b[i] = a[i] ^ 0x5au;
}
)CLC",
     64, 64, 16, 2, true},
    // Lanes 0, 3 and 7 of every lane group take their own branches, after
    // and between stores the lane group made in lockstep.
    {"divergent_lanes", R"CLC(
__kernel void k(__global uint* out) {
  uint i = (uint)get_global_id(0);
  uint l = i & 7u;
  uint v = i * 2654435761u;
  out[i] = v;
  if (l == 0u) v = v * 5u + 1u;
  if (l == 3u) { v ^= 0x55u; } else { v += out[i] >> 3; }
  out[i] = v;
  if (l == 7u) v = v * v + 9u;
  out[i] = v + out[i];
}
)CLC",
     64, 64, 16, 1, true},
    // Trip counts that differ per lane.
    {"lane_varying_trips", R"CLC(
__kernel void k(__global uint* out) {
  uint i = (uint)get_global_id(0);
  uint acc = i;
  for (uint j = 0u; j < (i % 5u) + 1u; j++) acc = acc * 31u + j;
  out[i] = acc;
}
)CLC",
     64, 64, 16, 1, true},
    // A helper call inside a lane region: the lane group finishes the
    // region one lane at a time from the call.
    {"helper_call", R"CLC(
uint mix(uint v) { return (v * 2654435761u) ^ (v >> 3); }
__kernel void k(__global uint* out) {
  uint i = (uint)get_global_id(0);
  out[i] = i * 3u;
  uint v = mix(out[i]) + 1u;
  out[i] = mix(v) ^ out[i];
}
)CLC",
     64, 64, 16, 1, true},
    // A helper that stores for its caller keeps the region scalar.
    {"helper_stores", R"CLC(
void put(__global uint* p, uint i, uint v) { p[i] = v; }
__kernel void k(__global uint* out) {
  uint i = (uint)get_global_id(0) + (uint)get_group_id(0);
  uint old = out[i];
  put(out, i + 1u, old * 3u + i + 1u);
}
)CLC",
     68, 64, 16, 1, false},
    // The fused-reduction shape: a grid-stride loop storing where it
    // loads, then a __local tree.
    {"grid_stride_store", R"CLC(
__kernel void k(__global uint* out) {
  __local uint t[16];
  uint lid = (uint)get_local_id(0);
  uint acc = 0u;
  for (uint i = (uint)get_global_id(0); i < 256u;
       i += (uint)get_global_size(0)) {
    out[i] = out[i] * 3u + i;
    acc += out[i];
  }
  t[lid] = acc;
  barrier(CLK_LOCAL_MEM_FENCE);
  if (lid == 0u) {
    uint s = 0u;
    for (uint j = 0u; j < 16u; j++) s += t[j];
    out[256u + (uint)get_group_id(0)] = s;
  }
}
)CLC",
     260, 64, 16, 1, true},
    // A loop stepping by one element: after the first trip each item
    // touches its neighbours' elements, in an order only the items' own
    // sequence gives.
    {"unit_stride_loop", R"CLC(
__kernel void k(__global uint* a) {
  uint id = (uint)get_global_id(0);
  uint end = ((uint)get_group_id(0) + 1u) * 16u;
  for (uint i = id; i < end; i += 1u) a[i] = a[i] * 3u + id + 1u;
}
)CLC",
     64, 64, 16, 1, false},
    {"group_size_1", kLaneSizesKernel, 2, 2, 1, 1, true},
    {"group_size_5", kLaneSizesKernel, 10, 10, 5, 1, true},
    {"group_size_12", kLaneSizesKernel, 24, 24, 12, 1, true},
    {"group_size_33", kLaneSizesKernel, 66, 66, 33, 1, true},
};

/// Lane kernels that trap; every interpreter must report `message`. `fuel`
/// is the per-item budget to launch with (0: the default).
struct LaneTrapKernel {
  const char* label;
  const char* source;
  std::size_t words;
  std::size_t global;
  std::size_t local;
  std::uint64_t fuel;
  const char* message;
};

inline constexpr LaneTrapKernel kLaneTrapKernels[] = {
    // Items 61-63 (lanes 5-7 of the last lane group) store out of bounds.
    {"oob_store_at_lane_5", R"CLC(
__kernel void k(__global uint* out) {
  uint i = (uint)get_global_id(0);
  out[i] = i;
}
)CLC",
     61, 64, 16, 0, "kernel trap: global access out of bounds"},
    // As above, but item 58 (lane 2) then reads its private array out of
    // bounds: run alone it finishes its store and traps first.
    {"oob_lower_lane_traps_later", R"CLC(
__kernel void k(__global uint* out) {
  uint i = (uint)get_global_id(0);
  uint p[4];
  p[0] = i;
  out[i] = i;
  p[(uint)(i == 58u) * 9u] = 1u;
  out[i] = p[0];
}
)CLC",
     61, 64, 16, 0, "kernel trap: private access out of bounds"},
    // Every lane of a lane group runs out of fuel at the same block.
    {"fuel_in_lockstep", R"CLC(
__kernel void k(__global uint* out) {
  uint i = (uint)get_global_id(0);
  uint acc = i;
  for (uint j = 0u; j < 1000u; j++) acc = acc * 3u + j;
  out[i] = acc;
}
)CLC",
     64, 64, 16, 200,
     "kernel trap: instruction budget exhausted (infinite loop?)"},
};

}  // namespace clc_test

#endif  // HPLREPRO_TESTS_CLC_LANE_KERNELS_HPP
