#ifndef HPLREPRO_TESTS_CLC_HOIST_KERNELS_HPP
#define HPLREPRO_TESTS_CLC_HOIST_KERNELS_HPP

// Kernels shaped to break each rule of the work-group uniformity analysis
// (wgloops.cpp) if it were missing. Each is a one-buffer kernel `k` over
// 64 uint words in groups of 16 that hoists at least one instruction at
// -O2. optimizer_diff_test.cpp runs them through the interpreter matrix
// (bits and every ExecStats counter); wgloops_test.cpp checks what the
// analysis made of them.

#include <stdexcept>
#include <string>

namespace clc_test {

struct HoistKernel {
  const char* label;
  const char* source;
};

inline constexpr HoistKernel kHoistKernels[] = {
    // The stride `s` is loop-carried across both barriers and redefined
    // after an unhoisted read of it.
    {"stride_carried_across_barriers", R"CLC(
__kernel void k(__global uint* out) {
  __local uint t[16];
  uint lid = (uint)get_local_id(0);
  uint s = (uint)get_local_size(0);
  uint acc = 0u;
  for (uint it = 0u; it < 3u; it++) {
    acc += s * 5u + lid;
    t[lid] = acc;
    barrier(CLK_LOCAL_MEM_FENCE);
    acc += t[(lid + 1u) % 16u];
    s = s / 2u + (uint)get_group_id(0);
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  out[get_global_id(0)] = acc + s;
}
)CLC"},
    // Uniform float and double conversions, which saturate.
    {"uniform_conversions", R"CLC(
__kernel void k(__global uint* out) {
  float g = (float)get_group_id(0) * 0.5f + 1.25f;
  double d = (double)get_local_size(0) * 1.5;
  int q = (int)(g * 3.7f) - (int)d;
  float x = g * (float)get_local_id(0) + g;
  out[get_global_id(0)] = (uint)(x * 1000.0f) ^ (uint)q ^ (uint)(long)(d * 2.0);
}
)CLC"},
    // Uniform arguments to helper calls, which read a register range that
    // renaming cannot rewrite, and an early return.
    {"helper_calls_early_return", R"CLC(
uint h(uint a, uint b) { return a * b + 1u; }
__kernel void k(__global uint* out) {
  uint g = (uint)get_group_id(0);
  uint n = h(g, 3u);
  if (g > 100u) return;
  out[get_global_id(0)] = n + h((uint)get_local_id(0), g);
}
)CLC"},
    // A uniform value that seeds an item-varying loop.
    {"beside_varying_loop", R"CLC(
__kernel void k(__global uint* out) {
  __local uint t[16];
  uint lid = (uint)get_local_id(0);
  uint base = (uint)get_group_id(0) << 4;
  uint x = base;
  for (uint i = 0u; i < lid; i++) x = x * 3u + i;
  t[lid] = x;
  barrier(CLK_LOCAL_MEM_FENCE);
  out[get_global_id(0)] = t[15u - lid] + base;
}
)CLC"},
    // `s` is read by an item-varying sum before the region head redefines
    // it, so the prologue must not run the redefinition first.
    {"read_before_redefinition", R"CLC(
__kernel void k(__global uint* out) {
  uint lid = (uint)get_local_id(0);
  uint s = (uint)get_group_id(0) + 1u;
  uint acc = 0u;
  for (uint it = 0u; it < 3u; it++) {
    barrier(CLK_LOCAL_MEM_FENCE);
    uint t = s + lid;
    s = s * 2u + (uint)get_local_size(0);
    acc = acc * 7u + t;
  }
  out[get_global_id(0)] = acc + s;
}
)CLC"},
    // `u` is redefined between two barriers and read after the second.
    {"redefined_between_barriers", R"CLC(
__kernel void k(__global uint* out) {
  uint lid = (uint)get_local_id(0);
  uint u = 5u;
  uint acc = lid;
  for (uint it = 0u; it < 4u; it++) {
    acc = acc + u * lid;
    barrier(CLK_LOCAL_MEM_FENCE);
    u = u * 3u + (uint)get_group_id(0);
    barrier(CLK_LOCAL_MEM_FENCE);
    acc ^= u;
  }
  out[get_global_id(0)] = acc;
}
)CLC"},
    // The group-id product shares its temporary with the item-varying sum
    // (the floyd_pass shape), so hoisting must move it to a fresh register.
    {"renamed_group_product", R"CLC(
__kernel void k(__global uint* out) {
  uint base = (uint)get_group_id(0) * (uint)get_local_size(0) * 7u;
  uint x = base + (uint)get_local_id(0);
  barrier(CLK_LOCAL_MEM_FENCE);
  out[get_global_id(0)] = x * 3u + base + (uint)get_num_groups(0);
}
)CLC"},
};

inline const char* hoist_kernel(const std::string& label) {
  for (const HoistKernel& k : kHoistKernels) {
    if (label == k.label) return k.source;
  }
  throw std::runtime_error("no hoist kernel " + label);
}

}  // namespace clc_test

#endif  // HPLREPRO_TESTS_CLC_HOIST_KERNELS_HPP
