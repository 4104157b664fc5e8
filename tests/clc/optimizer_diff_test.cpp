// Differential harness over the interpreter/optimizer matrix:
//   O0 stack  vs  O2 stack       — the optimizer pipeline contract
//                                  (bit-identical outputs, never more ops);
//   O2 stack  vs  O2 threaded    — the register-lowering contract
//                                  (bit-identical outputs AND field-by-field
//                                  identical ExecStats: the block-level
//                                  accounting must sum to exactly what the
//                                  stack interpreter counts per instruction);
//   O2 threaded -cl-wg-loops=off vs on — the work-group-compilation
//                                  contract (running barrier regions as
//                                  work-item loops on one activation keeps
//                                  bits AND every counter, fuel semantics
//                                  included, identical to per-item runs).
// Every kernel in both corpora runs through all four configurations (the
// language, hoist and lane corpora also run O0 through the work-group VM,
// whose register code and hoisting differ from O2's); semantics
// preservation down to the last bit, with measurable savings.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchsuite/floyd.hpp"
#include "benchsuite/kernel_corpus.hpp"
#include "clsim/executor.hpp"
#include "clsim/runtime.hpp"
#include "exec_helper.hpp"
#include "hoist_kernels.hpp"
#include "lane_kernels.hpp"
#include "hpl/HPL.h"

namespace bs = hplrepro::benchsuite;
namespace clc = hplrepro::clc;
namespace clsim = hplrepro::clsim;

namespace {

// --- Language-feature corpus -------------------------------------------------

struct DiffRun {
  std::vector<std::uint32_t> words;  // output buffer as raw 32-bit words
  clc::ExecStats stats;
  std::size_t static_instrs = 0;
};

/// Runs `kernel_name` over `global` items with one uint buffer of
/// `words` elements (zero-initialised), bound to the first `buffer_args`
/// parameters, at the given build options.
DiffRun run_diff(const std::string& source, const std::string& kernel_name,
                 std::size_t words, std::size_t global, std::size_t local,
                 const std::string& options, int buffer_args = 1) {
  DiffRun run;
  run.words.assign(words, 0u);

  clsim::Context context(clc_test::test_device());
  clsim::CommandQueue queue(context);
  clsim::Buffer buffer(context, words * sizeof(std::uint32_t));
  queue.enqueue_write_buffer(buffer, run.words.data(), buffer.size());

  clsim::Program program(context, source);
  program.build(options);
  for (const auto& fn : program.module().functions) {
    run.static_instrs += fn.code.size();
  }

  clsim::Kernel kernel(program, kernel_name);
  for (int a = 0; a < buffer_args; ++a) {
    kernel.set_arg(static_cast<unsigned>(a), buffer);
  }
  std::optional<clsim::NDRange> local_range;
  if (local != 0) local_range = clsim::NDRange(local);
  clsim::Event e = queue.enqueue_ndrange_kernel(
      kernel, clsim::NDRange(global), local_range);
  e.wait();  // stats() exists only once the launch completes
  run.stats = e.stats();

  queue.enqueue_read_buffer(buffer, run.words.data(), buffer.size());
  queue.finish();
  return run;
}

// The two interpreters must agree on every counter: results equality
// alone would not catch a lowering pass that mis-sums a block histogram.
void expect_stats_identical(const clc::ExecStats& a, const clc::ExecStats& b,
                            const std::string& label) {
  EXPECT_EQ(a.control_ops, b.control_ops) << label;
  EXPECT_EQ(a.int_ops, b.int_ops) << label;
  EXPECT_EQ(a.float_ops, b.float_ops) << label;
  EXPECT_EQ(a.double_ops, b.double_ops) << label;
  EXPECT_EQ(a.special_ops, b.special_ops) << label;
  EXPECT_EQ(a.fused_ops, b.fused_ops) << label;
  EXPECT_EQ(a.global_load_bytes, b.global_load_bytes) << label;
  EXPECT_EQ(a.global_store_bytes, b.global_store_bytes) << label;
  EXPECT_EQ(a.global_accesses, b.global_accesses) << label;
  EXPECT_EQ(a.global_transactions, b.global_transactions) << label;
  EXPECT_EQ(a.local_bytes, b.local_bytes) << label;
  EXPECT_EQ(a.local_accesses, b.local_accesses) << label;
  EXPECT_EQ(a.private_bytes, b.private_bytes) << label;
  EXPECT_EQ(a.barriers_executed, b.barriers_executed) << label;
  EXPECT_EQ(a.items, b.items) << label;
  EXPECT_EQ(a.groups, b.groups) << label;
}

struct CorpusKernel {
  const char* label;
  const char* kernel_name;
  const char* source;
  std::size_t words;   // output buffer size in uints
  std::size_t global;  // NDRange size
  std::size_t local;   // work-group size; 0 = let the runtime pick
  int buffer_args = 1;  // leading parameters bound to the buffer
};

// Each kernel writes its results into a __global uint* (reinterpreting
// float bits where needed) so O0 and O2 outputs can be compared word for
// word. Together they cover the language surface the optimizer rewrites:
// loops, branches, integer widths, compound assignment, local memory with
// barriers, helper-function calls, conversions, logical ops, builtins,
// constant-heavy expressions and dead code.
const CorpusKernel kLanguageCorpus[] = {
    {"loops_break_continue", "k", R"CLC(
__kernel void k(__global uint* out) {
  size_t gid = get_global_id(0);
  uint acc = 0u;
  for (int i = 0; i < 64; i++) {
    if (i % 3 == 0) continue;
    if (i > (int)gid + 40) break;
    acc += (uint)i * 2u + 1u;
  }
  int j = 0;
  while (j < (int)(gid % 7u)) {
    acc ^= (uint)j << 2;
    j++;
  }
  out[gid] = acc;
}
)CLC",
     64, 64, 0},
    {"conditionals", "k", R"CLC(
__kernel void k(__global uint* out) {
  size_t gid = get_global_id(0);
  int v = (int)gid - 32;
  uint r;
  if (v < -10) {
    r = 1u;
  } else if (v < 0) {
    r = 2u * (uint)(-v);
  } else if (v == 0) {
    r = 42u;
  } else {
    r = (v % 2 == 0) ? (uint)v : (uint)(3 * v + 1);
  }
  out[gid] = r + (gid > 16 ? 100u : 0u);
}
)CLC",
     64, 64, 0},
    {"int_widths", "k", R"CLC(
__kernel void k(__global uint* out) {
  size_t gid = get_global_id(0);
  char c = (char)(gid * 37u);
  uchar uc = (uchar)(gid * 251u);
  short s = (short)(gid * 12345u);
  ushort us = (ushort)(gid * 54321u);
  long l = (long)gid * -123456789L;
  ulong ul = (ulong)gid * 0x9E3779B97F4A7C15UL;
  out[gid] = (uint)c + (uint)uc + (uint)s + (uint)us + (uint)(l >> 16) +
             (uint)(ul >> 32);
}
)CLC",
     64, 64, 0},
    {"compound_assign", "k", R"CLC(
__kernel void k(__global uint* out) {
  size_t gid = get_global_id(0);
  uint x = (uint)gid + 1u;
  x += 7u; x *= 3u; x -= 5u; x /= 2u; x %= 1000u;
  x <<= 3; x >>= 1; x |= 0x10u; x &= 0xFFFu; x ^= 0x55u;
  int y = (int)gid - 8;
  y += (int)x; y *= -3; y /= 4; y %= 77;
  out[gid] = x + (uint)y;
}
)CLC",
     64, 64, 0},
    {"local_mem_barrier", "k", R"CLC(
__kernel void k(__global uint* out) {
  __local uint tile[16];
  size_t lid = get_local_id(0);
  size_t gid = get_global_id(0);
  tile[lid] = (uint)gid * 3u + 1u;
  barrier(CLK_LOCAL_MEM_FENCE);
  uint sum = 0u;
  for (uint i = 0u; i < 16u; i++) {
    sum += tile[(lid + i) % 16u];
  }
  out[gid] = sum;
}
)CLC",
     64, 64, 16},
    {"function_calls", "k", R"CLC(
uint triple(uint v) { return v * 3u; }
uint square_plus(uint v, uint d) { return v * v + d; }
__kernel void k(__global uint* out) {
  size_t gid = get_global_id(0);
  uint a = triple((uint)gid);
  uint b = square_plus(a, triple(7u));
  out[gid] = b - square_plus((uint)gid, 0u);
}
)CLC",
     64, 64, 0},
    {"conversions", "k", R"CLC(
__kernel void k(__global float* out) {
  size_t gid = get_global_id(0);
  float f = (float)gid * 0.75f - 20.5f;
  int i = (int)f;
  float g = (float)i + 0.5f;
  uint u = (uint)(g > 0.0f ? g : -g);
  double d = (double)f * 1.25;
  long l = (long)d;
  out[gid] = (float)u + (float)l * 0.5f + f;
}
)CLC",
     64, 64, 0},
    {"logical_ops", "k", R"CLC(
__kernel void k(__global uint* out) {
  size_t gid = get_global_id(0);
  int a = (int)(gid % 5u);
  int b = (int)(gid % 3u);
  uint r = 0u;
  if (a && b) r |= 1u;
  if (a || !b) r |= 2u;
  if (!(a == b) && (a < b || b > 1)) r |= 4u;
  r |= (uint)((a != 0) & (b != 0)) << 3;
  out[gid] = r;
}
)CLC",
     64, 64, 0},
    {"builtins", "k", R"CLC(
__kernel void k(__global float* out) {
  size_t gid = get_global_id(0);
  float x = (float)gid * 0.25f + 0.1f;
  float r = sqrt(x) + sin(x) * cos(x) + exp(x * 0.1f) + log(x + 1.0f);
  r += fmin(x, 2.0f) + fmax(x, 3.0f) + fabs(x - 5.0f) + floor(x) + pow(x, 1.5f);
  out[gid] = r;
}
)CLC",
     64, 64, 0},
    {"constant_heavy", "k", R"CLC(
__kernel void k(__global uint* out) {
  size_t gid = get_global_id(0);
  // Everything here folds: the optimized kernel should be a handful of
  // instructions while the unoptimized one grinds through the arithmetic.
  uint c = (3u + 4u * 5u) * (100u / 4u) - (7u % 3u);
  int d = (1 << 10) / 64 + (255 & 0x0F) - (-8 >> 2);
  float e = 2.0f * 3.5f + 1.0f / 4.0f;
  uint x = (uint)gid * 1u + 0u;     // identities
  uint y = ((uint)gid * 8u) / 4u;   // strength-reducible
  out[gid] = c + (uint)d + (uint)e + x + y;
}
)CLC",
     64, 64, 0},
    {"dead_code", "k", R"CLC(
__kernel void k(__global uint* out) {
  size_t gid = get_global_id(0);
  uint unused1 = (uint)gid * 99u;       // dead store
  float unused2 = (float)gid * 3.14f;   // dead store
  uint r = (uint)gid;
  if (0) { r = 12345u; }                // unreachable
  if (1) { r += 2u; } else { r = 7u; }  // constant branch
  for (int i = 0; i < 0; i++) { r ^= 0xDEADu; }  // trip-count-zero loop
  out[gid] = r;
}
)CLC",
     64, 64, 0},
    {"mad_and_indexing", "k", R"CLC(
__kernel void k(__global uint* out) {
  size_t gid = get_global_id(0);
  size_t n = get_global_size(0);
  // Classic fusion bait: row*stride+col addressing and a*b+c arithmetic.
  size_t row = gid / 8u;
  size_t col = gid % 8u;
  uint v = out[row * 8u + col];
  float acc = (float)v;
  for (int i = 0; i < 4; i++) {
    acc = acc * 1.5f + (float)i;
  }
  out[(col * (n / 8u)) + row] = (uint)acc + (uint)(row * 8u + col);
}
)CLC",
     64, 64, 0},
    // Signed 64-bit overflow wraps in two's complement, both when the
    // optimizer folds it (constants) and when the VMs execute it (data-
    // dependent values, one of them multiply-add fusion bait).
    {"int_overflow_wraps", "k", R"CLC(
__kernel void k(__global uint* out) {
  size_t gid = get_global_id(0);
  long g = (long)gid;
  long lmax = 9223372036854775807L;
  long lmin = -9223372036854775807L - 1L;
  long a = lmax + 1L;
  long b = lmin * -1L;
  long c = lmin - 1L;
  long d = (lmax - g) + (g + 1L);
  long e = (lmin + g) * (-1L - g);
  long f = -(lmin + (g & 1L));
  long m = e * 3L + d;
  out[2u * gid] = (uint)(a ^ b ^ c ^ d);
  out[2u * gid + 1u] = (uint)((e ^ f ^ m) >> 32) ^ (uint)(e + f + m);
}
)CLC",
     128, 64, 0},
    // Integer abs() of LONG_MIN negates through the u64 view in both VMs
    // (OpenCL's abs(long) returns the ulong 2^63); the neighbours and the
    // 32-bit case pin the ordinary paths.
    {"abs_long_min", "k", R"CLC(
__kernel void k(__global uint* out) {
  size_t gid = get_global_id(0);
  long lmin = -9223372036854775807L - 1L;
  ulong a = abs(lmin + (long)(gid & 3u));
  ulong b = abs(-(long)gid);
  int c = abs((int)gid - 32);
  out[3u * gid] = (uint)(a >> 32) ^ (uint)a;
  out[3u * gid + 1u] = (uint)b;
  out[3u * gid + 2u] = (uint)c;
}
)CLC",
     192, 64, 0},
    // `x = x + 1` while a copy of x is still on the operand stack (the
    // post-increment inside an index, `a[i++] = v`): the register lowering
    // must copy the old value out before the slot is rewritten, and may
    // only retarget the add into the slot when nothing aliases it.
    {"store_while_aliased", "k", R"CLC(
__kernel void k(__global uint* out) {
  size_t gid = get_global_id(0);
  uint o = (uint)gid * 4u;
  uint i = (uint)gid;
  out[o++] = i;
  uint old = i++;
  out[o++] = old + i;
  i = i + 1u;
  out[o++] = i;
  out[o] = o;
}
)CLC",
     256, 64, 0},
    // Constants duplicated and swapped on the operand stack: `a = b = 5u`
    // duplicates a literal, a post-increment of a __local element swaps
    // the stored value with a constant pointer, and a compound assignment
    // duplicates one.
    {"const_alias_shuffles", "k", R"CLC(
__kernel void k(__global uint* out) {
  __local uint tile[8];
  size_t lid = get_local_id(0);
  uint a, b;
  a = b = 5u;
  if (lid == 0u) { tile[0] = 1u; tile[1] = 2u; }
  barrier(CLK_LOCAL_MEM_FENCE);
  if (lid == 0u) { uint t = tile[1]++; tile[0] += t; }
  barrier(CLK_LOCAL_MEM_FENCE);
  out[get_global_id(0)] = a + b + tile[0] + tile[1] + (uint)lid;
}
)CLC",
     64, 64, 8},
    // A helper with its own constants called from a loop: every Call frame
    // gets the callee's constant pool installed after the arguments.
    {"const_helper_in_loop", "k", R"CLC(
uint mix(uint v, uint i) {
  float f = (float)(v & 255u) * 0.5f + 3.25f;
  return (v * 2654435761u) ^ (i + 40503u) ^ (uint)f;
}
__kernel void k(__global uint* out) {
  size_t gid = get_global_id(0);
  uint h = (uint)gid;
  for (uint i = 0u; i < 8u; i++) h = mix(h, i) + 7u;
  out[gid] = h + mix(3u, 9u);
}
)CLC",
     64, 64, 0},
};

class OptimizerDiffLanguage
    : public ::testing::TestWithParam<CorpusKernel> {};

TEST_P(OptimizerDiffLanguage, BitIdenticalAndNoMoreOps) {
  const CorpusKernel& ck = GetParam();
  const auto run = [&](const char* options) {
    return run_diff(ck.source, ck.kernel_name, ck.words, ck.global, ck.local,
                    options, ck.buffer_args);
  };
  const DiffRun o0 = run("-O0 -cl-interp=stack");
  const DiffRun o2 = run("-O2 -cl-interp=stack");
  const DiffRun reg = run("-O2 -cl-interp=threaded -cl-wg-loops=off");
  const DiffRun wg = run("-O2 -cl-interp=threaded");
  const DiffRun o0_wg = run("-O0 -cl-interp=threaded");

  ASSERT_EQ(o0.words.size(), o2.words.size());
  for (std::size_t i = 0; i < o0.words.size(); ++i) {
    EXPECT_EQ(o0.words[i], o2.words[i]) << ck.label << " word " << i;
  }
  EXPECT_LE(o2.stats.total_ops(), o0.stats.total_ops()) << ck.label;
  EXPECT_LE(o2.static_instrs, o0.static_instrs) << ck.label;

  // Register interpreter: same bytecode, same bits, same counters.
  EXPECT_EQ(o2.words, reg.words) << ck.label;
  expect_stats_identical(o2.stats, reg.stats, ck.label);

  // Work-group compilation: same bits, same counters again, at both
  // optimization levels.
  EXPECT_EQ(reg.words, wg.words) << ck.label;
  expect_stats_identical(reg.stats, wg.stats, ck.label);
  EXPECT_EQ(o0.words, o0_wg.words) << ck.label;
  expect_stats_identical(o0.stats, o0_wg.stats, ck.label);
}

std::string corpus_label(const ::testing::TestParamInfo<CorpusKernel>& info) {
  return info.param.label;
}

INSTANTIATE_TEST_SUITE_P(LanguageCorpus, OptimizerDiffLanguage,
                         ::testing::ValuesIn(kLanguageCorpus), corpus_label);

// The kernels built to break the work-group VM's hoisting rules, over four
// groups of 16 items.
std::vector<CorpusKernel> hoist_corpus() {
  std::vector<CorpusKernel> corpus;
  for (const clc_test::HoistKernel& hk : clc_test::kHoistKernels) {
    corpus.push_back({hk.label, "k", hk.source, 64, 64, 16});
  }
  return corpus;
}

INSTANTIATE_TEST_SUITE_P(HoistCorpus, OptimizerDiffLanguage,
                         ::testing::ValuesIn(hoist_corpus()), corpus_label);

// The kernels built to break the work-group VM's lane groups.
std::vector<CorpusKernel> lane_corpus() {
  std::vector<CorpusKernel> corpus;
  for (const clc_test::LaneKernel& lk : clc_test::kLaneKernels) {
    corpus.push_back({lk.label, "k", lk.source, lk.words, lk.global, lk.local,
                      lk.buffer_args});
  }
  return corpus;
}

INSTANTIATE_TEST_SUITE_P(LaneCorpus, OptimizerDiffLanguage,
                         ::testing::ValuesIn(lane_corpus()), corpus_label);

// A trap in lockstep reports what the lowest trapping item reports when
// the items run one at a time: every interpreter gives the same message.
TEST(LaneHazards, TrapsReportWhatTheStackInterpreterReports) {
  const std::uint64_t saved_fuel = clsim::work_item_fuel();
  for (const clc_test::LaneTrapKernel& tk : clc_test::kLaneTrapKernels) {
    if (tk.fuel != 0) clsim::set_work_item_fuel(tk.fuel);
    for (const char* options :
         {"-O0 -cl-interp=stack", "-O2 -cl-interp=stack",
          "-O2 -cl-interp=threaded -cl-wg-loops=off",
          "-O2 -cl-interp=threaded", "-O0 -cl-interp=threaded"}) {
      std::string message = "no trap";
      try {
        run_diff(tk.source, "k", tk.words, tk.global, tk.local, options);
      } catch (const clc::TrapError& e) {
        message = e.what();
      }
      EXPECT_EQ(message, tk.message) << tk.label << " " << options;
    }
    clsim::set_work_item_fuel(saved_fuel);
  }
}

const CorpusKernel& language_kernel(const std::string& label) {
  for (const auto& k : kLanguageCorpus) {
    if (label == k.label) return k;
  }
  throw std::runtime_error("no corpus kernel " + label);
}

// The four interpreters agreeing is not enough on its own: the overflow
// kernel's words must be the two's-complement wrap of the host reference.
TEST(OptimizerDiff, SignedOverflowWrapsToTheHostReference) {
  const CorpusKernel* ck = &language_kernel("int_overflow_wraps");
  const DiffRun run = run_diff(ck->source, ck->kernel_name, ck->words,
                               ck->global, ck->local, "-O2");
  const std::uint64_t lmax = 0x7FFFFFFFFFFFFFFFull;
  const std::uint64_t lmin = 0x8000000000000000ull;
  for (std::uint64_t g = 0; g < ck->global; ++g) {
    const std::uint64_t a = lmax + 1, b = lmin * ~0ull, c = lmin - 1;
    const std::uint64_t d = (lmax - g) + (g + 1);
    const std::uint64_t e = (lmin + g) * (~0ull - g);
    const std::uint64_t f = 0 - (lmin + (g & 1));
    const std::uint64_t m = e * 3 + d;
    EXPECT_EQ(run.words[2 * g], static_cast<std::uint32_t>(a ^ b ^ c ^ d))
        << g;
    EXPECT_EQ(run.words[2 * g + 1],
              static_cast<std::uint32_t>((e ^ f ^ m) >> 32) ^
                  static_cast<std::uint32_t>(e + f + m))
        << g;
  }
}

// abs(LONG_MIN) is 2^63 as a ulong, the u64 negation the VMs perform; the
// host reference computes it the same defined way.
TEST(OptimizerDiff, IntegerAbsMatchesTheHostReference) {
  const CorpusKernel& ck = language_kernel("abs_long_min");
  for (const char* options : {"-O2 -cl-interp=stack", "-O2"}) {
    const DiffRun run = run_diff(ck.source, ck.kernel_name, ck.words,
                                 ck.global, ck.local, options);
    for (std::uint64_t g = 0; g < ck.global; ++g) {
      const std::uint64_t a = 0 - (0x8000000000000000ull + (g & 3));
      const std::int64_t c = static_cast<std::int64_t>(g) - 32;
      EXPECT_EQ(run.words[3 * g], static_cast<std::uint32_t>(a >> 32) ^
                                      static_cast<std::uint32_t>(a))
          << options << " item " << g;
      EXPECT_EQ(run.words[3 * g + 1], static_cast<std::uint32_t>(g))
          << options << " item " << g;
      EXPECT_EQ(run.words[3 * g + 2],
                static_cast<std::uint32_t>(c < 0 ? -c : c))
          << options << " item " << g;
    }
  }
}

// --- Benchsuite corpus -------------------------------------------------------

// EP's outputs pass through sqrt/log/exp; every other benchmark is plain
// arithmetic. The optimizer never touches builtin evaluation, so even EP
// comes out bit-identical — but per the harness contract transcendental
// results are compared with a small ULP tolerance, everything else
// exactly.
bool kernel_uses_transcendentals(const std::string& name) {
  return name == "ep";
}

std::int64_t ulp_distance_f64(double a, double b) {
  std::int64_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  if (ia < 0) ia = std::numeric_limits<std::int64_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int64_t>::min() - ib;
  return ia > ib ? ia - ib : ib - ia;
}

class OptimizerDiffBenchsuite
    : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerDiffBenchsuite, BitIdenticalAndNoMoreOps) {
  const std::string& name = GetParam();
  const clsim::Device device =
      *clsim::Platform::get().device_by_name("Tesla");
  const bs::CorpusRun o0 =
      bs::run_corpus_kernel(name, device, "-O0 -cl-interp=stack");
  const bs::CorpusRun o2 =
      bs::run_corpus_kernel(name, device, "-O2 -cl-interp=stack");
  const bs::CorpusRun reg = bs::run_corpus_kernel(
      name, device, "-O2 -cl-interp=threaded -cl-wg-loops=off");
  const bs::CorpusRun wg =
      bs::run_corpus_kernel(name, device, "-O2 -cl-interp=threaded");

  // The interpreter swap has no float tolerance at all: both execute the
  // same O2 bytecode, so even EP's transcendental outputs must be
  // bit-for-bit equal, and every dynamic counter must match. The same
  // holds for the work-item-loop execution of that bytecode.
  EXPECT_EQ(o2.outputs, reg.outputs) << name;
  expect_stats_identical(o2.stats, reg.stats, name);
  EXPECT_EQ(reg.outputs, wg.outputs) << name;
  expect_stats_identical(reg.stats, wg.stats, name);

  ASSERT_EQ(o0.outputs.size(), o2.outputs.size());
  for (std::size_t b = 0; b < o0.outputs.size(); ++b) {
    const auto& a = o0.outputs[b];
    const auto& c = o2.outputs[b];
    ASSERT_EQ(a.size(), c.size()) << name << " buffer " << b;
    if (kernel_uses_transcendentals(name) && b < 2) {
      // sx/sy: doubles through sqrt/log — allow 2 ULP.
      for (std::size_t i = 0; i + sizeof(double) <= a.size();
           i += sizeof(double)) {
        double x, y;
        std::memcpy(&x, a.data() + i, sizeof(x));
        std::memcpy(&y, c.data() + i, sizeof(y));
        EXPECT_LE(ulp_distance_f64(x, y), 2)
            << name << " buffer " << b << " byte " << i;
      }
    } else {
      EXPECT_EQ(0, std::memcmp(a.data(), c.data(), a.size()))
          << name << " buffer " << b;
    }
  }

  EXPECT_LE(o2.stats.total_ops(), o0.stats.total_ops()) << name;
  EXPECT_LE(o2.static_instrs, o0.static_instrs) << name;
  EXPECT_EQ(o2.opt_report.level, clc::OptLevel::O2);
  EXPECT_EQ(o0.opt_report.level, clc::OptLevel::O0);
}

// The corpus rows plus the barrier-heavy and lane extras — the rows where
// the work-group-compilation contract is under the most pressure.
std::vector<std::string> diff_kernel_names() {
  std::vector<std::string> names = bs::corpus_kernel_names();
  for (const std::string& name : bs::barrier_kernel_names()) {
    names.push_back(name);
  }
  for (const std::string& name : bs::lane_kernel_names()) {
    names.push_back(name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(BenchKernels, OptimizerDiffBenchsuite,
                         ::testing::ValuesIn(diff_kernel_names()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

// The tentpole's acceptance criterion: the optimizer must strictly reduce
// the dynamic op count on at least 3 of the 5 paper benchmarks.
TEST(OptimizerDiff, DynamicOpsDropOnBenchsuite) {
  const clsim::Device device =
      *clsim::Platform::get().device_by_name("Tesla");
  int strict_reductions = 0;
  for (const std::string& name : bs::corpus_kernel_names()) {
    const bs::CorpusRun o0 = bs::run_corpus_kernel(name, device, "-O0");
    const bs::CorpusRun o2 = bs::run_corpus_kernel(name, device, "-O2");
    EXPECT_LE(o2.stats.total_ops(), o0.stats.total_ops()) << name;
    if (o2.stats.total_ops() < o0.stats.total_ops()) ++strict_reductions;
  }
  EXPECT_GE(strict_reductions, 3);
}

// The optimizer reports per-kernel before/after counts, exposed through
// the program object (the analogue of a driver's -cl-opt-info remarks).
TEST(OptimizerDiff, OptReportCarriesPerKernelCounts) {
  clsim::Context context(clc_test::test_device());
  clsim::Program program(context, bs::floyd_kernel_source());
  program.build();  // driver default: O2

  const clc::OptReport& report = program.opt_report();
  EXPECT_EQ(report.level, clc::OptLevel::O2);
  bool found = false;
  for (const auto& fn : report.functions) {
    if (fn.name != "floyd_pass") continue;
    found = true;
    EXPECT_TRUE(fn.is_kernel);
    EXPECT_LT(fn.instrs_after, fn.instrs_before);
    EXPECT_GT(fn.instrs_fused, 0u);
  }
  EXPECT_TRUE(found);
  EXPECT_NE(report.summary().find("floyd_pass"), std::string::npos)
      << report.summary();
}

// The HPL layer threads build options into its generated-kernel builds:
// O0 and O2 runs of a captured kernel must also agree bit for bit.
void hpl_diff_kernel(HPL::Array<float, 1> y, HPL::Array<float, 1> x,
                     HPL::Float a) {
  using namespace HPL;
  y[idx] = a * x[idx] * 1.0f + (y[idx] + 0.0f) * 2.0f;
}

TEST(OptimizerDiff, HplBuildOptionsThreadThrough) {
  std::vector<float> results[2];
  const std::string options[2] = {"-cl-opt-disable", "-O2"};
  for (int run = 0; run < 2; ++run) {
    HPL::set_kernel_build_options(options[run]);
    EXPECT_EQ(HPL::kernel_build_options(), options[run]);
    HPL::Array<float, 1> x(64), y(64);
    for (int i = 0; i < 64; ++i) {
      x(i) = 0.37f * static_cast<float>(i) - 3.0f;
      y(i) = 1.0f / (static_cast<float>(i) + 1.0f);
    }
    HPL::Float a;
    a = 1.5f;
    HPL::eval(hpl_diff_kernel)(y, x, a);
    for (int i = 0; i < 64; ++i) results[run].push_back(y(i));
  }
  HPL::set_kernel_build_options("");
  EXPECT_EQ(results[0], results[1]);
}

TEST(OptimizerDiff, HplRejectsUnknownBuildOptions) {
  EXPECT_THROW(HPL::set_kernel_build_options("-fbogus"),
               hplrepro::InvalidArgument);
  EXPECT_EQ(HPL::kernel_build_options(), "");
}

// A suspended work-item in the register interpreter is nothing but its
// saved register file plus the block cursor to resume at. This kernel
// carries live private state (float, double and integer accumulators) in
// registers across eight barrier suspensions, exchanging data through
// __local in between; any register lost or clobbered during a
// suspend/resume cycle changes the output bits. Stack and threaded runs
// must agree exactly, and must have actually suspended (barriers > 0).
TEST(OptimizerDiff, BarrierResumePreservesRegisterFile) {
  const std::string source = R"CLC(
__kernel void relay(__global uint* out) {
  __local float tile[16];
  size_t lid = get_local_id(0);
  size_t gid = get_global_id(0);
  float facc = (float)gid * 0.5f + 1.0f;
  double dacc = (double)gid * 0.25;
  uint iacc = (uint)gid * 2654435761u;
  for (int round = 0; round < 8; round++) {
    tile[lid] = facc + (float)round;
    barrier(CLK_LOCAL_MEM_FENCE);
    float neighbor = tile[(lid + 1u) % 16u];
    barrier(CLK_LOCAL_MEM_FENCE);
    facc = facc * 1.25f + neighbor;
    dacc += (double)neighbor * 0.5;
    iacc = (iacc ^ (uint)round) * 31u + (uint)facc;
  }
  out[gid * 3u] = iacc;
  out[gid * 3u + 1u] = (uint)(facc * 16.0f);
  out[gid * 3u + 2u] = (uint)(dacc * 256.0);
}
)CLC";
  const DiffRun stack =
      run_diff(source, "relay", 64 * 3, 64, 16, "-O2 -cl-interp=stack");
  const DiffRun reg = run_diff(source, "relay", 64 * 3, 64, 16,
                               "-O2 -cl-interp=threaded -cl-wg-loops=off");
  const DiffRun wg =
      run_diff(source, "relay", 64 * 3, 64, 16, "-O2 -cl-interp=threaded");
  EXPECT_EQ(stack.words, reg.words);
  expect_stats_identical(stack.stats, reg.stats, "relay");
  // Work-group compilation replaces the suspend/resume machinery with
  // per-region spill rows; any value lost across a region switch (or a
  // spill row clobbered by another item) changes the bits.
  EXPECT_EQ(reg.words, wg.words);
  expect_stats_identical(reg.stats, wg.stats, "relay");
  // 64 items x 16 barrier executions each (2 per round x 8 rounds).
  EXPECT_EQ(reg.stats.barriers_executed, 64u * 16u);
  EXPECT_EQ(wg.stats.barriers_executed, 64u * 16u);
}

// A barrier inside a divergent branch must trap — not deadlock, not
// silently release — in BOTH execution modes. The work-item-loop mode has
// its own phase bookkeeping (items finishing while others park at a
// barrier), so it gets its own regression here, next to the item-mode
// scheduler's.
TEST(OptimizerDiff, DivergentBarrierTrapsInBothModes) {
  const std::string source = R"CLC(
__kernel void diverge(__global uint* out) {
  size_t lid = get_local_id(0);
  if (lid < 8u) {
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  out[get_global_id(0)] = (uint)lid;
}
)CLC";
  for (const char* options :
       {"-O2 -cl-interp=threaded -cl-wg-loops=off",
        "-O2 -cl-interp=threaded"}) {
    EXPECT_THROW(run_diff(source, "diverge", 16, 16, 16, options),
                 clc::TrapError)
        << options;
  }
}

// Items of one phase waiting at different barriers would deadlock on a
// device just like items exiting while others wait; every mode traps
// instead of releasing each barrier with half the group.
TEST(OptimizerDiff, DifferentBarriersTrapInEveryMode) {
  const std::string source = R"CLC(
__kernel void split(__global uint* out) {
  size_t lid = get_local_id(0);
  uint v;
  if (lid < 8u) {
    barrier(CLK_LOCAL_MEM_FENCE);
    v = 1u;
  } else {
    barrier(CLK_LOCAL_MEM_FENCE);
    v = 2u;
  }
  out[get_global_id(0)] = v;
}
)CLC";
  for (const char* options :
       {"-O2 -cl-interp=stack", "-O2 -cl-interp=threaded -cl-wg-loops=off",
        "-O2 -cl-interp=threaded"}) {
    EXPECT_THROW(run_diff(source, "split", 16, 16, 16, options),
                 clc::TrapError)
        << options;
  }
}

// Sanity for the option-string surface the harness depends on.
TEST(OptimizerDiff, BuildOptionVariantsAreEquivalent) {
  const std::string source = clc_test::expr_kernel("uint", "7u * 6u + 1u");
  const auto def = clc_test::eval_scalar_kernel<std::uint32_t>(source);
  const auto o0 =
      clc_test::eval_scalar_kernel<std::uint32_t>(source, "-cl-opt-disable");
  const auto o2 = clc_test::eval_scalar_kernel<std::uint32_t>(source, "-O2");
  EXPECT_EQ(def, 43u);
  EXPECT_EQ(o0, 43u);
  EXPECT_EQ(o2, 43u);
}

}  // namespace
