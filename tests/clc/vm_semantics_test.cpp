// Semantics of the clc VM: C arithmetic rules (integer widths, signedness,
// wraparound, conversions), control flow, functions, arrays and traps —
// each checked by compiling and executing real OpenCL C.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "exec_helper.hpp"

using clc_test::eval_scalar_kernel;
using clc_test::expr_kernel;
using clc_test::run_kernel_1buf;

namespace {

// --- Integer semantics ---------------------------------------------------------

TEST(VmSemantics, Int32WrapsOnOverflow) {
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(expr_kernel(
                "int", "a + 1", "  int a = 2147483647;\n")),
            std::numeric_limits<std::int32_t>::min());
}

TEST(VmSemantics, Int32MultiplyWraps) {
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(expr_kernel(
                "int", "a * a", "  int a = 100000;\n")),
            static_cast<std::int32_t>(100000ll * 100000ll));
}

TEST(VmSemantics, LongDoesNotWrapAt32Bits) {
  EXPECT_EQ(eval_scalar_kernel<std::int64_t>(expr_kernel(
                "long", "a * a", "  long a = 100000;\n")),
            100000ll * 100000ll);
}

TEST(VmSemantics, UnsignedDivisionIsUnsigned) {
  // 0xFFFFFFFE / 2 as uint = 0x7FFFFFFF; as int it would be -1.
  EXPECT_EQ(eval_scalar_kernel<std::uint32_t>(expr_kernel(
                "uint", "a / 2u", "  uint a = 4294967294u;\n")),
            0x7FFFFFFFu);
}

TEST(VmSemantics, SignedDivisionTruncatesTowardZero) {
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(
                expr_kernel("int", "(-7) / 2")),
            -3);
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(
                expr_kernel("int", "(-7) % 2")),
            -1);
}

TEST(VmSemantics, DivisionByZeroYieldsZeroNotCrash) {
  // OpenCL leaves this undefined; the VM must at least not kill the host.
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(
                expr_kernel("int", "a / b", "  int a = 5;\n  int b = 0;\n")),
            0);
}

TEST(VmSemantics, ShiftWorksOnPromotedType) {
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(expr_kernel("int", "1 << 20")),
            1 << 20);
  EXPECT_EQ(eval_scalar_kernel<std::uint32_t>(expr_kernel(
                "uint", "a >> 4", "  uint a = 0xF0000000u;\n")),
            0x0F000000u);
  // Arithmetic shift for signed values.
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(expr_kernel(
                "int", "a >> 4", "  int a = -64;\n")),
            -4);
}

TEST(VmSemantics, CharArithmeticWrapsAt8Bits) {
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(expr_kernel(
                "int", "(int)c", "  char c = 127;\n  c = c + 1;\n")),
            -128);
}

TEST(VmSemantics, UcharZeroExtends) {
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(expr_kernel(
                "int", "(int)c + 1", "  uchar c = 255;\n")),
            256);
}

TEST(VmSemantics, MixedSignedUnsignedComparisonUsesUnsigned) {
  // -1 converted to uint compares greater than 1 (C's usual conversions).
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(expr_kernel(
                "int", "(a > b) ? 1 : 0",
                "  int ai = -1;\n  uint b = 1u;\n  uint a = (uint)ai;\n")),
            1);
}

// --- Floating point ---------------------------------------------------------------

TEST(VmSemantics, FloatArithmeticIsSinglePrecision) {
  // 1 + 2^-30 rounds to 1 in float but not in double.
  EXPECT_EQ(eval_scalar_kernel<float>(expr_kernel(
                "float", "a + b",
                "  float a = 1.0f;\n  float b = 9.313225746154785e-10f;\n")),
            1.0f);
  EXPECT_GT(eval_scalar_kernel<double>(expr_kernel(
                "double", "a + b",
                "  double a = 1.0;\n  double b = 9.313225746154785e-10;\n")),
            1.0);
}

TEST(VmSemantics, FloatToIntTruncates) {
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(
                expr_kernel("int", "(int)2.9f")),
            2);
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(
                expr_kernel("int", "(int)(-2.9f)")),
            -2);
}

TEST(VmSemantics, IntToFloatConversion) {
  EXPECT_EQ(eval_scalar_kernel<float>(expr_kernel(
                "float", "(float)a / 4.0f", "  int a = 10;\n")),
            2.5f);
}

TEST(VmSemantics, UlongToDoubleIsUnsigned) {
  EXPECT_EQ(eval_scalar_kernel<double>(expr_kernel(
                "double", "(double)a",
                "  ulong a = 18446744073709551615ul;\n")),
            1.8446744073709552e19);
}

TEST(VmSemantics, MathBuiltins) {
  EXPECT_FLOAT_EQ(eval_scalar_kernel<float>(expr_kernel(
                      "float", "sqrt(2.0f)")),
                  std::sqrt(2.0f));
  EXPECT_DOUBLE_EQ(eval_scalar_kernel<double>(expr_kernel(
                       "double", "log(2.0)")),
                   std::log(2.0));
  EXPECT_FLOAT_EQ(eval_scalar_kernel<float>(expr_kernel(
                      "float", "fmax(1.5f, -2.0f)")),
                  1.5f);
  EXPECT_FLOAT_EQ(eval_scalar_kernel<float>(expr_kernel(
                      "float", "mad(2.0f, 3.0f, 4.0f)")),
                  10.0f);
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(expr_kernel(
                "int", "clamp(12, 0, 10)")),
            10);
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(expr_kernel(
                "int", "abs(-5)")),
            5);
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(expr_kernel(
                "int", "min(3, -7)")),
            -7);
}

// --- Control flow --------------------------------------------------------------------

TEST(VmSemantics, ForLoopBreakContinue) {
  const char* src = R"(
__kernel void k(__global int* out) {
  int sum = 0;
  for (int i = 0; i < 100; i++) {
    if (i % 2 == 0) continue;
    if (i > 10) break;
    sum += i;  /* 1+3+5+7+9 = 25 */
  }
  out[0] = sum;
}
)";
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(src), 25);
}

TEST(VmSemantics, WhileAndDoWhile) {
  const char* src = R"(
__kernel void k(__global int* out) {
  int i = 0;
  int sum = 0;
  while (i < 5) {
    sum += i;
    i++;
  }
  do {
    sum += 100;
  } while (0);
  out[0] = sum;  /* 10 + 100 */
}
)";
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(src), 110);
}

TEST(VmSemantics, TernaryAndShortCircuit) {
  const char* src = R"(
__kernel void k(__global int* out) {
  int zero = 0;
  int never = (zero && (1 / zero)) ? 7 : 3;  /* && guards the division */
  int yes = (1 || zero) ? 10 : 20;
  out[0] = never + yes;
}
)";
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(src), 13);
}

TEST(VmSemantics, NestedLoops) {
  const char* src = R"(
__kernel void k(__global int* out) {
  int count = 0;
  for (int i = 0; i < 10; i++) {
    for (int j = 0; j < 10; j++) {
      if (i == j) continue;
      count++;
    }
  }
  out[0] = count;  /* 90 */
}
)";
  EXPECT_EQ(eval_scalar_kernel<std::int32_t>(src), 90);
}

// --- Functions -------------------------------------------------------------------------

TEST(VmSemantics, FunctionCallsWithConversions) {
  const char* src = R"(
float average(float a, float b) {
  return (a + b) / 2.0f;
}
int twice(int x) { return x * 2; }

__kernel void k(__global float* out) {
  out[0] = average((float)twice(3), 4.0f);  /* (6+4)/2 = 5 */
}
)";
  EXPECT_EQ(eval_scalar_kernel<float>(src), 5.0f);
}

TEST(VmSemantics, FunctionWithPointerParameter) {
  const char* src = R"(
float sum3(__global const float* p, int base) {
  return p[base] + p[base + 1] + p[base + 2];
}

__kernel void k(__global float* data) {
  data[0] = sum3(data, 1);
}
)";
  std::vector<float> data = {0.0f, 1.0f, 2.0f, 3.0f};
  data = run_kernel_1buf<float>(src, "k", std::move(data), 1);
  EXPECT_EQ(data[0], 6.0f);
}

// --- Arrays ---------------------------------------------------------------------------

TEST(VmSemantics, PrivateArraysArePerWorkItem) {
  const char* src = R"(
__kernel void k(__global int* out) {
  int scratch[8];
  size_t tid = get_global_id(0);
  for (int i = 0; i < 8; i++) {
    scratch[i] = (int)tid * 10 + i;
  }
  int sum = 0;
  for (int i = 0; i < 8; i++) {
    sum += scratch[i];
  }
  out[tid] = sum;
}
)";
  std::vector<std::int32_t> out(4, 0);
  out = run_kernel_1buf<std::int32_t>(src, "k", std::move(out), 4);
  for (std::int32_t tid = 0; tid < 4; ++tid) {
    EXPECT_EQ(out[tid], tid * 80 + 28) << tid;
  }
}

TEST(VmSemantics, PointerArithmetic) {
  const char* src = R"(
__kernel void k(__global float* data) {
  __global float* p = data + 2;
  p[0] = 42.0f;
  *(0 + p) = p[0] + 1.0f;   /* p[0] again via + */
}
)";
  // Note: unary * is not in the subset; use index form instead.
  const char* src_ok = R"(
__kernel void k(__global float* data) {
  __global float* p = data + 2;
  p[0] = 42.0f;
  p[1] = p[0] + 1.0f;
}
)";
  (void)src;
  std::vector<float> data(4, 0.0f);
  data = run_kernel_1buf<float>(src_ok, "k", std::move(data), 1);
  EXPECT_EQ(data[2], 42.0f);
  EXPECT_EQ(data[3], 43.0f);
}

// --- Work-item functions ----------------------------------------------------------------

TEST(VmSemantics, WorkItemIdentification) {
  const char* src = R"(
__kernel void k(__global int* out) {
  size_t gid = get_global_id(0);
  out[gid] = (int)(get_group_id(0) * 1000 + get_local_id(0) * 10 +
                   get_local_size(0));
}
)";
  std::vector<std::int32_t> out(8, 0);
  out = run_kernel_1buf<std::int32_t>(src, "k", std::move(out), 8, 4);
  for (std::int32_t gid = 0; gid < 8; ++gid) {
    const std::int32_t group = gid / 4, lid = gid % 4;
    EXPECT_EQ(out[gid], group * 1000 + lid * 10 + 4) << gid;
  }
}

// OpenCL 1.2 §6.12.1: for a dimension outside 0..get_work_dim()-1 the id
// queries return 0 and the size and count queries return 1. On a 1-D
// launch, dimension 1 is in range of the arrays but unused, 3 and 7 are out
// of range entirely. Constant dimensions exercise the lowering's direct id
// reads; the runtime dimension stored by the host takes the generic path.
TEST(VmSemantics, OutOfRangeDimensionReturnsSpecDefaults) {
  const char* src = R"(
__kernel void k(__global ulong* out) {
  __global ulong* o = out + get_global_id(0) * 24;
  uint runtime_dim = (uint)o[18];
  o[0] = get_global_id(1);
  o[1] = get_local_id(1);
  o[2] = get_group_id(1);
  o[3] = get_global_size(1);
  o[4] = get_local_size(1);
  o[5] = get_num_groups(1);
  o[6] = get_global_id(3);
  o[7] = get_local_id(3);
  o[8] = get_group_id(3);
  o[9] = get_global_size(3);
  o[10] = get_local_size(3);
  o[11] = get_num_groups(3);
  o[12] = get_global_id(7);
  o[13] = get_local_id(7);
  o[14] = get_group_id(7);
  o[15] = get_global_size(7);
  o[16] = get_local_size(7);
  o[17] = get_num_groups(7);
  o[18] = get_global_id(runtime_dim);
  o[19] = get_local_id(runtime_dim);
  o[20] = get_group_id(runtime_dim);
  o[21] = get_global_size(runtime_dim);
  o[22] = get_local_size(runtime_dim);
  o[23] = get_num_groups(runtime_dim);
}
)";
 constexpr std::size_t kItems = 8;
  const char* const kDims[] = {"1", "3", "7", "5+item (runtime)"};
  for (const char* options :
       {"-cl-interp=stack", "-cl-interp=threaded",
        "-cl-interp=threaded -cl-wg-loops=off"}) {
    SCOPED_TRACE(options);
    std::vector<std::uint64_t> out(kItems * 24, 0);
    for (std::size_t g = 0; g < kItems; ++g) out[g * 24 + 18] = 5 + g;
    out = run_kernel_1buf<std::uint64_t>(src, "k", std::move(out), kItems, 4,
                                         options);
    for (std::size_t g = 0; g < kItems; ++g) {
      for (std::size_t q = 0; q < 24; ++q) {
        const std::uint64_t expected = q % 6 < 3 ? 0 : 1;  // ids, then sizes
        EXPECT_EQ(out[g * 24 + q], expected)
            << "item " << g << " dimension " << kDims[q / 6] << " query "
            << q % 6;
      }
    }
  }
}

// --- Traps ------------------------------------------------------------------------------

TEST(VmSemantics, OutOfBoundsAccessTraps) {
  const char* src = R"(
__kernel void k(__global int* out) {
  out[1000000] = 1;
}
)";
  std::vector<std::int32_t> out(4, 0);
  EXPECT_THROW(run_kernel_1buf<std::int32_t>(src, "k", out, 1),
               hplrepro::clc::TrapError);
}

TEST(VmSemantics, InfiniteLoopTrapsOnFuel) {
  const char* src = R"(
__kernel void k(__global int* out) {
  int i = 0;
  while (1) {
    i++;
  }
  out[0] = i;
}
)";
  const std::uint64_t saved = hplrepro::clsim::work_item_fuel();
  hplrepro::clsim::set_work_item_fuel(1 << 20);
  std::vector<std::int32_t> out(1, 0);
  EXPECT_THROW(run_kernel_1buf<std::int32_t>(src, "k", out, 1),
               hplrepro::clc::TrapError);
  hplrepro::clsim::set_work_item_fuel(saved);
}

}  // namespace
