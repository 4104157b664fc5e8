// Bytecode-level units: pointer encoding invariants (property sweep),
// opcode naming, and disassembly of representative programs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "clc/bytecode.hpp"
#include "clc/compile.hpp"

using namespace hplrepro::clc;

namespace {

struct PtrCase {
  PtrSpace space;
  std::uint64_t buffer;
  std::uint64_t offset;
};

class PointerEncoding : public ::testing::TestWithParam<PtrCase> {};

TEST_P(PointerEncoding, RoundTripsAllFields) {
  const PtrCase& c = GetParam();
  const std::uint64_t p = make_pointer(c.space, c.buffer, c.offset);
  EXPECT_EQ(pointer_space(p), c.space);
  EXPECT_EQ(pointer_buffer(p), c.buffer);
  EXPECT_EQ(pointer_offset(p), c.offset);
}

TEST_P(PointerEncoding, ArithmeticOnlyTouchesOffset) {
  const PtrCase& c = GetParam();
  const std::uint64_t p = make_pointer(c.space, c.buffer, c.offset);
  const std::uint64_t q = pointer_add(p, 256);
  EXPECT_EQ(pointer_space(q), c.space);
  EXPECT_EQ(pointer_buffer(q), c.buffer);
  EXPECT_EQ(pointer_offset(q), c.offset + 256);
  // Negative strides work too.
  const std::uint64_t r = pointer_add(q, -256);
  EXPECT_EQ(pointer_offset(r), c.offset);
}

std::vector<PtrCase> pointer_cases() {
  std::vector<PtrCase> cases;
  for (const PtrSpace space : {PtrSpace::Private, PtrSpace::Global,
                               PtrSpace::Local, PtrSpace::Constant}) {
    for (const std::uint64_t buffer : {0ull, 1ull, 13ull, 16383ull}) {
      for (const std::uint64_t offset :
           {0ull, 4ull, 4096ull, (1ull << 40)}) {
        cases.push_back({space, buffer, offset});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PointerEncoding,
                         ::testing::ValuesIn(pointer_cases()));

TEST(Bytecode, EveryOpcodeHasAName) {
  for (int op = 0; op <= static_cast<int>(Op::WorkItemFn); ++op) {
    const std::string name = op_name(static_cast<Op>(op));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?") << "opcode " << op;
  }
}

TEST(Bytecode, DisassemblyShowsControlFlowTargets) {
  auto result = compile(R"(
__kernel void k(__global int* o) {
  int s = 0;
  for (int i = 0; i < 4; i++) {
    s += i;
  }
  o[0] = s;
}
)");
  const std::string text = disassemble(*result.module.find("k"));
  EXPECT_NE(text.find("jz "), std::string::npos) << text;
  EXPECT_NE(text.find("jmp "), std::string::npos) << text;
  EXPECT_NE(text.find("add.i"), std::string::npos) << text;
  EXPECT_NE(text.find("sext.32"), std::string::npos) << text;
}

TEST(Bytecode, FunctionMetadataInDisassembly) {
  auto result = compile(R"(
float helper(float x) { return x + 1.0f; }
__kernel void k(__global float* o) {
  __local float tile[8];
  float priv[4];
  priv[0] = helper(o[0]);
  tile[0] = priv[0];
  barrier(CLK_LOCAL_MEM_FENCE);
  o[0] = tile[0];
}
)");
  const auto* kernel = result.module.find("k");
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->local_bytes, 32u);
  EXPECT_EQ(kernel->private_bytes, 16u);
  EXPECT_TRUE(kernel->uses_barrier);

  const std::string text = disassemble(*kernel);
  EXPECT_NE(text.find("local=32B"), std::string::npos) << text;
  EXPECT_NE(text.find("call "), std::string::npos) << text;
  EXPECT_NE(text.find("barrier"), std::string::npos) << text;
  EXPECT_NE(text.find("ptr.local"), std::string::npos) << text;
  EXPECT_NE(text.find("ptr.private"), std::string::npos) << text;
}

TEST(Bytecode, ModuleLookupAndKernelNames) {
  auto result = compile(R"(
void helper(void) { }
__kernel void alpha(__global int* o) { o[0] = 1; }
__kernel void beta(__global int* o) { o[0] = 2; }
)");
  EXPECT_EQ(result.module.kernel_names(),
            (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_NE(result.module.find("helper"), nullptr);
  EXPECT_FALSE(result.module.find("helper")->is_kernel);
}

// The register form keeps literals in a per-function constant pool: one
// register per distinct bit pattern, never written by any instruction, and
// listed by the disassembly in place of materializing instructions. Store
// retargeting: with nothing else on the operand stack holding x,
// `x = x * 3u` writes the product straight into x's register, so the only
// copies left read an alias (a slot or a pool constant).
TEST(Bytecode, RegisterFormPoolsConstantsAndRetargetsStores) {
  auto result = compile(R"(
__kernel void k(__global uint* out, uint n) {
  uint x = (uint)get_global_id(0);
  for (uint i = 0u; i < n; i++) {
    x = x * 3u;
    x = x ^ 1234567u;
  }
  out[get_global_id(0)] = x + 1234567u;
}
)");
  ASSERT_TRUE(result.module.has_reg_form());
  const RegFunction& fn = result.module.reg_functions[0];
  const std::string text = disassemble_reg(fn);
  ASSERT_FALSE(fn.consts.empty());
  EXPECT_EQ(fn.const_base() + fn.consts.size(), fn.num_regs);
  int big = 0;
  for (const Value& v : fn.consts) big += v.i64 == 1234567 ? 1 : 0;
  EXPECT_EQ(big, 1) << "pool entries must be deduplicated";
  EXPECT_NE(text.find(" = 1234567\n"), std::string::npos) << text;

  const auto slots =
      static_cast<std::uint16_t>(result.module.functions[0].num_slots);
  for (const RegInstr& in : fn.code) {
    if (in.op != RegOp::BrIf) {  // BrIf's dst is a block id
      EXPECT_LT(in.dst, fn.const_base()) << reg_op_name(in.op) << '\n'
                                         << text;
    }
    if (in.op == RegOp::Mov) {
      EXPECT_TRUE(in.a < slots || in.a >= fn.const_base())
          << "copy from home register " << in.a << '\n' << text;
    }
  }
}

}  // namespace
