// Unit tests for the work-group compilation analysis (wgloops.cpp): the
// build-time pass that splits a kernel's register code at barriers into
// regions and computes the per-item spill set the work-group VM carries
// across region boundaries. These check the analysis artifacts (WgInfo)
// directly; the execution contract (bit/stats identity against per-item
// activations) lives in optimizer_diff_test.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "benchsuite/reduction.hpp"
#include "benchsuite/transpose.hpp"
#include "clc/builtins.hpp"
#include "clc/compile.hpp"
#include "hoist_kernels.hpp"
#include "lane_kernels.hpp"

namespace bs = hplrepro::benchsuite;
namespace clc = hplrepro::clc;

namespace {

clc::Module compile_with(const std::string& source,
                         const std::string& options) {
  clc::CompileOptions opt;
  std::string error;
  EXPECT_TRUE(clc::parse_build_options(options, opt, error)) << error;
  return clc::compile(source, opt).module;
}

const clc::WgInfo& kernel_info(const clc::Module& module,
                               const std::string& name) {
  const clc::CompiledFunction* fn = module.find(name);
  EXPECT_NE(fn, nullptr) << name;
  const auto index =
      static_cast<std::size_t>(fn - module.functions.data());
  return module.wg_info[index];
}

std::size_t kernel_index(const clc::Module& module, const std::string& name) {
  const clc::CompiledFunction* fn = module.find(name);
  EXPECT_NE(fn, nullptr) << name;
  return static_cast<std::size_t>(fn - module.functions.data());
}

bool is_query(const clc::RegInstr& in, clc::Builtin id) {
  return in.op == clc::RegOp::WorkItem &&
         in.aux == static_cast<std::int32_t>(id);
}

/// How many instructions of `code` are the work-item query `id`.
std::size_t count_queries(const std::vector<clc::RegInstr>& code,
                          clc::Builtin id) {
  return static_cast<std::size_t>(
      std::count_if(code.begin(), code.end(),
                    [&](const clc::RegInstr& in) { return is_query(in, id); }));
}

const char* kTwoRegionKernel = R"CLC(
__kernel void k(__global uint* out) {
  __local uint tile[64];
  size_t lid = get_local_id(0);
  tile[lid] = (uint)lid * 3u;
  barrier(CLK_LOCAL_MEM_FENCE);
  out[get_global_id(0)] = tile[(lid + 1u) % 64u];
}
)CLC";

// Work-group compilation is the default under the threaded interpreter:
// a -O2 build carries a wg form and marks a plain barrier kernel
// eligible, with one region per barrier resume point plus the entry.
TEST(WgLoops, DefaultBuildCarriesEligibleTwoRegionForm) {
  const clc::Module m = compile_with(kTwoRegionKernel, "-O2");
  ASSERT_TRUE(m.has_wg_form());
  const clc::WgInfo& info = kernel_info(m, "k");
  EXPECT_TRUE(info.eligible);
  EXPECT_EQ(info.region_count, 2u);
  EXPECT_FALSE(info.live_regs.empty());  // lid crosses the barrier
}

TEST(WgLoops, BarrierFreeKernelIsOneRegion) {
  const clc::Module m = compile_with(
      "__kernel void k(__global uint* out) { out[get_global_id(0)] = 1u; }",
      "-O2");
  ASSERT_TRUE(m.has_wg_form());
  const clc::WgInfo& info = kernel_info(m, "k");
  EXPECT_TRUE(info.eligible);
  EXPECT_EQ(info.region_count, 1u);
  EXPECT_TRUE(info.live_regs.empty());
}

TEST(WgLoops, RegionCountIsBarriersPlusOne) {
  const clc::Module m = compile_with(R"CLC(
__kernel void k(__global uint* out) {
  __local uint tile[16];
  size_t lid = get_local_id(0);
  tile[lid] = (uint)lid;
  barrier(CLK_LOCAL_MEM_FENCE);
  uint a = tile[15u - lid];
  barrier(CLK_LOCAL_MEM_FENCE);
  tile[lid] = a + 1u;
  barrier(CLK_LOCAL_MEM_FENCE);
  out[lid] = tile[lid];
}
)CLC",
                                     "-O2");
  const clc::WgInfo& info = kernel_info(m, "k");
  EXPECT_TRUE(info.eligible);
  EXPECT_EQ(info.region_count, 4u);
}

// Registers no instruction ever writes — the launch arguments in the
// parameter registers and the constant pool — are group-uniform: the VM
// installs them once per group, so the analysis must keep them out of the
// per-item spill set.
TEST(WgLoops, UniformArgumentsStayOutOfSpillSet) {
  const clc::Module m = compile_with(kTwoRegionKernel, "-O2");
  const clc::CompiledFunction* fn = m.find("k");
  ASSERT_NE(fn, nullptr);
  const auto index = static_cast<std::size_t>(fn - m.functions.data());
  const clc::WgInfo& info = m.wg_info[index];
  const clc::RegFunction& rf = m.reg_functions[index];
  // `out` sits in a parameter register and is read in the second region
  // but never written (the kernel never reassigns it); no parameter
  // register may appear in the per-item spill set.
  EXPECT_FALSE(info.live_regs.empty());
  for (std::uint16_t r : info.live_regs) {
    EXPECT_GE(r, rf.num_params) << "uniform parameter register " << r
                                << " in spill set";
  }
  // The constant pool is uniform too: no instruction writes a pool
  // register, so none may be spilled.
  ASSERT_FALSE(rf.consts.empty());
  for (const clc::RegInstr& in : rf.code) {
    if (in.op == clc::RegOp::BrIf) continue;  // dst is a block id
    EXPECT_LT(in.dst, rf.const_base())
        << clc::reg_op_name(in.op) << " writes pool register " << in.dst;
  }
  for (std::uint16_t r : info.live_regs) {
    EXPECT_LT(r, rf.const_base()) << "pool register " << r
                                  << " in spill set";
  }
}

// Every save list is a subset of its entry's restore list: a register a
// region may modify is only worth writing back if the resumed region
// reads it again.
TEST(WgLoops, SaveListsAreSubsetsOfRestoreLists) {
  const clc::Module m = compile_with(kTwoRegionKernel, "-O2");
  const clc::WgInfo& info = kernel_info(m, "k");
  ASSERT_EQ(info.entry_lists.size(), info.save_lists.size());
  for (std::size_t e = 0; e < info.entry_lists.size(); ++e) {
    for (const auto& pair : info.save_lists[e]) {
      EXPECT_NE(std::find(info.entry_lists[e].begin(),
                          info.entry_lists[e].end(), pair),
                info.entry_lists[e].end())
          << "entry " << e << " saves reg " << pair.first
          << " it never restores";
    }
  }
}

TEST(WgLoops, WgLoopsOffBuildsNoWgForm) {
  const clc::Module m =
      compile_with(kTwoRegionKernel, "-O2 -cl-wg-loops=off");
  EXPECT_TRUE(m.has_reg_form());
  EXPECT_FALSE(m.has_wg_form());
}

// Hoisting edits only the wg copy of a kernel: the module's register form,
// which RegItemVM runs under -cl-wg-loops=off, is the same instruction
// for instruction with and without the analysis.
TEST(WgLoops, WgLoopsOffBuildIsUnchanged) {
  const clc::Module on = compile_with(bs::transpose_kernel_source(), "-O2");
  const clc::Module off =
      compile_with(bs::transpose_kernel_source(), "-O2 -cl-wg-loops=off");
  ASSERT_EQ(on.reg_functions.size(), off.reg_functions.size());
  const std::size_t k = kernel_index(on, "transpose_tiled");
  EXPECT_GT(on.wg_info[k].hoisted, 0u);
  for (std::size_t f = 0; f < on.reg_functions.size(); ++f) {
    const clc::RegFunction& a = on.reg_functions[f];
    const clc::RegFunction& b = off.reg_functions[f];
    EXPECT_EQ(a.num_regs, b.num_regs);
    ASSERT_EQ(a.code.size(), b.code.size());
    for (std::size_t i = 0; i < a.code.size(); ++i) {
      const clc::RegInstr& x = a.code[i];
      const clc::RegInstr& y = b.code[i];
      EXPECT_TRUE(x.op == y.op && x.dst == y.dst && x.a == y.a &&
                  x.b == y.b && x.c == y.c && x.aux == y.aux &&
                  x.imm == y.imm)
          << "instruction " << i;
    }
  }
}

bool is_memory_op(clc::RegOp op) {
  return op >= clc::RegOp::LoadI8 && op <= clc::RegOp::SIdxF64;
}

/// The memory slots (RegInstr::aux) of `code`'s memory instructions, in
/// program order.
std::vector<std::int32_t> memory_slots(const std::vector<clc::RegInstr>& code) {
  std::vector<std::int32_t> slots;
  for (const clc::RegInstr& in : code) {
    if (is_memory_op(in.op)) slots.push_back(in.aux);
  }
  return slots;
}

// lower_module numbers every memory instruction of the module, helpers
// included, with a dense slot 0..mem_slots-1: the coalescing tracker's
// array index. The kernel's wg copy runs the same memory instructions, so
// it keeps each slot, and the analysis changes no slot.
TEST(WgLoops, MemorySlotsAreDenseModuleWideAndKeptByWgCopy) {
  const std::string source = R"CLC(
float gather(__global const float* src, __global float* seen, uint i) {
  float v = src[i] + src[i + 1u];
  seen[i] = v;
  return v;
}

__kernel void k(__global const float* src, __global float* seen,
                __global float* out) {
  __local float tile[16];
  uint lid = (uint)get_local_id(0);
  uint base = (uint)get_group_id(0) * 16u;
  tile[lid] = gather(src, seen, base + lid);
  barrier(CLK_LOCAL_MEM_FENCE);
  out[base + lid] = tile[15u - lid] + src[base];
}
)CLC";
  const clc::Module m = compile_with(source, "-O2");
  ASSERT_TRUE(m.has_wg_form());
  const std::size_t k = kernel_index(m, "k");
  const std::size_t helper = kernel_index(m, "gather");
  ASSERT_TRUE(m.wg_info[k].eligible);
  EXPECT_GT(m.wg_info[k].hoisted, 0u);

  std::vector<std::int32_t> all;
  for (const clc::RegFunction& fn : m.reg_functions) {
    const std::vector<std::int32_t> slots = memory_slots(fn.code);
    all.insert(all.end(), slots.begin(), slots.end());
  }
  EXPECT_FALSE(memory_slots(m.reg_functions[helper].code).empty());
  EXPECT_FALSE(memory_slots(m.reg_functions[k].code).empty());
  ASSERT_EQ(all.size(), m.mem_slots);
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], static_cast<std::int32_t>(i));
  }

  // The wg copy: every slot of the kernel, in the same order; prologues
  // hold no memory instruction.
  EXPECT_EQ(memory_slots(m.wg_info[k].fn.code),
            memory_slots(m.reg_functions[k].code));
  EXPECT_TRUE(memory_slots(m.wg_info[k].prologues).empty());

  const clc::Module off = compile_with(source, "-O2 -cl-wg-loops=off");
  EXPECT_EQ(off.mem_slots, m.mem_slots);
  ASSERT_EQ(off.reg_functions.size(), m.reg_functions.size());
  for (std::size_t f = 0; f < m.reg_functions.size(); ++f) {
    const std::vector<clc::RegInstr>& on_code = m.reg_functions[f].code;
    const std::vector<clc::RegInstr>& off_code = off.reg_functions[f].code;
    ASSERT_EQ(on_code.size(), off_code.size());
    for (std::size_t i = 0; i < on_code.size(); ++i) {
      EXPECT_EQ(on_code[i].aux, off_code[i].aux) << "instruction " << i;
    }
  }
}

// The transpose tile's resume region computes its tile origin from
// get_group_id: two queries and two shifts the whole group shares. They
// move into that region's prologue, and because the lowering reuses their
// temporary for the item-varying address, each moves to a fresh register.
TEST(WgLoops, GroupIdArithmeticIsHoistedAndRenamed) {
  const clc::Module m = compile_with(bs::transpose_kernel_source(), "-O2");
  const std::size_t k = kernel_index(m, "transpose_tiled");
  const clc::WgInfo& info = m.wg_info[k];
  const clc::RegFunction& rf = m.reg_functions[k];
  ASSERT_TRUE(info.eligible);
  EXPECT_EQ(info.hoisted, 4u);
  EXPECT_EQ(count_queries(rf.code, clc::Builtin::GetGroupId), 2u);
  EXPECT_EQ(count_queries(info.fn.code, clc::Builtin::GetGroupId), 0u);
  EXPECT_EQ(count_queries(info.prologues, clc::Builtin::GetGroupId), 2u);
  EXPECT_EQ(info.fn.num_regs, rf.num_regs + 4);
  for (const clc::RegInstr& in : info.prologues) {
    if (in.op == clc::RegOp::Br) continue;
    EXPECT_GE(in.dst, rf.num_regs) << clc::reg_op_name(in.op);
  }
  // Blocks keep their accounting; only the instructions move.
  ASSERT_EQ(info.fn.blocks.size(), rf.blocks.size());
  for (std::size_t b = 0; b < rf.blocks.size(); ++b) {
    EXPECT_EQ(info.fn.blocks[b].fuel, rf.blocks[b].fuel);
    EXPECT_EQ(info.fn.blocks[b].int_ops, rf.blocks[b].int_ops);
    EXPECT_EQ(info.fn.blocks[b].control_ops, rf.blocks[b].control_ops);
  }
  EXPECT_EQ(info.fn.code.size() + info.hoisted, rf.code.size());
}

// A group-uniform value computed only under an item-varying branch is not
// run by every item, so it stays in its block.
TEST(WgLoops, DefUnderVaryingBranchIsNotHoisted) {
  const clc::Module m = compile_with(R"CLC(
__kernel void k(__global uint* out) {
  size_t lid = get_local_id(0);
  uint v = 0u;
  if (lid < 4u) {
    v = (uint)get_group_id(0) * 3u;
  }
  out[get_global_id(0)] = v;
}
)CLC",
                                     "-O2");
  const clc::WgInfo& info = kernel_info(m, "k");
  ASSERT_TRUE(info.eligible);
  EXPECT_EQ(count_queries(info.fn.code, clc::Builtin::GetGroupId), 1u);
  EXPECT_EQ(count_queries(info.prologues, clc::Builtin::GetGroupId), 0u);
}

// Loops inside a region are out of scope: a uniform query in a loop body
// runs per trip and stays in place.
TEST(WgLoops, UniformValueInsideRegionLoopStaysInPlace) {
  const clc::Module m = compile_with(R"CLC(
__kernel void k(__global uint* out) {
  uint acc = 0u;
  for (uint i = 0u; i < 4u; i++) {
    acc += (uint)get_group_id(0) * 3u + i;
  }
  out[get_global_id(0)] = acc;
}
)CLC",
                                     "-O2");
  const clc::WgInfo& info = kernel_info(m, "k");
  ASSERT_TRUE(info.eligible);
  EXPECT_EQ(count_queries(info.fn.code, clc::Builtin::GetGroupId), 1u);
  EXPECT_EQ(count_queries(info.prologues, clc::Builtin::GetGroupId), 0u);
}

// The group-id product shares its temporary with the item-varying sum
// (the floyd_pass shape): hoisting moves it to a fresh register past the
// kernel's own. optimizer_diff_test checks that its results and counters
// match per-item and stack execution.
TEST(WgLoops, SharedTemporaryIsRenamed) {
  const clc::Module m =
      compile_with(clc_test::hoist_kernel("renamed_group_product"), "-O2");
  const std::size_t k = kernel_index(m, "k");
  const clc::WgInfo& info = m.wg_info[k];
  ASSERT_TRUE(info.eligible);
  EXPECT_GT(info.hoisted, 0u);
  EXPECT_GT(info.fn.num_regs, m.reg_functions[k].num_regs);
}

// Every kernel of the rule-breaking set hoists something, so the
// differential runs over them in optimizer_diff_test exercise the
// prologues.
TEST(WgLoops, RuleBreakingKernelsHoist) {
  for (const clc_test::HoistKernel& hk : clc_test::kHoistKernels) {
    const clc::Module m = compile_with(hk.source, "-O2");
    EXPECT_GT(kernel_info(m, "k").hoisted, 0u) << hk.label;
  }
}

// reduce_sum's tree loop carries the stride `s` across its barrier: every
// write to it (the initial local_size / 2 and the halving after each
// barrier) runs in a region head on uniform operands, so all of them move
// into prologues and `s` needs no spill column.
TEST(WgLoops, LoopCarriedStrideLeavesSpillSet) {
  const clc::Module m = compile_with(bs::reduction_kernel_source(), "-O2");
  const std::size_t k = kernel_index(m, "reduce_sum");
  const clc::WgInfo& info = m.wg_info[k];
  const clc::RegFunction& rf = m.reg_functions[k];
  ASSERT_TRUE(info.eligible);
  // The loop test `s > 0` reads the stride register.
  const auto test = std::find_if(
      rf.code.begin(), rf.code.end(),
      [](const clc::RegInstr& in) { return in.op == clc::RegOp::GtU; });
  ASSERT_NE(test, rf.code.end());
  const std::uint16_t s = test->a;
  const auto writers = std::count_if(
      rf.code.begin(), rf.code.end(), [&](const clc::RegInstr& in) {
        return in.op == clc::RegOp::Zext32 && in.dst == s;
      });
  EXPECT_EQ(writers, 2);  // loop-carried: initialised, then halved
  EXPECT_EQ(std::count(info.live_regs.begin(), info.live_regs.end(), s), 0);
  for (const auto& list : info.entry_lists) {
    for (const auto& pair : list) EXPECT_NE(pair.first, s);
  }
  // Only the local id still crosses a barrier per item.
  EXPECT_EQ(info.live_regs.size(), 1u);
}

// The build log carries one wg-loops reason code per kernel.
TEST(WgLoops, BuildLogGivesReasonPerKernel) {
  clc::CompileOptions opt;
  const clc::CompileResult eligible =
      clc::compile(bs::transpose_kernel_source(), opt);
  EXPECT_NE(eligible.build_log.find("wg-loops: kernel 'transpose_tiled': 2 "
                                    "region(s), hoisted 4 of "),
            std::string::npos)
      << eligible.build_log;

  const clc::CompileResult helper = clc::compile(R"CLC(
void sync(void) { barrier(CLK_LOCAL_MEM_FENCE); }
__kernel void k(__global uint* out) {
  sync();
  out[get_global_id(0)] = 1u;
}
)CLC",
                                                 opt);
  EXPECT_NE(helper.build_log.find(
                "wg-loops: kernel 'k': ineligible (barrier in callee)"),
            std::string::npos)
      << helper.build_log;
}

// The lanes rule on the hazard corpus: races and shifted in-place
// updates keep region 0 scalar; lane-private accesses, pure helpers and
// grid-stride stores run in lanes (aliasing arguments are the launch's
// business).
TEST(WgLoops, LaneCorpusRegionZeroDecisions) {
  for (const clc_test::LaneKernel& lk : clc_test::kLaneKernels) {
    for (const char* options : {"-O2", "-O0"}) {
      const clc::Module m = compile_with(lk.source, options);
      const clc::WgInfo& info = kernel_info(m, "k");
      ASSERT_TRUE(info.eligible) << lk.label;
      ASSERT_FALSE(info.lanes.empty()) << lk.label;
      EXPECT_EQ(info.lanes[0] != 0, lk.region0_lanes)
          << lk.label << " " << options << ": "
          << (info.scalar_reason[0] ? info.scalar_reason[0] : "lanes");
    }
  }
}

// The patterns.hpp kernels as HPL generates them (hpl/codegen.cpp).
const char* kHplAxpy = R"CLC(
__kernel void hpl_kernel_1(__global float* p0,
    __global const float* p1,
    float p2)
{
  const size_t idx = get_global_id(0);
  p0[idx] = ((p2 * p1[idx]) + p0[idx]);
}
)CLC";

const char* kHplReduce = R"CLC(
__kernel void hpl_kernel_3(__global const float* p0,
    __global float* p1,
    uint p2)
{
  const size_t idx = get_global_id(0);
  const size_t szx = get_global_size(0);
  const size_t lidx = get_local_id(0);
  const size_t lszx = get_local_size(0);
  const size_t gidx = get_group_id(0);
  __local float v0[128];
  uint v1;
  uint v2;
  float v3 = 0.0f;
  for (v1 = ((uint)idx); (v1 < p2); v1 += ((uint)szx)) {
    v3 += p0[v1];
  }
  v0[lidx] = v3;
  barrier(CLK_LOCAL_MEM_FENCE);
  for (v2 = (((uint)lszx) >> 1); (v2 > 0u); v2 = (v2 >> 1)) {
    if ((lidx < v2)) {
      v0[lidx] += v0[(lidx + v2)];
    }
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  if ((lidx == 0)) {
    p1[gidx] = v0[0];
  }
}
)CLC";

TEST(WgLoops, AxpyRunsEveryRegionInLanes) {
  clc::CompileOptions opt;
  const clc::CompileResult r = clc::compile(kHplAxpy, opt);
  const clc::WgInfo& info = kernel_info(r.module, "hpl_kernel_1");
  ASSERT_EQ(info.lanes.size(), 1u);
  EXPECT_TRUE(info.lanes[0]);
  // Both arguments are roots; only the stored one at the lane's index.
  ASSERT_EQ(info.lane_roots[0].size(), 2u);
  EXPECT_NE(r.build_log.find("lanes in 1 of 1 regions"), std::string::npos)
      << r.build_log;
  EXPECT_EQ(r.build_log.find("region 0:"), std::string::npos)
      << r.build_log;
}

// reduce_kernel's grid-stride region stores only its own __local slot, so
// it runs in lanes; the tree regions read a neighbour's slot and the last
// one stores at the group's index, so they stay scalar and say why.
TEST(WgLoops, ReduceKernelTreeRegionsStayScalarWithReason) {
  clc::CompileOptions opt;
  const clc::CompileResult r = clc::compile(kHplReduce, opt);
  const clc::WgInfo& info = kernel_info(r.module, "hpl_kernel_3");
  ASSERT_EQ(info.lanes.size(), 3u);
  EXPECT_TRUE(info.lanes[0]);
  EXPECT_FALSE(info.lanes[1]);
  EXPECT_FALSE(info.lanes[2]);
  EXPECT_STREQ(info.scalar_reason[1], "store not at a lane-injective index");
  EXPECT_NE(r.build_log.find("lanes in 1 of 3 regions (region 1: store not "
                             "at a lane-injective index; region 2: store "
                             "not at a lane-injective index)"),
            std::string::npos)
      << r.build_log;

  // The tree's `lidx` crosses a barrier in a spill register, and values
  // carried across a barrier count as varying: even with the final store
  // at the item's own index the tree's stores stay unproven.
  std::string tree_only = kHplReduce;
  const std::string final_store = "    p1[gidx] = v0[0];";
  tree_only.replace(tree_only.find(final_store), final_store.size(),
                    "    p1[idx] = v0[0];");
  const clc::CompileResult t = clc::compile(tree_only, opt);
  const clc::WgInfo& tree = kernel_info(t.module, "hpl_kernel_3");
  ASSERT_EQ(tree.lanes.size(), 3u);
  EXPECT_TRUE(tree.lanes[0]);
  EXPECT_FALSE(tree.lanes[1]);
  EXPECT_FALSE(tree.lanes[2]);
}

// A store at the lane's index beside a load of the same buffer at a
// neighbour's index is the race the second condition rejects.
TEST(WgLoops, NeighbourReadOfStoredBufferKeepsRegionScalar) {
  const clc::Module m = compile_with(R"CLC(
__kernel void k(__global uint* a) {
  uint i = (uint)get_global_id(0);
  a[i] = a[i + 1u] + 1u;
}
)CLC",
                                     "-O2");
  const clc::WgInfo& info = kernel_info(m, "k");
  ASSERT_EQ(info.lanes.size(), 1u);
  EXPECT_FALSE(info.lanes[0]);
  EXPECT_STREQ(info.scalar_reason[0],
               "access to a stored buffer at another index");
}

TEST(WgLoops, StackInterpreterBuildsNoWgForm) {
  const clc::Module m = compile_with(kTwoRegionKernel, "-O2 -cl-interp=stack");
  EXPECT_FALSE(m.has_wg_form());
}

// A barrier reached through a helper call cannot be split into top-level
// regions; the kernel must fall back to per-item activations.
TEST(WgLoops, BarrierInHelperMakesKernelIneligible) {
  const clc::Module m = compile_with(R"CLC(
void sync_and_store(__local uint* tile, uint lid, uint v) {
  tile[lid] = v;
  barrier(CLK_LOCAL_MEM_FENCE);
}

__kernel void k(__global uint* out) {
  __local uint tile[16];
  uint lid = (uint)get_local_id(0);
  sync_and_store(tile, lid, lid * 2u);
  out[lid] = tile[15u - lid];
}
)CLC",
                                     "-O2");
  ASSERT_TRUE(m.has_wg_form());
  const clc::WgInfo& info = kernel_info(m, "k");
  EXPECT_FALSE(info.eligible);
}

}  // namespace
