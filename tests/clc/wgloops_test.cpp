// Unit tests for the work-group compilation analysis (wgloops.cpp): the
// build-time pass that splits a kernel's register code at barriers into
// regions and computes the per-item spill set the work-group VM carries
// across region boundaries. These check the analysis artifacts (WgInfo)
// directly; the execution contract (bit/stats identity against per-item
// activations) lives in optimizer_diff_test.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "clc/compile.hpp"

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
