// The paper's quantitative claims as regression-pinned invariants, at
// test-sized workloads:
//   1. HPL-generated kernels cost exactly what hand-written OpenCL costs
//      on the device (the basis of Figs. 7-9's "typically below 4%").
//   2. The Tesla/Xeon modeled ratio is large for compute-bound EP and
//      smallest for gather-bound spmv (Fig. 7's shape).
//   3. Kernel reuse makes repeat invocations cheap (paper §V-B).

#include <gtest/gtest.h>

#include "benchsuite/ep.hpp"
#include "hpl/HPL.h"
#include "benchsuite/floyd.hpp"
#include "benchsuite/reduction.hpp"
#include "benchsuite/spmv.hpp"
#include "benchsuite/transpose.hpp"

namespace bs = hplrepro::benchsuite;
namespace clsim = hplrepro::clsim;

namespace {

clsim::Device tesla() {
  return *clsim::Platform::get().device_by_name("Tesla");
}
clsim::Device xeon() {
  return *clsim::Platform::get().device_by_name("Xeon");
}
HPL::Device hpl_tesla() { return *HPL::Device::by_name("Tesla"); }

// The generated kernel's simulated device time must match the hand-written
// kernel's within a tight tolerance: HPL's cost lives on the host.
void expect_kernel_parity(double ocl, double hpl, const char* name) {
  EXPECT_NEAR(hpl / ocl, 1.0, 0.05) << name << ": ocl=" << ocl
                                    << " hpl=" << hpl;
}

TEST(PaperClaims, GeneratedKernelsRunAtHandwrittenSpeed) {
  {
    bs::EpConfig c;
    c.pairs = 1 << 12;
    c.chunk = 32;
    c.local_size = 32;
    expect_kernel_parity(
        bs::ep_opencl(c, tesla()).timings.kernel_sim_seconds,
        bs::ep_hpl(c, hpl_tesla()).timings.kernel_sim_seconds, "ep");
  }
  {
    bs::FloydConfig c;
    c.nodes = 64;
    expect_kernel_parity(
        bs::floyd_opencl(c, tesla()).timings.kernel_sim_seconds,
        bs::floyd_hpl(c, hpl_tesla()).timings.kernel_sim_seconds, "floyd");
  }
  {
    bs::TransposeConfig c;
    c.rows = c.cols = 256;
    expect_kernel_parity(
        bs::transpose_opencl(c, tesla()).timings.kernel_sim_seconds,
        bs::transpose_hpl(c, hpl_tesla()).timings.kernel_sim_seconds,
        "transpose");
  }
  {
    bs::SpmvConfig c;
    c.rows = 512;
    c.density = 0.02;
    expect_kernel_parity(
        bs::spmv_opencl(c, tesla()).timings.kernel_sim_seconds,
        bs::spmv_hpl(c, hpl_tesla()).timings.kernel_sim_seconds, "spmv");
  }
  {
    bs::ReductionConfig c;
    c.elements = 1 << 16;
    c.groups = 16;
    c.local_size = 64;
    expect_kernel_parity(
        bs::reduction_opencl(c, tesla()).timings.kernel_sim_seconds,
        bs::reduction_hpl(c, hpl_tesla()).timings.kernel_sim_seconds,
        "reduction");
  }
}

TEST(PaperClaims, SpeedupShapeEpHighSpmvLow) {
  // Modeled kernel-time ratios (Xeon / Tesla), small sizes. EP must be the
  // extreme outlier and spmv must sit well below it (Fig. 7's shape).
  // Sizes chosen so the Tesla is reasonably utilised (1024+ items) while
  // the test stays fast; at these scales EP's modeled ratio is ~75 and
  // keeps growing toward the paper's 257x with size (see Fig. 6).
  bs::EpConfig ep;
  ep.pairs = 1 << 16;
  const double ep_ratio =
      bs::ep_opencl(ep, xeon()).timings.kernel_sim_seconds /
      bs::ep_opencl(ep, tesla()).timings.kernel_sim_seconds;

  bs::SpmvConfig sp;
  sp.rows = 2048;
  const double spmv_ratio =
      bs::spmv_opencl(sp, xeon()).timings.kernel_sim_seconds /
      bs::spmv_opencl(sp, tesla()).timings.kernel_sim_seconds;

  bs::TransposeConfig tr;
  tr.rows = tr.cols = 256;
  const double tr_ratio =
      bs::transpose_opencl(tr, xeon()).timings.kernel_sim_seconds /
      bs::transpose_opencl(tr, tesla()).timings.kernel_sim_seconds;

  EXPECT_GT(ep_ratio, 60.0);            // paper: 257x at full size
  EXPECT_GT(ep_ratio, 3 * tr_ratio);    // EP dominates everything
  EXPECT_GT(ep_ratio, 1.5 * spmv_ratio);
  EXPECT_LT(spmv_ratio, 40.0);          // spmv is the weak case
  EXPECT_GT(spmv_ratio, 1.0);           // but the GPU still wins
}

TEST(PaperClaims, RepeatInvocationsAreCheap) {
  bs::TransposeConfig c;
  c.rows = c.cols = 128;
  // The cheapness grade compares host wall-clock, which a loaded machine
  // can invert (the warm run loses its scheduling slice); retried like
  // the overlap test in async_pipeline_test.cpp.
  bool warm_was_cheaper = false;
  for (int attempt = 0; attempt < 8 && !warm_was_cheaper; ++attempt) {
    HPL::purge_kernel_cache();
    // Timings are profile() deltas; restarting the ledger from zero makes
    // every attempt's sums round exactly like the first attempt's.
    HPL::reset_profile();
    const auto cold = bs::transpose_hpl(c, hpl_tesla()).timings;
    const auto warm = bs::transpose_hpl(c, hpl_tesla()).timings;
    // Same device work, every attempt...
    ASSERT_EQ(cold.kernel_sim_seconds, warm.kernel_sim_seconds);
    // ...but the warm run skips capture/codegen/compilation entirely.
    warm_was_cheaper = warm.host_seconds < cold.host_seconds;
  }
  EXPECT_TRUE(warm_was_cheaper);
}

void kernel_3d(HPL::Array<int, 3> out) {
  using namespace HPL;
  out[idx][idy][idz] =
      cast<std::int32_t>(idx * 10000 + idy * 100 + idz + gidz * 0 +
                         ngroupsy * 0 + lszz * 0 + lidz * 0 + szz * 0);
}

TEST(PaperClaims, ThreeDimensionalDomains) {
  // §II: domains of up to three dimensions; all nine predefined variables
  // per dimension group exist.
  HPL::Array<int, 3> out(4, 6, 8);
  HPL::eval(kernel_3d).global(4, 6, 8).local(2, 3, 4)(out);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 6; ++j) {
      for (int k = 0; k < 8; ++k) {
        ASSERT_EQ(out(i, j, k), i * 10000 + j * 100 + k);
      }
    }
  }
}

}  // namespace
