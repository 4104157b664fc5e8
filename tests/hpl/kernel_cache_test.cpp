// Kernel-cache observability (paper §V-B: repeat invocations skip capture,
// codegen and compilation). The ProfileSnapshot hit/miss counters make the
// cache's behaviour directly assertable.

#include <gtest/gtest.h>

#include <string>

#include "hpl/HPL.h"

using namespace HPL;

namespace {

void saxpy(Array<float, 1> y, Array<float, 1> x, Float a) {
  y[idx] = a * x[idx] + y[idx];
}

void scale(Array<float, 1> data, Float a) { data[idx] = a * data[idx]; }

class KernelCacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    purge_kernel_cache();
    reset_profile();
  }

  // This suite asserts exact per-eval hit/miss/built counts, which only
  // the eager launch sequence produces (fused launches are covered by
  // fusion_test.cpp).
  ScopedFusionDisable fusion_off_;
};

TEST_F(KernelCacheTest, ColdEvalIsAMissWarmEvalIsAHit) {
  Array<float, 1> x(128), y(128);
  eval(saxpy)(y, x, 2.0f);
  auto snap = profile();
  EXPECT_EQ(snap.kernel_cache_misses, 1u);
  EXPECT_EQ(snap.kernel_cache_hits, 0u);
  EXPECT_EQ(snap.kernels_built, 1u);

  eval(saxpy)(y, x, 2.0f);
  eval(saxpy)(y, x, 2.0f);
  snap = profile();
  EXPECT_EQ(snap.kernel_cache_misses, 1u);
  EXPECT_EQ(snap.kernel_cache_hits, 2u);
  EXPECT_EQ(snap.kernels_built, 1u);
}

TEST_F(KernelCacheTest, HitsPlusMissesEqualsLaunches) {
  Array<float, 1> x(64), y(64);
  eval(saxpy)(y, x, 1.0f);
  eval(scale)(x, 3.0f);
  eval(saxpy)(y, x, 1.0f);
  eval(scale)(x, 3.0f);
  eval(scale)(x, 3.0f);
  const auto snap = profile();
  EXPECT_EQ(snap.kernel_launches, 5u);
  EXPECT_EQ(snap.kernel_cache_hits + snap.kernel_cache_misses,
            snap.kernel_launches);
  EXPECT_EQ(snap.kernel_cache_misses, 2u);  // one per distinct kernel
  EXPECT_EQ(snap.kernel_cache_hits, 3u);
}

TEST_F(KernelCacheTest, SecondDeviceIsAMissPerDevice) {
  const auto devices = Device::all();
  Array<float, 1> data(64);
  eval(scale).device(devices.front())(data, 2.0f);
  const auto mid = profile();
  EXPECT_EQ(mid.kernel_cache_misses, 1u);

  // A device the kernel was not built for yet: the cached source is
  // reused (no recapture) but the build is a cache miss.
  eval(scale).device(devices.back())(data, 2.0f);
  auto snap = profile();
  EXPECT_EQ(snap.kernel_cache_misses, 2u);
  EXPECT_EQ(snap.kernels_built, 2u);

  // Both devices warm now.
  eval(scale).device(devices.front())(data, 2.0f);
  eval(scale).device(devices.back())(data, 2.0f);
  snap = profile();
  EXPECT_EQ(snap.kernel_cache_hits, 2u);
  EXPECT_EQ(snap.kernels_built, 2u);
}

TEST_F(KernelCacheTest, PurgeForcesAMiss) {
  Array<float, 1> data(64);
  eval(scale)(data, 2.0f);
  eval(scale)(data, 2.0f);
  purge_kernel_cache();
  eval(scale)(data, 2.0f);
  const auto snap = profile();
  EXPECT_EQ(snap.kernel_cache_misses, 2u);
  EXPECT_EQ(snap.kernel_cache_hits, 1u);
  EXPECT_EQ(snap.kernels_built, 2u);
}

TEST_F(KernelCacheTest, ProfilerRegistryTracksLaunchesAndHits) {
  Array<float, 1> data(64);
  eval(scale)(data, 2.0f);
  eval(scale)(data, 2.0f);
  eval(scale)(data, 2.0f);

  const auto kernels = kernel_profiles();
  ASSERT_EQ(kernels.size(), 1u);
  EXPECT_EQ(kernels[0].launches, 3u);
  EXPECT_EQ(kernels[0].cache_hits, 2u);
  EXPECT_EQ(kernels[0].builds, 1u);
  EXPECT_GT(kernels[0].sim.total_s, 0.0);
}

// A kernel re-captured after a purge gets its old generated name back, so
// the profiler registry keeps one row per (kernel, device) instead of
// growing by one row per purge.
TEST_F(KernelCacheTest, PurgedKernelsKeepTheirNamesAndProfilerRows) {
  Array<float, 1> x(64), y(64);
  for (int round = 0; round < 50; ++round) {
    purge_kernel_cache();
    eval(saxpy)(y, x, 1.0f);
    eval(scale)(x, 2.0f);
  }
  const auto kernels = kernel_profiles();
  ASSERT_EQ(kernels.size(), 2u);
  for (const auto& k : kernels) {
    EXPECT_EQ(k.kernel.rfind("hpl_kernel_", 0), 0u) << k.kernel;
    EXPECT_EQ(k.launches, 50u) << k.kernel;
    EXPECT_EQ(k.builds, 50u) << k.kernel;
  }
  EXPECT_NE(kernels[0].kernel, kernels[1].kernel);
  const std::string report = profiler_report();
  for (const auto& k : kernels) {
    std::size_t rows = 0;
    for (std::size_t at = report.find(k.kernel); at != std::string::npos;
         at = report.find(k.kernel, at + 1)) {
      ++rows;
    }
    EXPECT_EQ(rows, 1u) << k.kernel << "\n" << report;
  }
}

TEST_F(KernelCacheTest, UnchangedBuildOptionsKeepTheCacheWarm) {
  // Regression: set_kernel_build_options used to purge the whole binary
  // cache even when the options string was identical to the current one,
  // turning every configuration-refresh call site into a rebuild storm.
  Array<float, 1> x(64), y(64);

  set_kernel_build_options("");
  eval(saxpy)(y, x, 1.0f);  // cold: miss
  set_kernel_build_options("");  // unchanged: must NOT purge
  eval(saxpy)(y, x, 1.0f);
  auto snap = profile();
  EXPECT_EQ(snap.kernel_cache_misses, 1u);
  EXPECT_EQ(snap.kernel_cache_hits, 1u);

  set_kernel_build_options("-cl-opt-disable");  // changed: purges
  eval(saxpy)(y, x, 1.0f);
  set_kernel_build_options("-cl-opt-disable");  // unchanged again
  eval(saxpy)(y, x, 1.0f);
  snap = profile();
  EXPECT_EQ(snap.kernel_cache_misses, 2u);
  EXPECT_EQ(snap.kernel_cache_hits, 2u);
  EXPECT_EQ(snap.kernels_built, 2u);

  set_kernel_build_options("");  // leave global state as found
}

}  // namespace
