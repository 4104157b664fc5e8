// Co-execution differential tests.
//
// Two layers:
//  * CoexecDispatcher — the chunk scheduler in isolation, driven by fake
//    launches with hand-picked simulated durations: partition shapes,
//    coverage, determinism, and the load-balancing direction of the
//    dynamic/guided policies.
//  * CoexecDifferential — full-stack: reduction, transpose and the stencil
//    family split across {2,3} simulated devices must be BIT-IDENTICAL to
//    the single-device run for every policy, and the profile counters must
//    reconcile exactly with the chunk plan the dispatcher reports.
//  * CoexecTrap — a chunk that traps surfaces exactly once, in both
//    pipeline modes, and leaves the runtime usable.

#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "benchsuite/reduction.hpp"
#include "benchsuite/stencil.hpp"
#include "benchsuite/transpose.hpp"
#include "clc/vm.hpp"
#include "clsim/runtime.hpp"
#include "coexec/coexec.hpp"
#include "hpl/HPL.h"
#include "support/error.hpp"

namespace bs = hplrepro::benchsuite;
namespace clsim = hplrepro::clsim;
namespace coexec = hplrepro::coexec;

namespace {

const coexec::Policy kPolicies[] = {
    coexec::Policy::Static, coexec::Policy::Dynamic, coexec::Policy::Guided};

/// Two fast+slow GPUs; three adds the host CPU.
std::vector<HPL::Device> device_set(int n) {
  std::vector<HPL::Device> ds;
  ds.push_back(*HPL::Device::by_name("Tesla"));
  ds.push_back(*HPL::Device::by_name("Quadro"));
  if (n >= 3) ds.push_back(HPL::Device::cpu_device());
  return ds;
}

/// Every group in [0, total) covered exactly once by contiguous chunks.
void expect_exact_coverage(const coexec::DispatchResult& result,
                           std::size_t total) {
  std::vector<coexec::Chunk> chunks = result.chunks;
  std::sort(chunks.begin(), chunks.end(),
            [](const coexec::Chunk& a, const coexec::Chunk& b) {
              return a.begin < b.begin;
            });
  std::size_t cursor = 0;
  for (const auto& chunk : chunks) {
    EXPECT_EQ(chunk.begin, cursor);
    EXPECT_GT(chunk.count, 0u);
    cursor += chunk.count;
  }
  EXPECT_EQ(cursor, total);
  EXPECT_EQ(result.total, total);
}

// ---------------------------------------------------------------------------
// Dispatcher units (fake launches, no HPL runtime)
// ---------------------------------------------------------------------------

TEST(CoexecDispatcher, StaticPartitionsContiguously) {
  std::vector<coexec::Chunk> seen;
  auto launch = [&](const coexec::Chunk& chunk) {
    seen.push_back(chunk);
    return [] { return 1.0; };
  };
  const auto result = coexec::dispatch(coexec::Policy::Static, 10, 3, launch);
  ASSERT_EQ(result.chunks.size(), 3u);
  EXPECT_EQ(result.chunks[0].slot, 0);
  EXPECT_EQ(result.chunks[0].begin, 0u);
  EXPECT_EQ(result.chunks[0].count, 4u);  // 10 = 4 + 3 + 3
  EXPECT_EQ(result.chunks[1].begin, 4u);
  EXPECT_EQ(result.chunks[1].count, 3u);
  EXPECT_EQ(result.chunks[2].begin, 7u);
  EXPECT_EQ(result.chunks[2].count, 3u);
  expect_exact_coverage(result, 10);
  ASSERT_EQ(seen.size(), 3u);  // one launch per chunk
}

TEST(CoexecDispatcher, StaticSkipsIdleSlotsWhenWorkIsScarce) {
  const auto result = coexec::dispatch(
      coexec::Policy::Static, 2, 4,
      [](const coexec::Chunk&) { return [] { return 1.0; }; });
  EXPECT_EQ(result.chunks.size(), 2u);  // slots 2 and 3 get nothing
  expect_exact_coverage(result, 2);
}

TEST(CoexecDispatcher, RejectsDegenerateInputs) {
  auto noop = [](const coexec::Chunk&) { return [] { return 0.0; }; };
  EXPECT_THROW(coexec::dispatch(coexec::Policy::Static, 0, 2, noop),
               hplrepro::InvalidArgument);
  EXPECT_THROW(coexec::dispatch(coexec::Policy::Dynamic, 8, 0, noop),
               hplrepro::InvalidArgument);
}

TEST(CoexecDispatcher, DynamicBiasesTowardTheFastSlot) {
  // Slot 0 is 10x faster; with fixed-size chunks it must take the large
  // majority of the work, and the makespan must land far below the
  // slowest-does-half static bound.
  const double per_group[] = {1.0, 10.0};
  auto launch = [&](const coexec::Chunk& chunk) {
    const double dur =
        per_group[chunk.slot] * static_cast<double>(chunk.count);
    return [dur] { return dur; };
  };
  const auto result =
      coexec::dispatch(coexec::Policy::Dynamic, 128, 2, launch);
  expect_exact_coverage(result, 128);
  std::size_t fast_groups = 0;
  for (const auto& chunk : result.chunks) {
    if (chunk.slot == 0) fast_groups += chunk.count;
  }
  EXPECT_GT(fast_groups, 100u);
  EXPECT_LT(result.makespan(), 0.5 * 64.0 * 10.0);
}

TEST(CoexecDispatcher, GuidedChunksDecayAndCover) {
  auto launch = [](const coexec::Chunk& chunk) {
    const double dur = static_cast<double>(chunk.count);
    return [dur] { return dur; };
  };
  const auto result =
      coexec::dispatch(coexec::Policy::Guided, 256, 2, launch);
  expect_exact_coverage(result, 256);
  // First chunk is remaining/(2*slots) = 64; late chunks decay down to
  // the per-slot floor (total/(8*slots) = 16 under uniform weights) that
  // keeps the tail from being eaten by per-launch overhead.
  EXPECT_EQ(result.chunks.front().count, 64u);
  EXPECT_LE(result.chunks.back().count, 16u);
  EXPECT_LT(result.chunks.back().count, result.chunks.front().count);
  EXPECT_GT(result.chunks.size(), 4u);
}

TEST(CoexecDispatcher, GuidedWeightsScaleChunksByComputingPower) {
  // Slot 0 carries 99x the computing power: chunk sizes follow the
  // weights, so the slow slot is never primed with a huge chunk.
  const double per_group[] = {1.0, 99.0};
  auto launch = [&](const coexec::Chunk& chunk) {
    const double dur =
        per_group[chunk.slot] * static_cast<double>(chunk.count);
    return [dur] { return dur; };
  };
  const auto result = coexec::dispatch(coexec::Policy::Guided, 512, 2,
                                       launch, {99.0, 1.0});
  expect_exact_coverage(result, 512);
  std::size_t first_slow = 0;
  std::size_t slow_groups = 0;
  for (const auto& chunk : result.chunks) {
    if (chunk.slot != 1) continue;
    if (first_slow == 0) first_slow = chunk.count;
    slow_groups += chunk.count;
  }
  // Slow slot's opening chunk is its weighted share (a couple of
  // groups), nowhere near the ~65 an unweighted guided prime would
  // hand it.
  EXPECT_GT(slow_groups, 0u);
  EXPECT_LE(first_slow, 8u);
  // Ideal makespan is 512/(1 + 1/99) = 506.9; unweighted priming would
  // park >= 64 groups on the slow slot for a makespan >= 6336.
  EXPECT_LT(result.makespan(), 1000.0);
}

TEST(CoexecDispatcher, RejectsMalformedWeights) {
  auto noop = [](const coexec::Chunk&) { return [] { return 1.0; }; };
  EXPECT_THROW(
      coexec::dispatch(coexec::Policy::Guided, 8, 2, noop, {1.0}),
      hplrepro::InvalidArgument);
  EXPECT_THROW(
      coexec::dispatch(coexec::Policy::Guided, 8, 2, noop, {1.0, 0.0}),
      hplrepro::InvalidArgument);
}

TEST(CoexecDispatcher, PlanIsDeterministic) {
  auto launch = [](const coexec::Chunk& chunk) {
    const double dur = (chunk.slot == 0 ? 2.0 : 3.0) *
                       static_cast<double>(chunk.count);
    return [dur] { return dur; };
  };
  const auto a = coexec::dispatch(coexec::Policy::Guided, 100, 3, launch);
  const auto b = coexec::dispatch(coexec::Policy::Guided, 100, 3, launch);
  ASSERT_EQ(a.chunks.size(), b.chunks.size());
  for (std::size_t i = 0; i < a.chunks.size(); ++i) {
    EXPECT_EQ(a.chunks[i].slot, b.chunks[i].slot);
    EXPECT_EQ(a.chunks[i].begin, b.chunks[i].begin);
    EXPECT_EQ(a.chunks[i].count, b.chunks[i].count);
  }
}

TEST(CoexecDispatcher, LastDispatchReturnsThePlan) {
  const auto result = coexec::dispatch(
      coexec::Policy::Dynamic, 32, 2,
      [](const coexec::Chunk&) { return [] { return 1.0; }; });
  const auto last = coexec::last_dispatch();
  EXPECT_EQ(last.policy, coexec::Policy::Dynamic);
  EXPECT_EQ(last.total, 32u);
  EXPECT_EQ(last.chunks.size(), result.chunks.size());
  EXPECT_EQ(last.makespan(), result.makespan());
}

// ---------------------------------------------------------------------------
// Full-stack differentials: split == single device, bit for bit
// ---------------------------------------------------------------------------

class CoexecDifferential : public ::testing::Test {
protected:
  void SetUp() override { HPL::reset_profile(); }
};

TEST_F(CoexecDifferential, ReductionMatchesSingleDeviceBitExact) {
  bs::ReductionConfig config;
  config.elements = 1 << 16;
  config.groups = 64;
  config.local_size = 128;
  const double want =
      bs::reduction_hpl(config, *HPL::Device::by_name("Tesla")).sum;
  for (const int n : {2, 3}) {
    for (const auto policy : kPolicies) {
      bs::ReductionConfig split = config;
      split.coexec_devices = device_set(n);
      split.coexec_policy = policy;
      const double got =
          bs::reduction_hpl(split, HPL::Device::default_device()).sum;
      EXPECT_EQ(want, got) << n << " devices, policy "
                           << coexec::policy_name(policy);
    }
  }
}

TEST_F(CoexecDifferential, TransposeMatchesSingleDeviceBitExact) {
  bs::TransposeConfig config;
  config.rows = 128;
  config.cols = 128;
  const std::vector<float> want =
      bs::transpose_hpl(config, *HPL::Device::by_name("Tesla")).output;
  for (const int n : {2, 3}) {
    for (const auto policy : kPolicies) {
      bs::TransposeConfig split = config;
      split.coexec_devices = device_set(n);
      split.coexec_policy = policy;
      const auto got =
          bs::transpose_hpl(split, HPL::Device::default_device()).output;
      EXPECT_TRUE(want == got) << n << " devices, policy "
                               << coexec::policy_name(policy);
    }
  }
}

TEST_F(CoexecDifferential, StencilFamilyMatchesSingleDeviceBitExact) {
  bs::StencilConfig config;
  config.width = 64;
  config.height = 64;
  config.iterations = 3;
  const HPL::Device tesla = *HPL::Device::by_name("Tesla");
  const std::vector<float> want_blur = bs::blur_hpl(config, tesla).output;
  const std::vector<float> want_sobel = bs::sobel_hpl(config, tesla).output;
  const std::vector<float> want_jacobi = bs::jacobi_hpl(config, tesla).output;
  for (const int n : {2, 3}) {
    for (const auto policy : kPolicies) {
      bs::StencilConfig split = config;
      split.coexec_devices = device_set(n);
      split.coexec_policy = policy;
      const HPL::Device unused = HPL::Device::default_device();
      EXPECT_TRUE(want_blur == bs::blur_hpl(split, unused).output)
          << "blur, " << n << " devices, "
          << coexec::policy_name(policy);
      EXPECT_TRUE(want_sobel == bs::sobel_hpl(split, unused).output)
          << "sobel, " << n << " devices, "
          << coexec::policy_name(policy);
      EXPECT_TRUE(want_jacobi == bs::jacobi_hpl(split, unused).output)
          << "jacobi, " << n << " devices, "
          << coexec::policy_name(policy);
    }
  }
}

TEST_F(CoexecDifferential, WrapEdgesFallBackToWholeArrayReadsCorrectly) {
  // Wrap reaches the opposite image border, outside any row halo: the
  // benchsuite disables read narrowing there, and the result must still
  // match the single-device run exactly.
  bs::StencilConfig config;
  config.width = 40;
  config.height = 40;
  config.edge = bs::EdgePolicy::Wrap;
  config.iterations = 2;
  const std::vector<float> want =
      bs::jacobi_hpl(config, *HPL::Device::by_name("Tesla")).output;
  bs::StencilConfig split = config;
  split.coexec_devices = device_set(2);
  split.coexec_policy = coexec::Policy::Dynamic;
  EXPECT_TRUE(want ==
              bs::jacobi_hpl(split, HPL::Device::default_device()).output);
}

TEST_F(CoexecDifferential, LaunchAndCacheCountersMatchTheChunkPlan) {
  bs::TransposeConfig config;
  config.rows = 128;
  config.cols = 128;
  config.coexec_devices = device_set(2);
  config.coexec_policy = coexec::Policy::Dynamic;

  HPL::purge_kernel_cache();
  HPL::reset_profile();
  bs::transpose_hpl(config, HPL::Device::default_device());

  const auto plan = coexec::last_dispatch();
  const auto prof = HPL::profile();
  expect_exact_coverage(plan, 128 / bs::TransposeConfig::kTile);

  // Every chunk is a full mini-eval: one launch, one cache-hit/miss tick.
  EXPECT_EQ(prof.kernel_launches, plan.chunks.size());
  EXPECT_EQ(prof.kernel_cache_hits + prof.kernel_cache_misses,
            prof.kernel_launches);
  // Cold cache: exactly one build (miss) per device the plan touched.
  std::set<int> slots;
  for (const auto& chunk : plan.chunks) slots.insert(chunk.slot);
  EXPECT_EQ(prof.kernel_cache_misses, slots.size());
}

TEST_F(CoexecDifferential, JacobiHaloMergeStaysOffTheHost) {
  // Ping-pong iterations leave each device holding a disjoint band; the
  // next sweep's halo rows must arrive by direct device-to-device copy,
  // not through a host round-trip.
  bs::StencilConfig config;
  config.width = 64;
  config.height = 64;
  config.iterations = 4;
  config.coexec_devices = device_set(2);
  config.coexec_policy = coexec::Policy::Static;

  HPL::reset_profile();
  bs::jacobi_hpl(config, HPL::Device::default_device());
  const auto prof = HPL::profile();
  EXPECT_GT(prof.bytes_device_to_device, 0u);
  // d2h happens once, at the final result read-back — not per merge.
  EXPECT_LE(prof.bytes_to_host,
            static_cast<std::uint64_t>(config.pixels() * sizeof(float)));
}

TEST_F(CoexecDifferential, SingleEntryDeviceListDegeneratesToPlainEval) {
  bs::ReductionConfig config;
  config.elements = 1 << 12;
  config.groups = 16;
  config.local_size = 64;
  const double want =
      bs::reduction_hpl(config, *HPL::Device::by_name("Tesla")).sum;
  bs::ReductionConfig single = config;
  single.coexec_devices = {*HPL::Device::by_name("Tesla")};
  HPL::reset_profile();
  const double got =
      bs::reduction_hpl(single, HPL::Device::default_device()).sum;
  EXPECT_EQ(want, got);
  EXPECT_EQ(HPL::profile().kernel_launches, 1u);  // no split happened
}

// ---------------------------------------------------------------------------
// Error path: a trapping chunk surfaces once and leaves the runtime usable
// ---------------------------------------------------------------------------

// Traps at execution time in every group: work-items diverge at a barrier.
void divergent(HPL::Array<float, 1> data) {
  using namespace HPL;
  if_(lidx < 2) { barrier(LOCAL); } endif_
  data[idx] = 1.0f;
}

void triple(HPL::Array<float, 1> data) {
  using namespace HPL;
  data[idx] = 3.0f * data[idx];
}

class CoexecTrap
    : public ::testing::TestWithParam<std::tuple<bool, coexec::Policy>> {
protected:
  void TearDown() override { clsim::set_async_enabled(true); }
};

TEST_P(CoexecTrap, ChunkTrapSurfacesOnceAndRuntimeStaysUsable) {
  const auto [async, policy] = GetParam();
  clsim::set_async_enabled(async);
  HPL::purge_kernel_cache();
  HPL::reset_profile();
  constexpr std::size_t n = 64;  // 16 groups of 4

  int traps = 0;
  {
    HPL::Array<float, 1> bad(n);
    try {
      HPL::eval(divergent).global(n).local(4).devices(device_set(2)).policy(
          policy)(bad);
    } catch (const hplrepro::clc::TrapError&) {
      ++traps;
    }
  }
  EXPECT_EQ(traps, 1) << "the failed eval itself must report the trap";
  // Every chunk's queue error was consumed with the one report above.
  for (int i = 0; i < 2; ++i) {
    EXPECT_NO_THROW(HPL::detail::Runtime::get().finish_all()) << i;
  }

  const auto snap = HPL::profile();
  EXPECT_GT(snap.kernel_launches, 0u);
  EXPECT_EQ(snap.kernel_cache_hits + snap.kernel_cache_misses,
            snap.kernel_launches);
  std::uint64_t registry_launches = 0;
  for (const auto& k : HPL::kernel_profiles()) registry_launches += k.launches;
  EXPECT_EQ(registry_launches, snap.kernel_launches);

  HPL::Array<float, 1> data(n);
  for (std::size_t i = 0; i < n; ++i) data(i) = static_cast<float>(i) + 0.5f;
  HPL::eval(triple).devices(device_set(2)).policy(policy)(data);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(data(i), 3.0f * (static_cast<float>(i) + 0.5f)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SyncAsyncByPolicy, CoexecTrap,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(coexec::Policy::Static,
                                         coexec::Policy::Guided)),
    [](const ::testing::TestParamInfo<CoexecTrap::ParamType>& info) {
      return std::string(std::get<0>(info.param) ? "Async" : "Sync") +
             (std::get<1>(info.param) == coexec::Policy::Static ? "Static"
                                                                : "Guided");
    });

}  // namespace
