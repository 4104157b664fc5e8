// Lazy-DAG kernel fusion (ROADMAP item 3): differential tests pinning the
// core guarantee — with fusion on, chained evals produce bit-identical
// results to the eager sequence while launching strictly fewer kernels, and
// the coherence marks (RangeSet validity per copy) end up identical. Plus a
// sabotage self-test proving the differential harness would catch a wrong
// rewrite, deferred-error semantics, and the fusion metrics counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "clsim/runtime.hpp"
#include "hpl/HPL.h"
#include "support/metrics.hpp"

using namespace HPL;

namespace clsim = hplrepro::clsim;
namespace metrics = hplrepro::metrics;

namespace {

// --- Kernels -------------------------------------------------------------------

void plus_one(Array<float, 1> out, Array<float, 1> in) {
  out[idx] = in[idx] + 1.0f;
}

void times_two(Array<float, 1> out, Array<float, 1> in) {
  out[idx] = in[idx] * 2.0f;
}

void transpose_k(Array<float, 2> out, Array<float, 2> in) {
  out[idx][idy] = in[idy][idx];
}

void twod_times_two(Array<float, 2> out, Array<float, 2> in) {
  out[idx][idy] = in[idy][idx] * 2.0f;
}

// Two statements: never eligible for fusion (not a simple map).
void two_statements(Array<float, 1> data) {
  data[idx] = data[idx] + 1.0f;
  data[idx] = data[idx] * 3.0f;
}

class FusionTest : public ::testing::Test {
protected:
  void SetUp() override {
    clsim::set_async_enabled(true);
    set_fusion_enabled(true);
    purge_kernel_cache();
    reset_profile();
  }
  void TearDown() override {
    detail::set_fusion_sabotage_for_test(false);
    set_fusion_enabled(true);
    set_kernel_build_options("");
    clsim::set_async_enabled(true);
  }
};

/// Output + launch count of one run of `body` (which evals and then reads
/// its results, forcing the flush itself).
struct RunResult {
  std::vector<float> out;
  std::uint64_t launches = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

template <typename Body>
RunResult run_case(bool fused, Body&& body) {
  set_fusion_enabled(fused);
  purge_kernel_cache();
  reset_profile();
  RunResult r;
  r.out = body();
  const ProfileSnapshot snap = profile();
  r.launches = snap.kernel_launches;
  r.hits = snap.kernel_cache_hits;
  r.misses = snap.kernel_cache_misses;
  set_fusion_enabled(true);
  return r;
}

void expect_bit_identical(const RunResult& fused, const RunResult& unfused) {
  ASSERT_EQ(fused.out.size(), unfused.out.size());
  for (std::size_t i = 0; i < fused.out.size(); ++i) {
    ASSERT_EQ(fused.out[i], unfused.out[i]) << "element " << i;
  }
}

// --- Map-map fusion ------------------------------------------------------------

TEST_F(FusionTest, MapChainFusesIntoOneLaunch) {
  constexpr std::size_t n = 512;
  auto body = [&] {
    Array<float, 1> a(n), t(n), out(n);
    iota(a);
    eval(plus_one)(t, a);
    eval(times_two)(out, t);
    std::vector<float> result(n);
    for (std::size_t i = 0; i < n; ++i) result[i] = out.get(i);
    return result;
  };
  const RunResult unfused = run_case(false, body);
  const RunResult fused = run_case(true, body);

  EXPECT_EQ(unfused.launches, 3u);
  EXPECT_EQ(fused.launches, 1u);  // iota + both maps merge
  expect_bit_identical(fused, unfused);
  // The cache invariant holds in both modes.
  EXPECT_EQ(unfused.hits + unfused.misses, unfused.launches);
  EXPECT_EQ(fused.hits + fused.misses, fused.launches);
  EXPECT_EQ(fused.out[5], (5.0f + 1.0f) * 2.0f);
}

TEST_F(FusionTest, FusedChainIsACacheHitOnRepeat) {
  constexpr std::size_t n = 128;
  Array<float, 1> a(n), t(n), out(n);
  for (int round = 0; round < 3; ++round) {
    iota(a);
    eval(plus_one)(t, a);
    eval(times_two)(out, t);
    ASSERT_EQ(out.get(7), 16.0f) << "round " << round;
  }
  const ProfileSnapshot snap = profile();
  // Same chain flushed thrice: one synthesized kernel, built once.
  EXPECT_EQ(snap.kernel_launches, 3u);
  EXPECT_EQ(snap.kernels_built, 1u);
  EXPECT_EQ(snap.kernel_cache_misses, 1u);
  EXPECT_EQ(snap.kernel_cache_hits, 2u);
}

TEST_F(FusionTest, DeadTemporaryIsEliminated) {
  constexpr std::size_t n = 256;
  auto body = [&] {
    Array<float, 1> a(n);
    fill(a, 1.0f);  // fully overwritten below, never read
    fill(a, 2.0f);
    std::vector<float> result(n);
    for (std::size_t i = 0; i < n; ++i) result[i] = a.get(i);
    return result;
  };
  const RunResult unfused = run_case(false, body);
  const RunResult fused = run_case(true, body);
  EXPECT_EQ(unfused.launches, 2u);
  EXPECT_EQ(fused.launches, 1u);
  expect_bit_identical(fused, unfused);
  EXPECT_EQ(fused.out[0], 2.0f);
}

// --- Map-reduce fusion ---------------------------------------------------------

TEST_F(FusionTest, MapFeedingReduceFusesIntoOnePass) {
  constexpr std::size_t n = 4096;
  auto body = [&] {
    Array<float, 1> a(n);
    fill(a, 1.5f);
    return std::vector<float>{reduce_sum(a)};
  };
  const RunResult unfused = run_case(false, body);
  const RunResult fused = run_case(true, body);
  EXPECT_EQ(unfused.launches, 2u);
  EXPECT_EQ(fused.launches, 1u);  // fill inlined into the reduction loop
  expect_bit_identical(fused, unfused);
  EXPECT_EQ(fused.out[0], 1.5f * static_cast<float>(n));
}

TEST_F(FusionTest, TwoProducersFeedingDotFuseIntoOnePass) {
  constexpr std::size_t n = 2048;
  auto body = [&] {
    Array<float, 1> a(n), b(n);
    iota(a);
    fill(b, 2.0f);
    return std::vector<float>{dot(a, b)};
  };
  const RunResult unfused = run_case(false, body);
  const RunResult fused = run_case(true, body);
  EXPECT_EQ(unfused.launches, 3u);
  EXPECT_EQ(fused.launches, 1u);  // iota + fill + dot in one pass
  expect_bit_identical(fused, unfused);
}

// --- Transpose sinking ---------------------------------------------------------

TEST_F(FusionTest, TransposeSinksIntoConsumer) {
  constexpr std::size_t n = 24;  // square, as the rule requires
  auto body = [&] {
    Array<float, 2> src(n, n), t(n, n), out(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        src(i, j) = static_cast<float>(i * n + j);
      }
    }
    eval(transpose_k)(t, src);     // t = src^T
    eval(twod_times_two)(out, t);  // out = 2 * t^T (= 2 * src)
    std::vector<float> result;
    result.reserve(n * n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) result.push_back(out(i, j));
    }
    return result;
  };
  const RunResult unfused = run_case(false, body);
  const RunResult fused = run_case(true, body);
  EXPECT_EQ(unfused.launches, 2u);
  EXPECT_EQ(fused.launches, 1u);
  expect_bit_identical(fused, unfused);
  EXPECT_EQ(fused.out[n + 2], 2.0f * static_cast<float>(n + 2));
}

// --- Legality guards -----------------------------------------------------------

TEST_F(FusionTest, MismatchedRangesDoNotFuse) {
  auto body = [&] {
    Array<float, 1> a(256), b(128);
    fill(a, 1.0f);
    fill(b, 2.0f);  // different NDRange: must stay separate
    return std::vector<float>{a.get(0), b.get(0)};
  };
  const RunResult fused = run_case(true, body);
  EXPECT_EQ(fused.launches, 2u);
  EXPECT_EQ(fused.out[0], 1.0f);
  EXPECT_EQ(fused.out[1], 2.0f);
}

TEST_F(FusionTest, MultiStatementKernelsDoNotFuse) {
  auto body = [&] {
    Array<float, 1> a(64);
    fill(a, 1.0f);
    eval(two_statements)(a);  // not a simple map: closes the group
    eval(two_statements)(a);
    std::vector<float> result(64);
    for (std::size_t i = 0; i < 64; ++i) result[i] = a.get(i);
    return result;
  };
  const RunResult unfused = run_case(false, body);
  const RunResult fused = run_case(true, body);
  EXPECT_EQ(unfused.launches, 3u);
  EXPECT_EQ(fused.launches, 3u);
  expect_bit_identical(fused, unfused);
  EXPECT_EQ(fused.out[0], 21.0f);  // ((1+1)*3+1)*3
}

TEST_F(FusionTest, InterveningReadForcesTheProducer) {
  // A host read between two fusable evals is a forcing point: the first
  // eval must have launched by the time the read returns.
  Array<float, 1> a(128), t(128);
  fill(a, 3.0f);
  EXPECT_EQ(a.get(0), 3.0f);  // forces the fill
  EXPECT_EQ(profile().kernel_launches, 1u);
  eval(plus_one)(t, a);
  EXPECT_EQ(t.get(0), 4.0f);
  EXPECT_EQ(profile().kernel_launches, 2u);
}

// --- Coherence identity --------------------------------------------------------

TEST_F(FusionTest, RangeSetValidityMatchesUnfusedSequence) {
  constexpr std::size_t n = 256;
  auto marks = [](Array<float, 1>& arr) {
    std::vector<detail::ByteRange> out;
    out.insert(out.end(), arr.impl()->host_valid.runs().begin(),
               arr.impl()->host_valid.runs().end());
    for (const auto& [spec, copy] : arr.impl()->copies) {
      out.insert(out.end(), copy.valid.runs().begin(),
                 copy.valid.runs().end());
    }
    return out;
  };

  std::vector<std::vector<detail::ByteRange>> per_mode;
  for (const bool fused : {false, true}) {
    set_fusion_enabled(fused);
    purge_kernel_cache();
    reset_profile();
    Array<float, 1> a(n), t(n), out(n);
    iota(a);
    eval(plus_one)(t, a);
    eval(times_two)(out, t);
    (void)out.get(0);  // force + sync the output
    detail::Runtime::get().finish_all();
    // Every copy of every array (including the intermediate, whose store
    // fusion keeps) must carry identical validity marks in both modes.
    std::vector<detail::ByteRange> all;
    for (Array<float, 1>* arr : {&a, &t, &out}) {
      const auto m = marks(*arr);
      all.insert(all.end(), m.begin(), m.end());
    }
    per_mode.push_back(std::move(all));
  }
  ASSERT_EQ(per_mode[0].size(), per_mode[1].size());
  for (std::size_t i = 0; i < per_mode[0].size(); ++i) {
    EXPECT_EQ(per_mode[0][i], per_mode[1][i]) << "mark " << i;
  }
}

// --- The full configuration matrix ---------------------------------------------

TEST_F(FusionTest, FusedMatchesUnfusedAcrossInterpAndOptAndSyncMatrix) {
  constexpr std::size_t n = 1024;
  auto body = [&] {
    Array<float, 1> a(n), t(n), out(n), b(n);
    iota(a);
    eval(plus_one)(t, a);
    eval(times_two)(out, t);
    fill(b, 0.5f);
    const float d = dot(out, b);
    std::vector<float> result(n);
    for (std::size_t i = 0; i < n; ++i) result[i] = out.get(i);
    result.push_back(d);
    return result;
  };

  for (const bool async : {true, false}) {
    for (const char* opts : {"-O0", "-O2"}) {
      for (const char* interp : {"stack", "threaded"}) {
        SCOPED_TRACE(std::string(interp) + " " + opts +
                     (async ? " async" : " sync"));
        clsim::set_async_enabled(async);
        set_kernel_build_options(std::string("-cl-interp=") + interp + " " +
                                 opts);
        const RunResult unfused = run_case(false, body);
        const RunResult fused = run_case(true, body);
        // The map group (iota/+1/*2/fill) inlines into the dot's reduction
        // loop: the whole 5-launch chain becomes a single pass.
        EXPECT_EQ(unfused.launches, 5u);
        EXPECT_EQ(fused.launches, 1u);
        expect_bit_identical(fused, unfused);
      }
    }
  }
}

// --- Sabotage self-test --------------------------------------------------------

TEST_F(FusionTest, SabotagedRewriteIsCaughtByTheDifferential) {
  // Deliberately mis-synthesize map-map fusion (+1 on the fused temporary)
  // and check the differential harness actually trips on it. A rewrite bug
  // must never survive this suite silently.
  constexpr std::size_t n = 64;
  auto body = [&] {
    Array<float, 1> a(n), t(n), out(n);
    fill(a, 1.0f);
    eval(plus_one)(t, a);
    eval(times_two)(out, t);
    std::vector<float> result(n);
    for (std::size_t i = 0; i < n; ++i) result[i] = out.get(i);
    return result;
  };
  const RunResult unfused = run_case(false, body);

  detail::set_fusion_sabotage_for_test(true);
  const RunResult fused = run_case(true, body);
  detail::set_fusion_sabotage_for_test(false);

  EXPECT_LT(fused.launches, unfused.launches);  // it did fuse...
  std::size_t mismatches = 0;
  ASSERT_EQ(fused.out.size(), unfused.out.size());
  for (std::size_t i = 0; i < fused.out.size(); ++i) {
    if (fused.out[i] != unfused.out[i]) ++mismatches;
  }
  EXPECT_GT(mismatches, 0u) << "sabotaged rewrite went undetected — the "
                               "differential would miss real fusion bugs";

  // And with the sabotage off the same chain is bit-identical again.
  const RunResult clean = run_case(true, body);
  expect_bit_identical(clean, unfused);
}

// --- Error semantics and toggles -----------------------------------------------

TEST_F(FusionTest, DeferredLaunchErrorSurfacesAtForcingPoint) {
  Array<float, 1> out(10);
  // global 10 % local 3 != 0: the eager path throws from eval() itself;
  // deferred, the record succeeds and the error surfaces at the flush.
  EXPECT_NO_THROW(eval(times_two).global(10).local(3)(out, out));
  EXPECT_THROW(flush(), hplrepro::Error);
  // The failed batch is consumed: the next flush is clean.
  EXPECT_NO_THROW(flush());
}

TEST_F(FusionTest, TrapInsideFusedKernelSurfacesOnceAtForcingPoint) {
  // The MapChainFusesIntoOneLaunch chain with a work-item fuel budget too
  // small for even the fused kernel's entry block: the single fused launch
  // traps, and the trap surfaces exactly once, at the host read that forces
  // the chain — from the flush in sync mode, from the read's wait on the
  // failed producer in async mode. Afterwards the runtime is usable, the
  // same chain is bit-identical to the unfused sequence, and the failed
  // launch is counted like any other.
  constexpr std::size_t n = 512;
  auto body = [&] {
    Array<float, 1> a(n), t(n), out(n);
    iota(a);
    eval(plus_one)(t, a);
    eval(times_two)(out, t);
    std::vector<float> result(n);
    for (std::size_t i = 0; i < n; ++i) result[i] = out.get(i);
    return result;
  };
  const RunResult unfused = run_case(false, body);
  const std::uint64_t saved_fuel = clsim::work_item_fuel();

  for (const bool async : {true, false}) {
    SCOPED_TRACE(async ? "async" : "sync");
    clsim::set_async_enabled(async);
    purge_kernel_cache();
    reset_profile();
    {
      Array<float, 1> a(n), t(n), out(n);
      iota(a);
      eval(plus_one)(t, a);
      eval(times_two)(out, t);
      clsim::set_work_item_fuel(2);
      EXPECT_THROW(out.get(0), hplrepro::clc::TrapError);
      clsim::set_work_item_fuel(saved_fuel);
      EXPECT_NO_THROW(flush());
      EXPECT_NO_THROW(detail::Runtime::get().finish_all());
    }
    const ProfileSnapshot failed = profile();
    EXPECT_EQ(failed.kernel_launches, 1u);  // the one fused launch
    EXPECT_EQ(failed.kernel_cache_hits + failed.kernel_cache_misses,
              failed.kernel_launches);

    const RunResult rerun = run_case(true, body);
    EXPECT_EQ(rerun.launches, 1u);
    expect_bit_identical(rerun, unfused);
    EXPECT_EQ(rerun.hits + rerun.misses, rerun.launches);
  }
  clsim::set_work_item_fuel(saved_fuel);
}

TEST_F(FusionTest, BuildOptionTokenDrivesTheToggle) {
  EXPECT_TRUE(fusion_enabled());
  set_kernel_build_options("-cl-fusion=off");
  EXPECT_FALSE(fusion_enabled());
  // Options without a fusion token leave the toggle alone.
  set_kernel_build_options("-O2");
  EXPECT_FALSE(fusion_enabled());
  set_kernel_build_options("-O2 -cl-fusion=on");
  EXPECT_TRUE(fusion_enabled());
  set_kernel_build_options("");
  EXPECT_TRUE(fusion_enabled());
}

TEST_F(FusionTest, ScopedDisableRestoresAndFlushes) {
  Array<float, 1> a(32);
  fill(a, 1.0f);  // deferred
  {
    ScopedFusionDisable off;
    EXPECT_FALSE(fusion_enabled());
    // Entering the scope flushed the pending fill.
    EXPECT_EQ(profile().kernel_launches, 1u);
  }
  EXPECT_TRUE(fusion_enabled());
}

// --- Metrics counters ----------------------------------------------------------

TEST_F(FusionTest, FusionCountersReconcile) {
  metrics::set_enabled(true);
  metrics::reset();
  constexpr std::size_t n = 512;
  Array<float, 1> a(n), t(n), out(n);
  iota(a);
  eval(plus_one)(t, a);
  eval(times_two)(out, t);
  flush();
  metrics::set_enabled(false);

  const metrics::Snapshot snap = metrics::snapshot();
  auto value = [&](const std::string& name) -> std::uint64_t {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  EXPECT_EQ(value("fusion.dag_flushes"), 1u);
  EXPECT_EQ(value("fusion.unfused_launches"), 3u);
  EXPECT_EQ(value("fusion.actual_launches"), 1u);
  EXPECT_EQ(value("fusion.launches_saved"),
            value("fusion.unfused_launches") -
                value("fusion.actual_launches"));
  EXPECT_GE(value("fusion.rules_applied"), 2u);
  // Two intermediate loads eliminated, n floats each.
  EXPECT_EQ(value("fusion.bytes_traffic_saved"),
            2u * n * sizeof(float));
}

// --- Concurrency (TSAN food) ---------------------------------------------------

TEST_F(FusionTest, ConcurrentChainsAndFlushesAreSafe) {
  constexpr std::size_t n = 256;
  constexpr int kIters = 25;
  auto worker = [&](float seed, std::vector<float>& sink) {
    Array<float, 1> a(n), t(n), out(n);
    for (int i = 0; i < kIters; ++i) {
      fill(a, seed);
      eval(plus_one)(t, a);
      eval(times_two)(out, t);
      sink.push_back(out.get(static_cast<std::size_t>(i) % n));
    }
  };
  std::vector<float> got1, got2;
  std::thread t1([&] { worker(1.0f, got1); });
  std::thread t2([&] { worker(2.0f, got2); });
  t1.join();
  t2.join();
  for (float v : got1) EXPECT_EQ(v, 4.0f);
  for (float v : got2) EXPECT_EQ(v, 6.0f);
}

}  // namespace
