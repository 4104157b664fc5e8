// The metrics layer seen from HPL: eval-latency histograms and cache
// counters reconcile with the always-on profiler, every recorded critical
// path partitions its eval's latency exactly, and the exported JSON is the
// well-formed "hplrepro-metrics-v1" document.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "clc/vm.hpp"
#include "clsim/executor.hpp"
#include "clsim/runtime.hpp"
#include "hpl/HPL.h"
#include "support/metrics.hpp"

using namespace HPL;

namespace clsim = hplrepro::clsim;
namespace metrics = hplrepro::metrics;

namespace {

void saxpy(Array<float, 1> y, Array<float, 1> x, Float a) {
  y[idx] = a * x[idx] + y[idx];
}

void triple(Array<float, 1> data) { data[idx] = 3.0f * data[idx]; }

class MetricsEvalTest : public ::testing::Test {
protected:
  void SetUp() override {
    clsim::set_async_enabled(true);
    purge_kernel_cache();
    reset_profile();
    metrics::set_enabled(true);
    metrics::reset();
  }
  void TearDown() override {
    metrics::set_enabled(false);
    clsim::set_async_enabled(true);
  }
};

std::uint64_t counter_value(const metrics::Snapshot& snap,
                            const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const metrics::HistogramSnapshot* find_hist(const metrics::Snapshot& snap,
                                            const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

void run_mixed_workload(std::uint64_t reps) {
  const Device tesla = *Device::by_name("Tesla");
  const Device quadro = *Device::by_name("Quadro");
  constexpr std::size_t n = 2048;
  Array<float, 1> a(n), b(n), xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i) = 1.0f;
    b(i) = 2.0f;
    xs(i) = 0.5f;
  }
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    eval(saxpy).device(tesla)(a, xs, 2.0f);
    eval(triple).device(quadro)(b);
  }
  detail::Runtime::get().finish_all();
}

TEST_F(MetricsEvalTest, LatencyHistogramAndCountersMatchProfiler) {
  constexpr std::uint64_t reps = 10;
  run_mixed_workload(reps);

  const ProfileSnapshot prof = profile();
  ASSERT_EQ(prof.kernel_launches, 2 * reps);

  const metrics::Snapshot snap = metrics::snapshot();
  EXPECT_EQ(counter_value(snap, "hpl.eval.launches"), prof.kernel_launches);
  EXPECT_EQ(counter_value(snap, "hpl.cache.hit"), prof.kernel_cache_hits);
  EXPECT_EQ(counter_value(snap, "hpl.cache.miss"), prof.kernel_cache_misses);

  // Every launch contributes exactly one end-to-end latency sample, and
  // the bucket counts account for all of them.
  const metrics::HistogramSnapshot* latency =
      find_hist(snap, "hpl.eval.latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, prof.kernel_launches);
  std::uint64_t bucket_sum = 0;
  for (const auto& [lo, count] : latency->buckets) bucket_sum += count;
  EXPECT_EQ(bucket_sum, latency->count);
  EXPECT_GT(latency->sum, 0.0);
  EXPECT_LE(latency->p50, latency->p99);

  // The host-side cost histogram sees the same launches.
  const metrics::HistogramSnapshot* host = find_hist(snap, "hpl.eval.host_ns");
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(host->count, prof.kernel_launches);
}

TEST_F(MetricsEvalTest, CriticalPathsPartitionEveryEvalExactly) {
  constexpr std::uint64_t reps = 8;
  run_mixed_workload(reps);

  const metrics::Snapshot snap = metrics::snapshot();
  EXPECT_EQ(snap.critical_path_totals.evals, 2 * reps);
  ASSERT_EQ(snap.critical_paths.size(), 2 * reps);

  double recent_total = 0;
  for (const metrics::CriticalPath& p : snap.critical_paths) {
    EXPECT_FALSE(p.kernel.empty());
    EXPECT_FALSE(p.device.empty());
    EXPECT_GE(p.host_prep_us, 0.0);
    EXPECT_GE(p.queue_wait_us, 0.0);
    EXPECT_GE(p.transfer_us, 0.0);
    EXPECT_GE(p.kernel_us, 0.0);
    EXPECT_NEAR(
        p.host_prep_us + p.queue_wait_us + p.transfer_us + p.kernel_us,
        p.total_us, 1e-6)
        << p.kernel << " on " << p.device;
    recent_total += p.total_us;
  }
  // With fewer evals than the recent-list bound, the running totals are
  // exactly the sum over the recent entries.
  EXPECT_NEAR(snap.critical_path_totals.total_us, recent_total, 1e-6);
}

TEST_F(MetricsEvalTest, MetricsWriteProducesSchemaDocument) {
  run_mixed_workload(4);

  const std::string path = ::testing::TempDir() + "metrics_eval_test.json";
  ASSERT_TRUE(HPL::metrics_write(path));

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string json = buffer.str();

  for (const char* needle :
       {"\"schema\": \"hplrepro-metrics-v1\"", "hpl.eval.latency_ns",
        "\"critical_path\"", "\"flight_recorder\"",
        "queue.SimTesla C2050.depth", "vm.launches"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);

  // Structurally sound: braces and brackets balance.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    else if (ch == '{') ++braces;
    else if (ch == '}') --braces;
    else if (ch == '[') ++brackets;
    else if (ch == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  EXPECT_FALSE(HPL::metrics_write("/nonexistent-dir/metrics.json"));
}

TEST_F(MetricsEvalTest, TrappedLaunchCountsOnceInEveryView) {
  // A launch that traps has reached a queue, so the ledger and the
  // registry both count it, whichever mode surfaces the trap: the enqueue
  // in sync mode, the next quiesce in async mode.
  ScopedFusionDisable eager;
  const std::uint64_t saved_fuel = clsim::work_item_fuel();
  struct FuelGuard {
    std::uint64_t fuel;
    ~FuelGuard() { clsim::set_work_item_fuel(fuel); }
  } restore{saved_fuel};
  constexpr std::size_t n = 512;

  for (const bool async : {true, false}) {
    SCOPED_TRACE(async ? "async" : "sync");
    clsim::set_async_enabled(async);
    purge_kernel_cache();
    reset_profile();
    metrics::reset();
    {
      Array<float, 1> data(n);
      for (std::size_t i = 0; i < n; ++i) data(i) = 1.0f;
      clsim::set_work_item_fuel(2);
      EXPECT_THROW(
          {
            eval(triple)(data);
            detail::Runtime::get().finish_all();
          },
          hplrepro::clc::TrapError);
      clsim::set_work_item_fuel(saved_fuel);
      EXPECT_NO_THROW(detail::Runtime::get().finish_all());
    }

    const ProfileSnapshot prof = profile();
    const metrics::Snapshot snap = metrics::snapshot();
    EXPECT_EQ(prof.kernel_launches, 1u);
    EXPECT_EQ(counter_value(snap, "hpl.eval.launches"), 1u);
    EXPECT_EQ(counter_value(snap, "hpl.cache.hit") +
                  counter_value(snap, "hpl.cache.miss"),
              1u);

    // The runtime stays usable: a follow-up eval computes normally.
    Array<float, 1> again(n);
    for (std::size_t i = 0; i < n; ++i) again(i) = 1.0f;
    EXPECT_NO_THROW(eval(triple)(again));
    EXPECT_EQ(again(n - 1), 3.0f);
  }
}

TEST_F(MetricsEvalTest, ReportIsNanFreeEvenBeforeAnyEval) {
  const std::string report = HPL::metrics_report();
  EXPECT_FALSE(report.empty());
  EXPECT_EQ(report.find("nan"), std::string::npos);
  EXPECT_EQ(report.find("inf"), std::string::npos);

  run_mixed_workload(2);
  const std::string after = HPL::metrics_report();
  EXPECT_NE(after.find("hpl.eval.latency_ns"), std::string::npos);
  EXPECT_EQ(after.find("nan"), std::string::npos);
  EXPECT_EQ(after.find("inf"), std::string::npos);
}

}  // namespace
