#ifndef HPLREPRO_SUPPORT_METRICS_HPP
#define HPLREPRO_SUPPORT_METRICS_HPP

/// \file metrics.hpp
/// Quantitative runtime metrics for the whole stack: a process-wide
/// registry of counters, gauges and log-bucketed (HDR-style) latency
/// histograms. Where trace spans (support/trace.hpp) answer "what happened
/// once", this layer answers "what is the distribution under thousands of
/// evals": p50/p90/p99/p99.9 eval latency, per-queue command dwell times,
/// cache hit rates, VM throughput.
///
/// Recording is sized to the traffic it sees. Every registered metric
/// records once per launch, command, chunk, flush or stall — never per
/// work-item or per VM op — so a few hundred records per second reach the
/// registry even on the busiest benchmark workload:
///   * a counter is one relaxed atomic, a gauge two;
///   * a histogram is one bucket block (buckets, sum, min, max), allocated
///     on its first sample, so a histogram that never records costs no
///     bucket memory;
///   * the whole layer is inert unless enabled: `enabled()` is one
///     relaxed atomic load, and every record path bails out first thing.
///
/// Enabling happens programmatically (`set_enabled` / `metrics_to`) or via
/// the `HPL_METRICS=<path>` environment variable, which also arranges for
/// the metrics JSON (schema "hplrepro-metrics-v1") to be written at
/// process exit.
///
/// Two analysis components ride on the same substrate:
///   * a **flight recorder**: a fixed-size per-thread ring buffer of the
///     most recent span begin/end marks, always on (even with metrics and
///     tracing disabled), dumped exactly once to stderr when a kernel trap
///     or deferred CL error surfaces, and embedded in the metrics JSON;
///   * a **critical-path analyzer**: `record_critical_path` partitions a
///     completed eval's latency window into host-prep / queue-wait /
///     transfer / kernel segments from the event graph's host-clock
///     windows, so the segments sum exactly to the eval latency.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hplrepro::metrics {

// --- Enable gate -------------------------------------------------------------

/// Whether metrics recording is on. A relaxed atomic load; safe and cheap
/// on hot paths. The first call reads HPL_METRICS from the environment.
bool enabled();

/// Turns recording on or off without touching the output path.
void set_enabled(bool on);

/// Enables recording and arranges for the metrics JSON to be written to
/// `path` at process exit (same as running with HPL_METRICS=<path>).
void metrics_to(const std::string& path);

/// The output path set via metrics_to / HPL_METRICS ("" if none).
std::string output_path();

/// Zeroes every registered metric and the critical-path log (tests,
/// benchmark phase boundaries). Registrations themselves are kept.
void reset();

// --- Metric types ------------------------------------------------------------

/// A monotonically increasing counter.
class Counter {
public:
  void add(std::uint64_t n = 1) {
    if (!enabled()) return;
    add_always(n);
  }
  /// Unconditional variant for call sites that pre-check enabled().
  void add_always(std::uint64_t n) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> value_{0};
};

/// An instantaneous value (queue depth, utilization %) with a high-water
/// mark. Updated per command, not per sample, so a single atomic is fine.
class Gauge {
public:
  void set(std::int64_t v);
  void add(std::int64_t delta);
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  std::int64_t max_value() const { return max_.load(std::memory_order_relaxed); }
  void reset();

private:
  void bump_max(std::int64_t candidate);
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

struct HistogramSnapshot;

/// A log-bucketed (HDR-style) histogram of non-negative integer samples
/// (nanoseconds by convention). Buckets are exact below 2^kSubBits and
/// then 2^kSubBits sub-buckets per power of two, so the relative bucket
/// width — and therefore the quantile error — is bounded by 2^-kSubBits
/// (3.125%). Values at or above 2^kMaxBits clamp into the last bucket.
class Histogram {
public:
  static constexpr int kSubBits = 5;
  static constexpr std::uint64_t kSubCount = 1ull << kSubBits;  // 32
  static constexpr int kMaxBits = 42;  // ~73 min in ns
  static constexpr std::size_t kBucketCount =
      kSubCount + static_cast<std::size_t>(kMaxBits - kSubBits) * kSubCount;

  /// Bucket index for a sample value.
  static std::size_t bucket_index(std::uint64_t value);
  /// Inclusive lower bound of bucket `index`.
  static std::uint64_t bucket_lower(std::size_t index);
  /// Width of bucket `index` (upper bound is lower + width).
  static std::uint64_t bucket_width(std::size_t index);

  Histogram() = default;
  ~Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t value) {
    if (!enabled()) return;
    record_always(value);
  }
  /// Records a duration in seconds as nanoseconds.
  void record_seconds(double seconds) {
    if (!enabled()) return;
    if (seconds < 0) seconds = 0;
    record_always(static_cast<std::uint64_t>(seconds * 1e9));
  }
  void record_always(std::uint64_t value);

  void reset();

  /// Name, unit, count, sum, min, max, quantiles and non-empty buckets.
  HistogramSnapshot snapshot(std::string name, std::string unit) const;

private:
  struct Block;  // buckets, sum, min, max
  std::atomic<Block*> block_{nullptr};  // allocated by the first sample
};

// --- Registry ----------------------------------------------------------------

/// Looks up (or registers) a metric by name. References are stable for the
/// process lifetime; hot call sites should cache them:
///
///   static auto& hits = metrics::counter("hpl.cache.hit");
///   hits.add();
///
/// Histogram samples are nanoseconds unless `unit` says otherwise.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name, std::string_view unit = "ns");

// --- Critical path -----------------------------------------------------------

/// Raw facts about one completed eval, all on the host trace clock
/// (trace::now_us microseconds): the eval's start, the kernel enqueue, the
/// completion instant, the kernel command's execution window, and the
/// execution windows of the coherence transfers the eval enqueued.
struct CriticalPathInput {
  std::string kernel;
  std::string device;
  double start_us = 0;    // eval() entered
  double enqueue_us = 0;  // kernel command enqueued
  double done_us = 0;     // kernel command completed
  double kernel_start_us = 0;
  double kernel_end_us = 0;
  std::vector<std::pair<double, double>> transfer_windows;
  // Informational host sub-timings (they overlap the transfer windows in
  // async mode, so they are reported but not part of the partition).
  double capture_us = 0;
  double codegen_us = 0;
  double build_us = 0;
  double marshal_us = 0;
};

/// One attributed eval: the latency window [start, done] partitioned into
/// four disjoint segments that sum exactly to total_us. Priority when
/// windows overlap: kernel > transfer > host-prep; whatever no window
/// covers is queue-wait (worker pickup delay, dependency waits, and — in
/// async mode — time the host had already moved on).
struct CriticalPath {
  std::string kernel;
  std::string device;
  double total_us = 0;
  double host_prep_us = 0;   // [start, enqueue] not covered by any command
  double queue_wait_us = 0;  // gaps: nothing ran, nothing host-side pending
  double transfer_us = 0;    // coherence transfer execution windows
  double kernel_us = 0;      // kernel command execution window
  double capture_us = 0;     // informational sub-timings (see input)
  double codegen_us = 0;
  double build_us = 0;
  double marshal_us = 0;
};

/// Pure attribution (no recording); exposed for tests.
CriticalPath attribute_critical_path(const CriticalPathInput& input);

/// Attributes and stores the entry: bounded recent list plus running
/// aggregate sums. No-op when metrics are disabled.
void record_critical_path(const CriticalPathInput& input);

struct CriticalPathTotals {
  std::uint64_t evals = 0;
  double total_us = 0;
  double host_prep_us = 0;
  double queue_wait_us = 0;
  double transfer_us = 0;
  double kernel_us = 0;
};

// --- Snapshot & export -------------------------------------------------------

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;
  std::int64_t max = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::string unit;
  std::uint64_t count = 0;
  double sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0;  // 0 when count == 0 (never NaN)
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double p999 = 0;
  /// Non-empty buckets only, ascending: (lower bound, count).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;

  /// Smallest bucket-representative value v with CDF(v) >= q.
  double quantile(double q) const;
};

struct FlightDumpEntry {
  int thread = 0;
  std::uint64_t seq = 0;  // position in its thread's ring (per-thread order)
  std::string name;
  std::string cat;
  bool begin = false;
  double ts_us = 0;
};

struct FlightDump {
  bool dumped = false;
  std::string reason;
  std::vector<FlightDumpEntry> entries;  // ascending ts_us (timeline order)
};

struct Snapshot {
  std::vector<CounterSnapshot> counters;   // sorted by name
  std::vector<GaugeSnapshot> gauges;       // sorted by name
  std::vector<HistogramSnapshot> histograms;  // sorted by name
  CriticalPathTotals critical_path_totals;
  std::vector<CriticalPath> critical_paths;  // recent, bounded
  FlightDump flight;
};

/// Returns a copy of every metric and the critical-path log.
Snapshot snapshot();

/// Renders the snapshot as the "hplrepro-metrics-v1" JSON document.
std::string to_json(const Snapshot& snap);

/// Human-readable tables (counters, gauges, histogram quantiles, critical
/// path decomposition). Guaranteed free of nan/inf even when nothing ran.
std::string report(const Snapshot& snap);

/// snapshot() + to_json() to `path`. Returns false (without throwing) if
/// the file cannot be opened.
bool write_json(const std::string& path);

/// Writes to the configured output path, if any (called automatically at
/// exit when HPL_METRICS / metrics_to set a path).
void write_pending();

// --- Flight recorder ---------------------------------------------------------

/// Appends a begin/end mark for span `name` to the calling thread's ring
/// buffer. Always on — this must stay cheap: a raw TSC stamp and one
/// lock-free cache-line ring write (~40 ns), no mutex, no vDSO call.
/// `name` and `cat` are copied (truncated to a few dozen bytes), so
/// transient strings are fine.
void flight_record(const char* name, const char* cat, bool begin);

/// Ring capacity per thread (recent spans kept for the post-mortem).
/// 128 one-cache-line slots = 8 KiB per thread: deep enough for ~20
/// evals of history, small enough that the always-on recording does not
/// evict the workload's L1 working set.
inline constexpr std::size_t kFlightRingCapacity = 128;

/// Dumps every thread's ring to stderr, once per process: the first call
/// wins, later calls are no-ops. The dump is also retained for snapshot()
/// so it lands in the metrics JSON. Called by the command queue when a
/// command fails (kernel trap / deferred CL error).
void flight_dump_once(const char* reason);

/// How many dumps have actually been written (0 or 1 unless reset).
std::uint64_t flight_dump_count();

/// The retained dump ({} if none happened yet).
FlightDump flight_last_dump();

/// Clears rings, the retained dump and the dump-once latch (tests).
void flight_reset_for_test();

}  // namespace hplrepro::metrics

#endif  // HPLREPRO_SUPPORT_METRICS_HPP
