#include "support/metrics.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "support/stopwatch.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define HPLREPRO_FLIGHT_TSC 1
#endif

namespace hplrepro::metrics {

namespace {

// Flight-mark timestamp source. On x86-64 this is the raw TSC — a dozen
// cycles, no vDSO call — which is monotonic and core-synchronized on every
// CPU with invariant TSC (all hardware this simulator targets). Elsewhere
// it falls back to steady-clock ticks. Either way the unit is opaque here:
// the dump converts ticks to trace µs against a calibration anchor taken
// at collector construction, so the hot path never does epoch math.
std::int64_t flight_now_ticks() {
#ifdef HPLREPRO_FLIGHT_TSC
  return static_cast<std::int64_t>(__rdtsc());
#else
  return MonotonicClock::now().time_since_epoch().count();
#endif
}

// --- Flight recorder state ---------------------------------------------------

// A ring slot, exactly one cache line. Labels are copied, not pointed to:
// some spans are named from transient strings (the VM names its span
// after the kernel), and the ring outlives them. Every field is a relaxed
// atomic so a ring has a single lock-free writer (its thread) while
// flight_dump_once reads all rings concurrently; a slot being overwritten
// during a dump yields a mixed entry, which is acceptable for a
// best-effort post-mortem.
struct alignas(64) FlightRaw {
  static constexpr std::size_t kNameWords = 4;  // 32 label bytes
  static constexpr std::size_t kCatWords = 2;   // 16 label bytes
  std::array<std::atomic<std::uint64_t>, kNameWords> name{};
  std::array<std::atomic<std::uint64_t>, kCatWords> cat{};
  // Raw flight_now_ticks() ticks shifted left once, begin/end phase in
  // bit 0 (one store instead of two; the tick LSB is far below clock
  // resolution). Converted to trace µs at dump time.
  std::atomic<std::int64_t> ts_phase{0};
};
static_assert(sizeof(FlightRaw) == 64);

/// Packs a NUL-terminated label into words, truncating. Stops at the first
/// word that holds the terminator (a zero byte inside the word marks the
/// end for load_label), so short labels — the common case — touch one or
/// two words instead of all of them, leaving later words stale.
void store_label(std::atomic<std::uint64_t>* words, std::size_t word_count,
                 const char* src) {
  bool done = src == nullptr;
  for (std::size_t w = 0; w < word_count; ++w) {
    std::uint64_t packed = 0;
    bool full = true;
    for (std::size_t b = 0; b < 8; ++b) {
      const char ch = done ? '\0' : src[w * 8 + b];
      if (ch == '\0') {
        done = true;
        full = false;
      } else {
        packed |= static_cast<std::uint64_t>(static_cast<unsigned char>(ch))
                  << (b * 8);
      }
    }
    words[w].store(packed, std::memory_order_relaxed);
    if (!full) return;
  }
}

/// Unpacks a label written by store_label (bounded, never overreads).
std::string load_label(const std::atomic<std::uint64_t>* words,
                       std::size_t word_count) {
  std::string out;
  for (std::size_t w = 0; w < word_count; ++w) {
    const std::uint64_t packed = words[w].load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < 8; ++b) {
      const char ch = static_cast<char>((packed >> (b * 8)) & 0xff);
      if (ch == '\0') return out;
      out += ch;
    }
  }
  return out;
}

struct FlightRing {
  int thread_id = 0;
  // Total entries ever written. Written only by the owning thread
  // (release after the slot's fields), read by the dumper (acquire).
  std::atomic<std::uint64_t> head{0};
  std::array<FlightRaw, kFlightRingCapacity> entries{};
};

// --- The collector -----------------------------------------------------------

struct Collector {
  std::atomic<bool> enabled{false};

  std::mutex mu;  // registry, path
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::pair<std::unique_ptr<Histogram>, std::string>,
           std::less<>>
      histograms;
  std::string path;
  bool atexit_registered = false;

  static constexpr std::size_t kMaxRecentPaths = 512;
  std::mutex cp_mu;
  std::deque<CriticalPath> recent_paths;
  CriticalPathTotals cp_totals;

  std::mutex flight_mu;  // ring registry + retained dump
  std::vector<std::unique_ptr<FlightRing>> rings;
  int next_ring_id = 0;
  std::atomic<bool> flight_dumped{false};
  std::atomic<std::uint64_t> flight_dumps{0};
  FlightDump flight_last;
  // Calibration anchor for flight timestamps: a (ticks, trace-µs) pair
  // taken at construction — before any mark can be recorded, since rings
  // register through collector(). The dump takes a second pair and maps
  // ticks to µs linearly between them.
  std::int64_t flight_anchor_ticks = 0;
  double flight_anchor_us = 0;

  Collector() {
    flight_anchor_ticks = flight_now_ticks();
    flight_anchor_us = trace::now_us();
    if (const char* env = std::getenv("HPL_METRICS");
        env != nullptr && env[0] != '\0') {
      set_path(env);
      enabled.store(true, std::memory_order_relaxed);
    }
  }

  // Caller must NOT hold mu.
  void set_path(const std::string& p) {
    std::lock_guard<std::mutex> lock(mu);
    path = p;
    if (!p.empty() && !atexit_registered) {
      atexit_registered = true;
      std::atexit(&write_pending);
    }
  }
};

Collector& collector() {
  // Intentionally leaked: write_pending runs from atexit and queue worker
  // threads may record until static destruction; a destroyed collector
  // would leave both reading freed state.
  static Collector* instance = new Collector();
  return *instance;
}

// --- Interval arithmetic for critical-path attribution -----------------------

struct Interval {
  double a = 0;
  double b = 0;
  double length() const { return b > a ? b - a : 0; }
};

/// Sorted, disjoint union of the input intervals (empty ones dropped).
std::vector<Interval> merge_intervals(std::vector<Interval> v) {
  std::vector<Interval> out;
  std::sort(v.begin(), v.end(),
            [](const Interval& x, const Interval& y) { return x.a < y.a; });
  for (const Interval& iv : v) {
    if (iv.length() <= 0) continue;
    if (!out.empty() && iv.a <= out.back().b) {
      out.back().b = std::max(out.back().b, iv.b);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

double total_length(const std::vector<Interval>& v) {
  double sum = 0;
  for (const Interval& iv : v) sum += iv.length();
  return sum;
}

/// Length of x ∩ (∪ merged).
double overlap_length(const Interval& x, const std::vector<Interval>& merged) {
  double sum = 0;
  for (const Interval& iv : merged) {
    const double a = std::max(x.a, iv.a);
    const double b = std::min(x.b, iv.b);
    if (b > a) sum += b - a;
  }
  return sum;
}

}  // namespace

// --- Enable gate -------------------------------------------------------------

bool enabled() {
  return collector().enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) {
  collector().enabled.store(on, std::memory_order_relaxed);
}

void metrics_to(const std::string& path) {
  Collector& c = collector();
  c.set_path(path);
  c.enabled.store(true, std::memory_order_relaxed);
}

std::string output_path() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.path;
}

void reset() {
  Collector& c = collector();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    for (auto& [name, counter] : c.counters) counter->reset();
    for (auto& [name, gauge] : c.gauges) gauge->reset();
    for (auto& [name, hist] : c.histograms) hist.first->reset();
  }
  std::lock_guard<std::mutex> lock(c.cp_mu);
  c.recent_paths.clear();
  c.cp_totals = CriticalPathTotals{};
}

// --- Gauge -------------------------------------------------------------------

void Gauge::bump_max(std::int64_t candidate) {
  std::int64_t seen = max_.load(std::memory_order_relaxed);
  while (candidate > seen &&
         !max_.compare_exchange_weak(seen, candidate,
                                     std::memory_order_relaxed)) {
  }
}

void Gauge::set(std::int64_t v) {
  value_.store(v, std::memory_order_relaxed);
  bump_max(v);
}

void Gauge::add(std::int64_t delta) {
  const std::int64_t now =
      value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  bump_max(now);
}

void Gauge::reset() {
  value_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// --- Histogram ---------------------------------------------------------------

struct Histogram::Block {
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> min{UINT64_MAX};
  std::atomic<std::uint64_t> max{0};
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets{};
};

Histogram::~Histogram() { delete block_.load(std::memory_order_acquire); }

std::size_t Histogram::bucket_index(std::uint64_t value) {
  if (value < kSubCount) return static_cast<std::size_t>(value);
  if (value >= (1ull << kMaxBits)) value = (1ull << kMaxBits) - 1;
  const int msb = 63 - std::countl_zero(value);
  const int shift = msb - kSubBits;
  return static_cast<std::size_t>(kSubCount) +
         static_cast<std::size_t>(msb - kSubBits) * kSubCount +
         static_cast<std::size_t>((value >> shift) - kSubCount);
}

std::uint64_t Histogram::bucket_lower(std::size_t index) {
  if (index < kSubCount) return index;
  const std::size_t octave = (index - kSubCount) / kSubCount;
  const std::size_t pos = (index - kSubCount) % kSubCount;
  return (kSubCount + pos) << octave;
}

std::uint64_t Histogram::bucket_width(std::size_t index) {
  if (index < kSubCount) return 1;
  return 1ull << ((index - kSubCount) / kSubCount);
}

void Histogram::record_always(std::uint64_t value) {
  Block* b = block_.load(std::memory_order_acquire);
  if (b == nullptr) {
    auto* fresh = new Block();
    if (block_.compare_exchange_strong(b, fresh, std::memory_order_acq_rel)) {
      b = fresh;
    } else {
      delete fresh;  // another thread's first sample won the race
    }
  }
  b->sum.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = b->min.load(std::memory_order_relaxed);
  while (value < seen && !b->min.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
  seen = b->max.load(std::memory_order_relaxed);
  while (value > seen && !b->max.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
  b->buckets[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::reset() {
  Block* b = block_.load(std::memory_order_acquire);
  if (b == nullptr) return;
  b->sum.store(0, std::memory_order_relaxed);
  b->min.store(UINT64_MAX, std::memory_order_relaxed);
  b->max.store(0, std::memory_order_relaxed);
  for (auto& n : b->buckets) n.store(0, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot(std::string name,
                                      std::string unit) const {
  HistogramSnapshot out;
  out.name = std::move(name);
  out.unit = std::move(unit);
  const Block* b = block_.load(std::memory_order_acquire);
  if (b != nullptr) {
    out.sum = static_cast<double>(b->sum.load(std::memory_order_relaxed));
    out.max = b->max.load(std::memory_order_relaxed);
    // Count derives from the buckets so "bucket counts sum to the sample
    // count" holds by construction, even for a mid-recording snapshot.
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      const std::uint64_t n = b->buckets[i].load(std::memory_order_relaxed);
      if (n == 0) continue;
      out.count += n;
      out.buckets.emplace_back(bucket_lower(i), n);
    }
    if (out.count != 0) out.min = b->min.load(std::memory_order_relaxed);
  }
  out.mean = out.count == 0 ? 0 : out.sum / static_cast<double>(out.count);
  out.p50 = out.quantile(0.50);
  out.p90 = out.quantile(0.90);
  out.p99 = out.quantile(0.99);
  out.p999 = out.quantile(0.999);
  return out;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t cumulative = 0;
  for (const auto& [lower, n] : buckets) {
    cumulative += n;
    if (cumulative >= target) {
      const std::uint64_t width =
          Histogram::bucket_width(Histogram::bucket_index(lower));
      return static_cast<double>(lower) + static_cast<double>(width) / 2.0;
    }
  }
  return static_cast<double>(buckets.back().first);
}

// --- Registry ----------------------------------------------------------------

Counter& counter(std::string_view name) {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  auto it = c.counters.find(name);
  if (it == c.counters.end()) {
    it = c.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& gauge(std::string_view name) {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  auto it = c.gauges.find(name);
  if (it == c.gauges.end()) {
    it = c.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& histogram(std::string_view name, std::string_view unit) {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  auto it = c.histograms.find(name);
  if (it == c.histograms.end()) {
    it = c.histograms
             .emplace(std::string(name),
                      std::make_pair(std::make_unique<Histogram>(),
                                     std::string(unit)))
             .first;
  }
  return *it->second.first;
}

// --- Critical path -----------------------------------------------------------

CriticalPath attribute_critical_path(const CriticalPathInput& input) {
  CriticalPath out;
  out.kernel = input.kernel;
  out.device = input.device;
  out.capture_us = input.capture_us;
  out.codegen_us = input.codegen_us;
  out.build_us = input.build_us;
  out.marshal_us = input.marshal_us;

  const double start = input.start_us;
  const double done = std::max(input.done_us, start);
  out.total_us = done - start;

  auto clip = [&](double a, double b) {
    return Interval{std::clamp(a, start, done), std::clamp(b, start, done)};
  };

  const Interval kernel = clip(input.kernel_start_us, input.kernel_end_us);
  out.kernel_us = kernel.length();

  std::vector<Interval> transfers;
  transfers.reserve(input.transfer_windows.size());
  for (const auto& [a, b] : input.transfer_windows) {
    const Interval iv = clip(a, b);
    if (iv.length() > 0) transfers.push_back(iv);
  }
  transfers = merge_intervals(std::move(transfers));
  out.transfer_us =
      total_length(transfers) - overlap_length(kernel, transfers);

  // Everything any command covered, for the host-prep subtraction.
  std::vector<Interval> covered = transfers;
  covered.push_back(kernel);
  covered = merge_intervals(std::move(covered));

  const Interval host = clip(start, input.enqueue_us);
  out.host_prep_us = host.length() - overlap_length(host, covered);

  out.queue_wait_us = std::max(
      0.0, out.total_us - out.kernel_us - out.transfer_us - out.host_prep_us);
  return out;
}

void record_critical_path(const CriticalPathInput& input) {
  if (!enabled()) return;
  CriticalPath entry = attribute_critical_path(input);
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.cp_mu);
  c.cp_totals.evals += 1;
  c.cp_totals.total_us += entry.total_us;
  c.cp_totals.host_prep_us += entry.host_prep_us;
  c.cp_totals.queue_wait_us += entry.queue_wait_us;
  c.cp_totals.transfer_us += entry.transfer_us;
  c.cp_totals.kernel_us += entry.kernel_us;
  c.recent_paths.push_back(std::move(entry));
  if (c.recent_paths.size() > Collector::kMaxRecentPaths) {
    c.recent_paths.pop_front();
  }
}

// --- Snapshot & export -------------------------------------------------------

Snapshot snapshot() {
  Collector& c = collector();
  Snapshot out;
  {
    std::lock_guard<std::mutex> lock(c.mu);
    out.counters.reserve(c.counters.size());
    for (const auto& [name, counter] : c.counters) {
      out.counters.push_back({name, counter->value()});
    }
    out.gauges.reserve(c.gauges.size());
    for (const auto& [name, gauge] : c.gauges) {
      out.gauges.push_back({name, gauge->value(), gauge->max_value()});
    }
    out.histograms.reserve(c.histograms.size());
    for (const auto& [name, hist] : c.histograms) {
      out.histograms.push_back(hist.first->snapshot(name, hist.second));
    }
  }
  {
    std::lock_guard<std::mutex> lock(c.cp_mu);
    out.critical_path_totals = c.cp_totals;
    out.critical_paths.assign(c.recent_paths.begin(), c.recent_paths.end());
  }
  out.flight = flight_last_dump();
  return out;
}

std::string to_json(const Snapshot& snap) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"hplrepro-metrics-v1\",\n";

  os << "  \"counters\": [";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
       << json_escape(snap.counters[i].name)
       << "\", \"value\": " << snap.counters[i].value << "}";
  }
  os << "\n  ],\n";

  os << "  \"gauges\": [";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
       << json_escape(snap.gauges[i].name)
       << "\", \"value\": " << snap.gauges[i].value
       << ", \"max\": " << snap.gauges[i].max << "}";
  }
  os << "\n  ],\n";

  os << "  \"histograms\": [";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const HistogramSnapshot& h = snap.histograms[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
       << json_escape(h.name) << "\", \"unit\": \"" << json_escape(h.unit)
       << "\", \"count\": " << h.count
       << ", \"sum\": " << json_number(h.sum) << ", \"min\": " << h.min
       << ", \"max\": " << h.max << ", \"mean\": " << json_number(h.mean)
       << ", \"p50\": " << json_number(h.p50)
       << ", \"p90\": " << json_number(h.p90)
       << ", \"p99\": " << json_number(h.p99)
       << ", \"p999\": " << json_number(h.p999) << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b != 0) os << ", ";
      os << "{\"lo\": " << h.buckets[b].first
         << ", \"count\": " << h.buckets[b].second << "}";
    }
    os << "]}";
  }
  os << "\n  ],\n";

  const CriticalPathTotals& t = snap.critical_path_totals;
  os << "  \"critical_path\": {\n    \"evals\": " << t.evals
     << ",\n    \"totals\": {\"total_us\": " << json_number(t.total_us)
     << ", \"host_prep_us\": " << json_number(t.host_prep_us)
     << ", \"queue_wait_us\": " << json_number(t.queue_wait_us)
     << ", \"transfer_us\": " << json_number(t.transfer_us)
     << ", \"kernel_us\": " << json_number(t.kernel_us)
     << "},\n    \"recent\": [";
  for (std::size_t i = 0; i < snap.critical_paths.size(); ++i) {
    const CriticalPath& p = snap.critical_paths[i];
    os << (i == 0 ? "\n" : ",\n") << "      {\"kernel\": \""
       << json_escape(p.kernel) << "\", \"device\": \""
       << json_escape(p.device)
       << "\", \"total_us\": " << json_number(p.total_us)
       << ", \"host_prep_us\": " << json_number(p.host_prep_us)
       << ", \"queue_wait_us\": " << json_number(p.queue_wait_us)
       << ", \"transfer_us\": " << json_number(p.transfer_us)
       << ", \"kernel_us\": " << json_number(p.kernel_us)
       << ", \"capture_us\": " << json_number(p.capture_us)
       << ", \"codegen_us\": " << json_number(p.codegen_us)
       << ", \"build_us\": " << json_number(p.build_us)
       << ", \"marshal_us\": " << json_number(p.marshal_us) << "}";
  }
  os << "\n    ]\n  },\n";

  os << "  \"flight_recorder\": {\"dumped\": "
     << (snap.flight.dumped ? "true" : "false") << ", \"reason\": \""
     << json_escape(snap.flight.reason) << "\", \"entries\": [";
  for (std::size_t i = 0; i < snap.flight.entries.size(); ++i) {
    const FlightDumpEntry& e = snap.flight.entries[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"thread\": " << e.thread
       << ", \"seq\": " << e.seq << ", \"name\": \"" << json_escape(e.name)
       << "\", \"cat\": \"" << json_escape(e.cat) << "\", \"phase\": \""
       << (e.begin ? "B" : "E") << "\", \"ts_us\": " << json_number(e.ts_us)
       << "}";
  }
  os << "\n  ]}\n}\n";
  return os.str();
}

namespace {

std::string fmt_ns_as_ms(double ns) { return format_double(ns / 1e6, 4); }

std::string fmt_share(double part, double total) {
  return total > 0 ? format_double(part / total * 100.0, 3) + "%" : "-";
}

}  // namespace

std::string report(const Snapshot& snap) {
  std::ostringstream os;
  os << "=== HPL metrics report ===\n";

  if (!snap.counters.empty()) {
    os << "\nCounters:\n";
    Table table({"counter", "value"});
    for (const auto& c : snap.counters) {
      table.add_row({c.name, std::to_string(c.value)});
    }
    table.print(os);
  }

  if (!snap.gauges.empty()) {
    os << "\nGauges:\n";
    Table table({"gauge", "value", "max"});
    for (const auto& g : snap.gauges) {
      table.add_row(
          {g.name, std::to_string(g.value), std::to_string(g.max)});
    }
    table.print(os);
  }

  if (!snap.histograms.empty()) {
    os << "\nLatency histograms (ms):\n";
    Table table({"histogram", "count", "mean", "p50", "p90", "p99", "p99.9",
                 "max"});
    for (const auto& h : snap.histograms) {
      if (h.count == 0) {
        table.add_row({h.name, "0", "-", "-", "-", "-", "-", "-"});
        continue;
      }
      table.add_row({h.name, std::to_string(h.count), fmt_ns_as_ms(h.mean),
                     fmt_ns_as_ms(h.p50), fmt_ns_as_ms(h.p90),
                     fmt_ns_as_ms(h.p99), fmt_ns_as_ms(h.p999),
                     fmt_ns_as_ms(static_cast<double>(h.max))});
    }
    table.print(os);
  }

  const CriticalPathTotals& t = snap.critical_path_totals;
  os << "\nCritical path over " << t.evals << " evals:\n";
  Table table({"segment", "time (ms)", "share"});
  table.add_row({"host prep", format_double(t.host_prep_us / 1e3, 4),
                 fmt_share(t.host_prep_us, t.total_us)});
  table.add_row({"queue wait", format_double(t.queue_wait_us / 1e3, 4),
                 fmt_share(t.queue_wait_us, t.total_us)});
  table.add_row({"transfer", format_double(t.transfer_us / 1e3, 4),
                 fmt_share(t.transfer_us, t.total_us)});
  table.add_row({"kernel", format_double(t.kernel_us / 1e3, 4),
                 fmt_share(t.kernel_us, t.total_us)});
  table.add_row({"total", format_double(t.total_us / 1e3, 4),
                 t.total_us > 0 ? "100%" : "-"});
  table.print(os);

  if (snap.flight.dumped) {
    os << "\nFlight recorder: dumped (" << snap.flight.reason << ", "
       << snap.flight.entries.size() << " entries)\n";
  }
  return os.str();
}

bool write_json(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  os << to_json(snapshot());
  return os.good();
}

void write_pending() {
  const std::string path = output_path();
  if (!path.empty()) write_json(path);
}

// --- Flight recorder ---------------------------------------------------------

namespace {

FlightRing& local_ring() {
  thread_local FlightRing* ring = nullptr;
  if (ring == nullptr) {
    Collector& c = collector();
    std::lock_guard<std::mutex> lock(c.flight_mu);
    c.rings.push_back(std::make_unique<FlightRing>());
    ring = c.rings.back().get();
    ring->thread_id = c.next_ring_id++;
  }
  return *ring;
}

}  // namespace

void flight_record(const char* name, const char* cat, bool begin) {
  FlightRing& ring = local_ring();
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  FlightRaw& slot = ring.entries[head % kFlightRingCapacity];
  store_label(slot.name.data(), FlightRaw::kNameWords, name);
  store_label(slot.cat.data(), FlightRaw::kCatWords, cat);
  slot.ts_phase.store((flight_now_ticks() << 1) |
                          static_cast<std::int64_t>(begin),
                      std::memory_order_relaxed);
  ring.head.store(head + 1, std::memory_order_release);
}

void flight_dump_once(const char* reason) {
  Collector& c = collector();
  if (c.flight_dumped.exchange(true, std::memory_order_acq_rel)) return;

  FlightDump dump;
  dump.dumped = true;
  dump.reason = reason == nullptr ? "" : reason;
  // Second calibration pair: together with the construction-time anchor
  // it gives the tick rate, and ticks map to µs linearly from here. The
  // guard keeps the rate finite if the dump fires absurdly early.
  const std::int64_t now_ticks = flight_now_ticks();
  const double now_us = trace::now_us();
  const double ticks_per_us =
      static_cast<double>(now_ticks - c.flight_anchor_ticks) /
      std::max(now_us - c.flight_anchor_us, 1.0);
  {
    std::lock_guard<std::mutex> registry_lock(c.flight_mu);
    for (const auto& ring : c.rings) {
      const std::uint64_t head = ring->head.load(std::memory_order_acquire);
      const std::uint64_t kept =
          std::min<std::uint64_t>(head, kFlightRingCapacity);
      for (std::uint64_t i = head - kept; i < head; ++i) {
        const FlightRaw& raw = ring->entries[i % kFlightRingCapacity];
        FlightDumpEntry entry;
        entry.thread = ring->thread_id;
        entry.seq = i;  // per-thread position; cross-thread order is ts_us
        entry.name = load_label(raw.name.data(), FlightRaw::kNameWords);
        entry.cat = load_label(raw.cat.data(), FlightRaw::kCatWords);
        const std::int64_t ts_phase =
            raw.ts_phase.load(std::memory_order_relaxed);
        entry.begin = (ts_phase & 1) != 0;
        const std::int64_t ticks = ts_phase >> 1;
        entry.ts_us = now_us - static_cast<double>(now_ticks - ticks) /
                                   std::max(ticks_per_us, 1e-9);
        dump.entries.push_back(std::move(entry));
      }
    }
  }
  // The marks share one monotonic clock, so the timestamp is the global
  // order (per-thread seq breaks the rare tie).
  std::sort(dump.entries.begin(), dump.entries.end(),
            [](const FlightDumpEntry& a, const FlightDumpEntry& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              if (a.thread != b.thread) return a.thread < b.thread;
              return a.seq < b.seq;
            });

  std::fprintf(stderr,
               "=== HPL flight recorder dump (%s): %zu recent span marks ===\n",
               dump.reason.c_str(), dump.entries.size());
  for (const FlightDumpEntry& e : dump.entries) {
    std::fprintf(stderr, "  [t%d #%" PRIu64 "] %s %s/%s @ %.3f us\n",
                 e.thread, e.seq, e.begin ? "B" : "E", e.cat.c_str(),
                 e.name.c_str(), e.ts_us);
  }
  std::fprintf(stderr, "=== end flight recorder dump ===\n");

  {
    std::lock_guard<std::mutex> lock(c.flight_mu);
    c.flight_last = std::move(dump);
  }
  c.flight_dumps.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t flight_dump_count() {
  return collector().flight_dumps.load(std::memory_order_relaxed);
}

FlightDump flight_last_dump() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.flight_mu);
  return c.flight_last;
}

void flight_reset_for_test() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.flight_mu);
  for (const auto& ring : c.rings) {
    ring->head.store(0, std::memory_order_release);
  }
  c.flight_last = FlightDump{};
  c.flight_dumped.store(false, std::memory_order_release);
  c.flight_dumps.store(0, std::memory_order_relaxed);
}

}  // namespace hplrepro::metrics
