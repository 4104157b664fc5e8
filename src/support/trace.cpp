#include "support/trace.hpp"

#include "support/metrics.hpp"

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "support/stopwatch.hpp"
#include "support/strings.hpp"

namespace hplrepro::trace {

namespace {

using Clock = hplrepro::MonotonicClock;  // steady: see stopwatch.hpp

struct Collector {
  std::mutex mu;
  std::atomic<bool> enabled{false};
  std::string path;
  std::vector<EventRecord> events;
  Clock::time_point epoch = Clock::now();
  bool atexit_registered = false;
  int next_thread_track = 0;

  Collector() {
    if (const char* env = std::getenv("HPL_TRACE");
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
  // Intentionally leaked: write_pending runs from atexit, which would
  // otherwise race static destruction of the collector (the destructor is
  // registered mid-construction, before the atexit hook, so it would run
  // *first* and write_pending would read freed state).
  static Collector* instance = new Collector();
  return *instance;
}

/// Track name for the calling thread ("host" for the first one seen, so
/// single-threaded traces read naturally).
std::string thread_track() {
  static thread_local std::string track;
  if (track.empty()) {
    Collector& c = collector();
    std::lock_guard<std::mutex> lock(c.mu);
    const int n = c.next_thread_track++;
    track = n == 0 ? "host" : "host worker " + std::to_string(n);
  }
  return track;
}

}  // namespace

Args& Args::num(std::string_view key, double value) {
  kv.emplace_back(std::string(key), json_number(value));
  return *this;
}

Args& Args::num(std::string_view key, std::uint64_t value) {
  kv.emplace_back(std::string(key), std::to_string(value));
  return *this;
}

Args& Args::str(std::string_view key, std::string_view value) {
  kv.emplace_back(std::string(key), "\"" + json_escape(value) + "\"");
  return *this;
}

bool enabled() {
  return collector().enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) {
  collector().enabled.store(on, std::memory_order_relaxed);
}

void trace_to(const std::string& path) {
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
  std::lock_guard<std::mutex> lock(c.mu);
  c.events.clear();
  c.epoch = Clock::now();
}

std::size_t event_count() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.events.size();
}

std::vector<EventRecord> snapshot() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.events;
}

void record(EventRecord event) {
  Collector& c = collector();
  if (!c.enabled.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(c.mu);
  c.events.push_back(std::move(event));
}

double now_us() {
  Collector& c = collector();
  return std::chrono::duration<double, std::micro>(Clock::now() - c.epoch)
      .count();
}

bool write_chrome_trace(const std::string& path) {
  const std::vector<EventRecord> events = snapshot();

  std::ofstream os(path);
  if (!os) return false;

  // pid 1 = host wall clock, pid 2 = simulated device timelines; tids are
  // assigned per track name in order of first appearance.
  std::map<std::pair<int, std::string>, int> tids;
  auto tid_for = [&](const EventRecord& ev) {
    const int pid = ev.simulated ? 2 : 1;
    auto [it, fresh] =
        tids.emplace(std::make_pair(pid, ev.track),
                     static_cast<int>(tids.size()) + 1);
    (void)fresh;
    return it->second;
  };
  for (const auto& ev : events) tid_for(ev);

  os << "{\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  sep();
  os << R"j({"ph":"M","pid":1,"tid":0,"name":"process_name",)j"
     << R"j("args":{"name":"host (wall clock)"}})j";
  sep();
  os << R"j({"ph":"M","pid":2,"tid":0,"name":"process_name",)j"
     << R"j("args":{"name":"simulated device timelines"}})j";
  for (const auto& [key, tid] : tids) {
    sep();
    os << R"({"ph":"M","pid":)" << key.first << R"(,"tid":)" << tid
       << R"(,"name":"thread_name","args":{"name":")"
       << json_escape(key.second) << "\"}}";
  }

  for (const auto& ev : events) {
    sep();
    os << R"({"name":")" << json_escape(ev.name) << R"(","cat":")"
       << json_escape(ev.cat) << R"(","ph":"X","pid":)"
       << (ev.simulated ? 2 : 1) << R"(,"tid":)" << tid_for(ev)
       << R"(,"ts":)" << json_number(ev.ts_us) << R"(,"dur":)"
       << json_number(ev.dur_us);
    if (!ev.args.kv.empty()) {
      os << R"(,"args":{)";
      for (std::size_t i = 0; i < ev.args.kv.size(); ++i) {
        if (i != 0) os << ",";
        os << "\"" << json_escape(ev.args.kv[i].first)
           << "\":" << ev.args.kv[i].second;
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.good();
}

void write_pending() {
  const std::string path = output_path();
  if (!path.empty()) write_chrome_trace(path);
}

Span::Span(const char* name, const char* cat) : name_(name), cat_(cat) {
  // The flight recorder sees every span even when tracing is off: it is
  // the post-mortem context for kernel traps in otherwise-silent runs.
  metrics::flight_record(name, cat, /*begin=*/true);
  if (!enabled()) return;
  active_ = true;
  start_us_ = now_us();
}

Span::~Span() {
  metrics::flight_record(name_, cat_, /*begin=*/false);
  if (!active_) return;
  EventRecord ev;
  ev.name = name_;
  ev.cat = cat_;
  ev.track = thread_track();
  ev.simulated = false;
  ev.ts_us = start_us_;
  ev.dur_us = now_us() - start_us_;
  ev.args = std::move(args_);
  record(std::move(ev));
}

Span& Span::arg(const char* key, double value) {
  if (active_) args_.num(key, value);
  return *this;
}

Span& Span::arg(const char* key, std::uint64_t value) {
  if (active_) args_.num(key, value);
  return *this;
}

Span& Span::arg(const char* key, std::string_view value) {
  if (active_) args_.str(key, value);
  return *this;
}

}  // namespace hplrepro::trace
