#ifndef HPLREPRO_SUPPORT_TRACE_HPP
#define HPLREPRO_SUPPORT_TRACE_HPP

/// \file trace.hpp
/// Structured tracing for the whole stack: HPL eval stages, clsim queue
/// commands and VM launches record spans into one process-wide collector
/// that exports Chrome trace-event JSON (open in chrome://tracing or
/// https://ui.perfetto.dev).
///
/// Two clocks coexist:
///   * host spans (pid "host") carry real wall-clock timestamps measured
///     from a process-local epoch;
///   * simulated spans (pid "sim") carry timestamps on a device's
///     simulated timeline, so transfer/kernel overlap and per-command
///     queued/start/end are visible next to the host activity that
///     triggered them.
///
/// The layer is inert unless enabled: `enabled()` is a single relaxed
/// atomic load, `Span` construction bails out immediately, and nothing
/// allocates. Enabling happens either programmatically (`trace_to`) or via
/// the `HPL_TRACE=<path>` environment variable, which also arranges for
/// the trace to be written at process exit.
///
/// All recording APIs are thread-safe (the executor's pool threads may
/// record concurrently with the main thread).

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hplrepro::trace {

/// Key/value pairs attached to an event. Values are stored pre-rendered
/// as JSON fragments (numbers bare, strings quoted and escaped).
struct Args {
  std::vector<std::pair<std::string, std::string>> kv;

  Args& num(std::string_view key, double value);
  Args& num(std::string_view key, std::uint64_t value);
  Args& str(std::string_view key, std::string_view value);
};

/// One recorded complete ("X") event.
struct EventRecord {
  std::string name;
  std::string cat;
  std::string track;     // rendered as the Chrome-trace thread name
  bool simulated = false;  // false: host wall clock; true: simulated clock
  double ts_us = 0;
  double dur_us = 0;
  Args args;
};

/// Whether the collector is recording. A relaxed atomic load; safe (and
/// cheap) to call on hot paths. The first call reads HPL_TRACE from the
/// environment.
bool enabled();

/// Turns recording on or off without touching the output path.
void set_enabled(bool on);

/// Enables recording and arranges for the trace to be written to `path`
/// when `write_pending()` runs (explicitly or at process exit).
void trace_to(const std::string& path);

/// The output path set via trace_to / HPL_TRACE ("" if none).
std::string output_path();

/// Drops all recorded events and counters (tests).
void reset();

/// Number of events recorded so far.
std::size_t event_count();

/// Copies out all recorded events (report generation, tests).
std::vector<EventRecord> snapshot();

/// Records a complete event with explicit timestamps. Used for simulated
/// tracks where the caller owns the clock; host-side code normally uses
/// Span instead. No-op when disabled.
void record(EventRecord event);

/// Microseconds of host wall-clock since the process trace epoch.
double now_us();

/// Writes everything recorded so far as Chrome trace-event JSON.
/// Returns false (without throwing) if the file cannot be opened.
bool write_chrome_trace(const std::string& path);

/// Writes to the configured output path, if any (idempotent per content;
/// called automatically at exit when HPL_TRACE / trace_to set a path).
void write_pending();

/// RAII span over a host-side stage. Records one complete event on the
/// calling thread's track when destroyed. When tracing is disabled a span
/// costs one relaxed atomic load plus its flight-recorder marks.
class Span {
public:
  Span(const char* name, const char* cat);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }

  Span& arg(const char* key, double value);
  Span& arg(const char* key, std::uint64_t value);
  Span& arg(const char* key, std::string_view value);

private:
  const char* name_;
  const char* cat_;
  double start_us_ = 0;
  bool active_ = false;
  Args args_;
};

}  // namespace hplrepro::trace

#endif  // HPLREPRO_SUPPORT_TRACE_HPP
