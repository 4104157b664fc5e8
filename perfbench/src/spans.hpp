#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

/// \file spans.hpp
/// In-memory span recorder for the traced benchmark run. Each span is a
/// call the benchmark makes into one layer (hpl, clc, clsim, coexec,
/// benchsuite) or one whole operation ("op"); the layer is the span name
/// up to its first '.'. Spans are recorded only on the benchmark thread
/// (the single generator thread) and only while tracing is on, kept in a
/// vector, and written out once at the end of the run.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Tracing switch (off by default; the untraced run never turns it on).
void set_tracing(bool on);
bool tracing();

/// Operation id stamped on every span opened from now on.
void set_current_op(std::uint64_t op);

/// RAII span around one layer call. A no-op unless tracing is on and the
/// caller is the thread that first enabled tracing.
class Span {
public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  std::int64_t index_ = -1;
  std::int64_t saved_parent_ = -1;
};

/// Self time per layer: each span's duration minus the time its direct
/// children cover, summed over the layer's spans (with `ops_only`, only
/// spans inside an operation).
struct LayerTime {
  std::string layer;
  double self_us = 0;
};
std::vector<LayerTime> layer_times(bool ops_only);

/// Sum and count of the durations of spans named exactly `name`.
struct NameTotal {
  double sum_us = 0;
  std::uint64_t count = 0;
};
NameTotal name_total(const char* name);

/// Checks the span tree: every span closed, end >= start, every child
/// inside its parent's interval and of its operation, and the children of
/// a span together no longer than it. Returns "" when sound, else a
/// description of the first violation.
std::string validate_spans();

/// Writes the spans as a JSON array to `path`. Returns false on I/O error.
bool write_spans(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_HPP
