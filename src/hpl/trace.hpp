#ifndef HPLREPRO_HPL_TRACE_HPP
#define HPLREPRO_HPL_TRACE_HPP

/// \file trace.hpp
/// HPL-facing observability (paper §V context: show *where* eval's time
/// goes). Two pieces:
///
///   * the accounting ledger, always on: one row per (kernel, device) —
///     launches, cache hits, builds, simulated time split by
///     timing-model component, kernel memory traffic, fused-op ratio —
///     one row of transfer totals per device, and two ledger-level totals
///     (host seconds, simulation wall seconds). profile(),
///     kernel_profiles(), transfer_profiles() and profiler_report() are
///     all views of it, so they agree by construction;
///   * `profiler_report()`, a human-readable decomposition (host vs kernel
///     vs transfer, then per kernel per device) rendered with
///     support/table.
///
/// Each launch is one detail::LaunchRecord: eval() stamps it, launch_node()
/// completes it, and detail::settle_launch() writes it out once the
/// command settles — the ledger row, and (when metrics were on at eval())
/// the launch counters, host-cost and latency histograms and the
/// critical path. Builds and transfers reach the ledger through
/// detail::ledger_build / detail::ledger_transfer.
///
/// Span-level tracing (Chrome trace JSON) lives in support/trace.hpp;
/// `HPL::trace_to(path)` is the library-level switch, equivalent to
/// running with HPL_TRACE=<path>.

#include <cstdint>
#include <string>
#include <vector>

#include "clsim/runtime.hpp"
#include "clsim/timing.hpp"
#include "support/metrics.hpp"

namespace HPL {

/// Aggregated statistics for one kernel on one device.
struct KernelProfile {
  std::string kernel;  // generated kernel name (hpl_kernel_N)
  std::string device;  // device name
  std::uint64_t launches = 0;
  std::uint64_t cache_hits = 0;  // launches served fully from the cache
  std::uint64_t builds = 0;      // capture/codegen/build events
  hplrepro::clsim::TimingBreakdown sim;  // summed over launches
  std::uint64_t ops = 0;
  std::uint64_t fused_ops = 0;
  std::uint64_t global_bytes = 0;  // kernel global loads + stores

  double fused_ratio() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(fused_ops) /
                          static_cast<double>(ops);
  }
};

/// Aggregated host<->device transfer statistics for one device.
struct TransferProfile {
  std::string device;
  std::uint64_t to_device_bytes = 0;
  std::uint64_t to_host_bytes = 0;
  std::uint64_t to_device_count = 0;
  std::uint64_t to_host_count = 0;
  /// Direct device-to-device copies INTO this device (coexec merges).
  std::uint64_t d2d_bytes = 0;
  std::uint64_t d2d_count = 0;
  double sim_seconds = 0;
};

/// Views of the ledger's rows (kernel rows sorted by kernel then device).
/// Both quiesce every queue first.
std::vector<KernelProfile> kernel_profiles();
std::vector<TransferProfile> transfer_profiles();

/// Renders the Fig. 7-style decomposition: totals (host / kernel /
/// transfer with shares), then the per-kernel and per-device tables.
std::string profiler_report();

/// Enables span tracing and writes Chrome trace JSON to `path` at process
/// exit (same as running with HPL_TRACE=<path>). Open the file in
/// chrome://tracing or https://ui.perfetto.dev.
void trace_to(const std::string& path);

/// Enables the quantitative metrics layer (support/metrics.hpp) and
/// arranges for the "hplrepro-metrics-v1" JSON to be written to `path` at
/// process exit (same as running with HPL_METRICS=<path>).
void metrics_to(const std::string& path);

/// Quiesces every queue, then renders the metrics registry — counters,
/// gauges, latency-histogram quantiles (p50/p90/p99/p99.9) and the
/// critical-path decomposition — as human-readable tables. Free of
/// nan/inf even when nothing ran.
std::string metrics_report();

/// Quiesces every queue, then writes the metrics JSON to `path` now.
/// Returns false (without throwing) if the file cannot be opened.
bool metrics_write(const std::string& path);

namespace detail {

/// Everything one launch observes, on the host trace clock. eval() stamps
/// `metrics_on`, `start_us`, `capture_us` and `codegen_us` (the record
/// rides on the DagNode until the launch); launch_node() adds the kernel,
/// device, cache outcome, build/marshal/enqueue stamps, its host window
/// and the transfers it caused; settle_launch() adds the completion
/// stamps. The critical-path fields are the record's own, not a copy.
struct LaunchRecord : hplrepro::metrics::CriticalPathInput {
  /// Metrics were on at eval() entry. Decides every metrics-only clock
  /// read and registry record of the launch, so the launch counter, the
  /// latency histogram and the critical-path log agree even when metrics
  /// are toggled while the launch is in flight.
  bool metrics_on = false;
  bool cache_hit = false;
  /// launch_node's own host window: build, marshal, enqueue.
  double host_seconds = 0;
  /// The coherence transfers the launch enqueued (critical-path windows).
  std::vector<hplrepro::clsim::Event> transfers;
};

/// Writes every record of one settled launch — a command that reached a
/// queue — from one place: the ledger row; with `record.metrics_on`, the
/// hpl.eval.launches, hpl.cache.hit|miss and hpl.eval.host_ns records;
/// and, for a healthy launch only, hpl.eval.latency_ns and the critical
/// path. `event` is the settled healthy event, or nullptr for a command
/// that failed (a VM trap): a failed launch still counts, with its cache
/// outcome, but contributes no simulated time, kernel statistics or
/// latency (a failed event's profiling accessors rethrow its error).
void settle_launch(LaunchRecord& record, const hplrepro::clsim::Event* event);

/// Records one build of `kernel` for `device`.
void ledger_build(const std::string& kernel, const std::string& device);

enum class TransferKind { HostToDevice, DeviceToHost, DeviceToDevice };

/// Records one completed coherence transfer. A device-to-device copy is
/// attributed to the destination device's row.
void ledger_transfer(const std::string& device, TransferKind kind,
                     std::uint64_t bytes,
                     const hplrepro::clsim::Event& event);

/// Records eval front-end host time (capture, codegen, recording), which
/// belongs to no kernel row.
void ledger_host_seconds(double seconds);

}  // namespace detail
}  // namespace HPL

#endif  // HPLREPRO_HPL_TRACE_HPP
