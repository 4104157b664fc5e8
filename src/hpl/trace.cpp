#include "hpl/trace.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>

#include "hpl/runtime.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

namespace HPL {

namespace {

/// The accounting ledger (see trace.hpp). Its mutex is a leaf lock:
/// nothing else is acquired while it is held, so callers may record from
/// under their own locks (build_for holds the kernel-cache lock).
struct Ledger {
  std::mutex mu;
  std::map<std::pair<std::string, std::string>, KernelProfile> kernels;
  std::map<std::string, TransferProfile> transfers;
  double host_seconds = 0;
  double sim_wall_seconds = 0;
};

Ledger& ledger() {
  // Intentionally leaked: queue workers record launches until the Runtime
  // singleton (and its queues) is torn down at exit, which may happen
  // after any function-local static here would have been destroyed.
  static Ledger* instance = new Ledger();
  return *instance;
}

KernelProfile& kernel_row(Ledger& l, const std::string& kernel,
                          const std::string& device) {
  auto [it, added] = l.kernels.try_emplace({kernel, device});
  if (added) {
    it->second.kernel = kernel;
    it->second.device = device;
  }
  return it->second;
}

std::string fmt_ms(double seconds) {
  return hplrepro::format_double(seconds * 1e3, 4);
}

std::string fmt_pct(double fraction) {
  return hplrepro::format_double(fraction * 100.0, 3) + "%";
}

std::string fmt_bytes(std::uint64_t bytes) {
  if (bytes >= 10ull * 1024 * 1024) {
    return hplrepro::format_double(
               static_cast<double>(bytes) / (1024.0 * 1024.0), 3) +
           " MiB";
  }
  if (bytes >= 10ull * 1024) {
    return hplrepro::format_double(static_cast<double>(bytes) / 1024.0, 3) +
           " KiB";
  }
  return std::to_string(bytes) + " B";
}

}  // namespace

ProfileSnapshot profile() {
  // Quiesce the queues: launch and transfer records land from completion
  // callbacks on the queue workers, so a view is only consistent once
  // they drain.
  detail::Runtime::get().finish_all();
  Ledger& l = ledger();
  std::lock_guard<std::mutex> lock(l.mu);
  ProfileSnapshot snap;
  snap.host_seconds = l.host_seconds;
  snap.sim_wall_seconds = l.sim_wall_seconds;
  for (const auto& [key, k] : l.kernels) {
    snap.kernel_sim_seconds += k.sim.total_s;
    snap.kernel_launches += k.launches;
    snap.kernels_built += k.builds;
    snap.kernel_cache_hits += k.cache_hits;
  }
  snap.kernel_cache_misses = snap.kernel_launches - snap.kernel_cache_hits;
  for (const auto& [key, t] : l.transfers) {
    snap.transfer_sim_seconds += t.sim_seconds;
    snap.bytes_to_device += t.to_device_bytes;
    snap.bytes_to_host += t.to_host_bytes;
    snap.bytes_device_to_device += t.d2d_bytes;
  }
  return snap;
}

void reset_profile() {
  detail::Runtime::get().finish_all();
  Ledger& l = ledger();
  std::lock_guard<std::mutex> lock(l.mu);
  l.kernels.clear();
  l.transfers.clear();
  l.host_seconds = 0;
  l.sim_wall_seconds = 0;
}

std::vector<KernelProfile> kernel_profiles() {
  detail::Runtime::get().finish_all();
  Ledger& l = ledger();
  std::lock_guard<std::mutex> lock(l.mu);
  std::vector<KernelProfile> out;
  out.reserve(l.kernels.size());
  for (const auto& [key, profile] : l.kernels) out.push_back(profile);
  return out;  // map order == sorted by (kernel, device)
}

std::vector<TransferProfile> transfer_profiles() {
  detail::Runtime::get().finish_all();
  Ledger& l = ledger();
  std::lock_guard<std::mutex> lock(l.mu);
  std::vector<TransferProfile> out;
  out.reserve(l.transfers.size());
  for (const auto& [key, profile] : l.transfers) out.push_back(profile);
  return out;
}

std::string profiler_report() {
  const ProfileSnapshot snap = profile();
  const std::vector<KernelProfile> kernels = kernel_profiles();
  const std::vector<TransferProfile> transfers = transfer_profiles();

  std::ostringstream os;
  os << "=== HPL profiler report ===\n\n";

  // Fig. 7-style decomposition: where did the modeled time go?
  {
    const double total = snap.total_seconds();
    auto share = [&](double part) {
      return total > 0 ? fmt_pct(part / total) : "-";
    };
    hplrepro::Table table({"phase", "time (ms)", "share"});
    table.add_row({"host (capture+codegen+build+marshal)",
                   fmt_ms(snap.host_seconds), share(snap.host_seconds)});
    table.add_row({"device kernels (simulated)",
                   fmt_ms(snap.kernel_sim_seconds),
                   share(snap.kernel_sim_seconds)});
    table.add_row({"transfers (simulated)",
                   fmt_ms(snap.transfer_sim_seconds),
                   share(snap.transfer_sim_seconds)});
    table.add_row({"total", fmt_ms(total), total > 0 ? "100%" : "-"});
    table.print(os);
  }

  os << "\nLaunches: " << snap.kernel_launches
     << "  cache hits: " << snap.kernel_cache_hits
     << "  misses: " << snap.kernel_cache_misses
     << "  builds: " << snap.kernels_built << "\n";

  if (!kernels.empty()) {
    os << "\nPer kernel, per device (simulated ms by timing component):\n";
    hplrepro::Table table({"kernel", "device", "launches", "hits", "builds",
                           "compute", "gmem", "lmem", "barrier", "launch",
                           "total", "traffic", "fused"});
    for (const auto& k : kernels) {
      table.add_row({k.kernel, k.device, std::to_string(k.launches),
                     std::to_string(k.cache_hits), std::to_string(k.builds),
                     fmt_ms(k.sim.compute_s), fmt_ms(k.sim.global_mem_s),
                     fmt_ms(k.sim.local_mem_s), fmt_ms(k.sim.barrier_s),
                     fmt_ms(k.sim.launch_s), fmt_ms(k.sim.total_s),
                     fmt_bytes(k.global_bytes), fmt_pct(k.fused_ratio())});
    }
    table.print(os);
  }

  if (!transfers.empty()) {
    os << "\nCoherence transfers per device:\n";
    hplrepro::Table table({"device", "h->d", "h->d bytes", "d->h",
                           "d->h bytes", "sim (ms)"});
    for (const auto& t : transfers) {
      table.add_row({t.device, std::to_string(t.to_device_count),
                     fmt_bytes(t.to_device_bytes),
                     std::to_string(t.to_host_count),
                     fmt_bytes(t.to_host_bytes), fmt_ms(t.sim_seconds)});
    }
    table.print(os);
  }

  return os.str();
}

void trace_to(const std::string& path) { hplrepro::trace::trace_to(path); }

void metrics_to(const std::string& path) {
  hplrepro::metrics::metrics_to(path);
}

std::string metrics_report() {
  // Quiesce so in-flight completion callbacks (settle_launch) have landed
  // before the registry is read.
  detail::Runtime::get().finish_all();
  return hplrepro::metrics::report(hplrepro::metrics::snapshot());
}

bool metrics_write(const std::string& path) {
  detail::Runtime::get().finish_all();
  return hplrepro::metrics::write_json(path);
}

namespace detail {

void settle_launch(LaunchRecord& r, const hplrepro::clsim::Event* event) {
  {
    Ledger& l = ledger();
    std::lock_guard<std::mutex> lock(l.mu);
    KernelProfile& p = kernel_row(l, r.kernel, r.device);
    p.launches += 1;
    if (r.cache_hit) p.cache_hits += 1;
    l.host_seconds += r.host_seconds;
    if (event != nullptr) {
      // The event has settled, so its profiling accessors do not block.
      const auto& stats = event->stats();
      p.sim += event->timing();
      p.ops += stats.total_ops();
      p.fused_ops += stats.fused_ops;
      p.global_bytes += stats.global_load_bytes + stats.global_store_bytes;
      l.sim_wall_seconds += event->wall_seconds();
    }
  }
  if (!r.metrics_on) return;
  namespace metrics = hplrepro::metrics;
  static auto& launches = metrics::counter("hpl.eval.launches");
  static auto& hits = metrics::counter("hpl.cache.hit");
  static auto& misses = metrics::counter("hpl.cache.miss");
  static auto& host_ns = metrics::histogram("hpl.eval.host_ns");
  static auto& latency = metrics::histogram("hpl.eval.latency_ns");
  auto to_ns = [](double us) {
    return us > 0 ? static_cast<std::uint64_t>(us * 1e3) : 0;
  };
  launches.add_always(1);
  (r.cache_hit ? hits : misses).add_always(1);
  host_ns.record_always(to_ns(r.host_seconds * 1e6));
  if (event == nullptr) return;
  // Every command of the launch completed at or before the kernel
  // (transfers are ordered ahead of it), so these accessors never block.
  r.kernel_start_us = event->host_started_us();
  r.kernel_end_us = r.done_us = event->host_ended_us();
  for (const auto& t : r.transfers) {
    r.transfer_windows.emplace_back(t.host_started_us(), t.host_ended_us());
  }
  latency.record_always(to_ns(r.done_us - r.start_us));
  metrics::record_critical_path(r);
}

void ledger_build(const std::string& kernel, const std::string& device) {
  Ledger& l = ledger();
  std::lock_guard<std::mutex> lock(l.mu);
  kernel_row(l, kernel, device).builds += 1;
}

void ledger_transfer(const std::string& device, TransferKind kind,
                     std::uint64_t bytes,
                     const hplrepro::clsim::Event& event) {
  Ledger& l = ledger();
  std::lock_guard<std::mutex> lock(l.mu);
  auto [it, added] = l.transfers.try_emplace(device);
  TransferProfile& t = it->second;
  if (added) t.device = device;
  switch (kind) {
    case TransferKind::HostToDevice:
      t.to_device_count += 1;
      t.to_device_bytes += bytes;
      break;
    case TransferKind::DeviceToHost:
      t.to_host_count += 1;
      t.to_host_bytes += bytes;
      break;
    case TransferKind::DeviceToDevice:
      t.d2d_count += 1;
      t.d2d_bytes += bytes;
      break;
  }
  t.sim_seconds += event.sim_seconds();
  l.sim_wall_seconds += event.wall_seconds();
}

void ledger_host_seconds(double seconds) {
  Ledger& l = ledger();
  std::lock_guard<std::mutex> lock(l.mu);
  l.host_seconds += seconds;
}

}  // namespace detail
}  // namespace HPL
