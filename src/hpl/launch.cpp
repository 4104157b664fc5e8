/// \file launch.cpp
/// The single HPL launch path (declared in fusion.hpp). launch_node() runs
/// one recorded eval — eager, flushed from the DAG, or one chunk of a
/// co-executed eval — and launch_coexec() plans a multi-device eval and
/// launches every chunk through launch_node().

#include <algorithm>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hpl/fusion.hpp"
#include "hpl/trace.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace HPL {
namespace detail {

namespace clsim = hplrepro::clsim;

/// How an array's outermost dimension maps onto the split NDRange
/// dimension of a co-executed launch.
enum class SplitMap {
  None,      // does not map; reads stay whole-array, writes forbid a split
  PerGroup,  // dims[0] == num_groups[split]: one row per work-group
  PerItem,   // dims[0] in (sizes[split]-local[split], sizes[split]]:
             // one row per work-item, guard-clamped at the tail
};

/// One chunk of a co-executed eval: the run of work-groups it launches and
/// how each argument's rows map onto them.
struct ChunkLaunch {
  clsim::LaunchSlice slice;
  /// Parallel to DagNode::args; None for scalars and unmapped arrays.
  std::vector<SplitMap> maps;
  std::size_t local_split = 1;  // local size along slice.dim
  /// Set by .halo(n): mapped-array reads narrow to the chunk's rows plus
  /// n rows on each side. Unset, reads stay whole-array: mapping only
  /// says which rows a chunk WRITES — a transposed or strided read of the
  /// same array can touch rows far outside them.
  std::optional<std::size_t> read_halo;
};

namespace {

struct BoundArray {
  ArrayImplPtr impl;
  bool written = false;
  int ndim = 0;
  /// The device copy the argument was bound to (stable address: the
  /// copies map never invalidates references). Used to thread event
  /// dependencies between the launch and cross-queue copies.
  ArrayImpl::DeviceCopy* copy = nullptr;
  SplitMap map = SplitMap::None;
};

/// Byte range of the outermost-dimension rows `chunk` touches in `impl`
/// under `map`, widened by `halo` rows on each side (clamped to the array).
ByteRange chunk_row_range(const ArrayImpl& impl, SplitMap map,
                          const ChunkLaunch& chunk, std::size_t halo) {
  const std::size_t d0 = impl.dims[0];
  const std::size_t row_bytes = impl.bytes() / d0;
  const std::size_t begin = chunk.slice.group_begin;
  const std::size_t end = begin + chunk.slice.group_count;
  std::size_t row_begin, row_end;
  if (map == SplitMap::PerGroup) {
    row_begin = begin;
    row_end = end;
  } else {
    row_begin = begin * chunk.local_split;
    row_end = std::min(end * chunk.local_split, d0);
  }
  row_begin = row_begin > halo ? row_begin - halo : 0;
  row_end = std::min(row_end + halo, d0);
  return ByteRange{row_begin * row_bytes, row_end * row_bytes};
}

/// Completion-side accounting for one launch (or one co-execution chunk):
/// its ledger record, and — when metrics were on at enqueue — the latency
/// histogram and critical-path record, so the metrics invariants
/// (launches == latency count == critical-path evals) hold
/// launch-for-launch.
void account_launch_settled(clsim::Event& event, const std::string& name,
                            const std::string& dev_name, bool cache_hit,
                            double host_s, bool metrics_on,
                            std::vector<clsim::Event> transfers,
                            double eval_start_us, double enqueue_us,
                            double capture_us, double codegen_us,
                            double build_us, double marshal_us) {
  event.on_settled([name, dev_name, cache_hit, host_s, metrics_on,
                    transfers = std::move(transfers), eval_start_us,
                    enqueue_us, capture_us, codegen_us, build_us,
                    marshal_us](const clsim::Event& e, bool failed) {
    ledger_launch(name, dev_name, cache_hit, host_s, failed ? nullptr : &e);
    if (failed) return;
    // Gated on the *enqueue-time* decision so the launch counter, the
    // latency histogram and the critical-path log always agree even if
    // metrics are toggled while commands are in flight.
    if (metrics_on) {
      namespace metrics = hplrepro::metrics;
      // All of this eval's commands completed at or before the kernel
      // (transfers are ordered ahead of it), so the profiling accessors
      // below never block.
      const double done_us = e.host_ended_us();
      static auto& latency = metrics::histogram("hpl.eval.latency_ns");
      const double latency_us = done_us - eval_start_us;
      latency.record_always(
          latency_us > 0 ? static_cast<std::uint64_t>(latency_us * 1e3)
                         : 0);
      metrics::CriticalPathInput input;
      input.kernel = name;
      input.device = dev_name;
      input.start_us = eval_start_us;
      input.enqueue_us = enqueue_us;
      input.done_us = done_us;
      input.kernel_start_us = e.host_started_us();
      input.kernel_end_us = done_us;
      for (const auto& t : transfers) {
        input.transfer_windows.emplace_back(t.host_started_us(),
                                            t.host_ended_us());
      }
      input.capture_us = capture_us;
      input.codegen_us = codegen_us;
      input.build_us = build_us;
      input.marshal_us = marshal_us;
      metrics::record_critical_path(input);
    }
  });
}

}  // namespace

clsim::Event launch_node(Runtime& rt, DagNode& node,
                         const ChunkLaunch* chunk) {
  hplrepro::Stopwatch host_watch;
  const bool metrics_on = node.metrics_on;
  DeviceEntry& dev = *node.dev;
  CachedKernel& cached = *node.cached;

  bool cache_hit = false;
  std::optional<hplrepro::Stopwatch> build_watch;
  if (metrics_on) build_watch.emplace();
  BuiltKernel& built = rt.build_for(cached, dev, &cache_hit);
  const double build_us = build_watch.has_value() && !cache_hit
                              ? build_watch->seconds() * 1e6
                              : 0.0;

  std::vector<BoundArray> arrays;
  TransferCapture transfer_capture;
  double marshal_us = 0;
  clsim::Event event;
  {
    std::lock_guard<std::mutex> launch_lock(*built.launch_mutex);
    {
      hplrepro::trace::Span span("marshal", "hpl");
      std::optional<hplrepro::Stopwatch> watch;
      if (metrics_on) watch.emplace();
      span.arg("kernel", cached.name);
      for (std::size_t i = 0; i < node.args.size(); ++i) {
        const NodeArg& a = node.args[i];
        const unsigned ui = static_cast<unsigned>(i);
        if (a.impl != nullptr) {
          const ParamAccess access = cached.params[i].access;
          const SplitMap map = chunk != nullptr ? chunk->maps[i]
                                                : SplitMap::None;
          if (access.read) {
            if (map != SplitMap::None && chunk->read_halo.has_value()) {
              rt.ensure_on_device(
                  *a.impl, dev,
                  chunk_row_range(*a.impl, map, *chunk, *chunk->read_halo));
            } else {
              rt.ensure_on_device(*a.impl, dev);
            }
          }
          auto& copy = rt.device_copy(*a.impl, dev);
          built.kernel->set_arg(ui, *copy.buffer);
          arrays.push_back({a.impl, access.written, a.ndim, &copy, map});
        } else {
          switch (a.scalar.kind) {
            case ScalarValue::Kind::F32:
              built.kernel->set_arg(ui, static_cast<float>(a.scalar.f));
              break;
            case ScalarValue::Kind::F64:
              built.kernel->set_arg(ui, a.scalar.f);
              break;
            case ScalarValue::Kind::I64:
              built.kernel->set_arg(ui, a.scalar.i);
              break;
            case ScalarValue::Kind::U64:
              built.kernel->set_arg(ui, a.scalar.u);
              break;
          }
        }
      }
      if (watch.has_value()) marshal_us = watch->seconds() * 1e6;
    }

    // Hidden dimension-size arguments (rank >= 2), in parameter order.
    unsigned hidden = static_cast<unsigned>(node.args.size());
    for (const auto& bound : arrays) {
      for (int d = 1; d < bound.ndim; ++d) {
        built.kernel->set_arg(
            hidden++,
            static_cast<std::uint32_t>(
                bound.impl->dims[static_cast<std::size_t>(d)]));
      }
    }

    // Cross-queue writes into any bound buffer (pending d2d merges) are
    // not serialized by this queue; carry them in the wait-list.
    std::vector<clsim::Event> deps;
    for (const auto& bound : arrays) {
      for (const auto& e : bound.copy->pending_d2d) {
        if (!e.complete()) deps.push_back(e);
      }
      bound.copy->pending_d2d.clear();
    }

    std::optional<clsim::LaunchSlice> slice;
    if (chunk != nullptr) slice = chunk->slice;
    hplrepro::trace::Span span("launch", "hpl");
    try {
      event = dev.queue->enqueue_ndrange_kernel(
          *built.kernel, node.global, node.local, std::move(deps), slice);
    } catch (const hplrepro::clc::TrapError&) {
      // Sync mode surfaces the deferred execution error at the enqueue;
      // account it exactly like an async failed launch, then rethrow.
      ledger_launch(cached.name, dev.device.name(), cache_hit,
                    /*host_seconds=*/0.0, /*event=*/nullptr);
      throw;
    }
    if (span.active()) {
      span.arg("kernel", cached.name)
          .arg("device", dev.device.name())
          .arg("cache_hit", static_cast<std::uint64_t>(cache_hit))
          .arg("opt_report", built.program->opt_report().summary());
      if (slice.has_value()) {
        span.arg("slice_begin",
                 static_cast<std::uint64_t>(slice->group_begin))
            .arg("slice_count",
                 static_cast<std::uint64_t>(slice->group_count));
      }
    }
  }

  for (const auto& bound : arrays) {
    if (bound.written) {
      if (chunk != nullptr) {
        rt.mark_device_written(*bound.impl, dev,
                               chunk_row_range(*bound.impl, bound.map,
                                               *chunk, 0));
      } else {
        rt.mark_device_written(*bound.impl, dev);
      }
    }
    bound.copy->last_event = event;  // incoming d2d must order after us
  }

  const double enqueue_us = metrics_on ? hplrepro::trace::now_us() : 0.0;
  const double sim_wall =
      clsim::async_enabled() ? 0.0 : event.wall_seconds();
  const double host_s = host_watch.seconds() - sim_wall;
  account_launch_settled(event, cached.name, dev.device.name(), cache_hit,
                         host_s, metrics_on, transfer_capture.take(),
                         node.eval_start_us, enqueue_us, node.capture_us,
                         node.codegen_us, build_us, marshal_us);
  if (metrics_on) {
    namespace metrics = hplrepro::metrics;
    static auto& launches = metrics::counter("hpl.eval.launches");
    static auto& hits = metrics::counter("hpl.cache.hit");
    static auto& misses = metrics::counter("hpl.cache.miss");
    static auto& host_ns = metrics::histogram("hpl.eval.host_ns");
    launches.add_always(1);
    (cache_hit ? hits : misses).add_always(1);
    host_ns.record_always(
        host_s > 0 ? static_cast<std::uint64_t>(host_s * 1e9) : 0);
  }
  return event;
}

void launch_coexec(Runtime& rt, DagNode& node,
                   const std::vector<Device>& devices,
                   hplrepro::coexec::Policy policy,
                   std::optional<int> split_dim,
                   std::optional<std::size_t> halo) {
  namespace coexec = hplrepro::coexec;
  const clsim::NDRange& global = node.global;

  // The split plan needs the concrete work-group geometry, so resolve the
  // local range now (identically for every device) instead of letting
  // each enqueue pick one.
  const clsim::NDRange local =
      node.local.has_value() ? *node.local : clsim::choose_local_range(global);
  for (int d = 0; d < global.dims; ++d) {
    if (local.sizes[d] == 0 || global.sizes[d] % local.sizes[d] != 0) {
      throw hplrepro::InvalidArgument(
          "HPL coexec: global size must be a multiple of the local size "
          "in every dimension");
    }
  }
  node.local = local;

  // --- Split dimension and per-array row mapping ---
  auto map_at = [&](const ArrayImpl& impl, int d) {
    const std::size_t g = global.sizes[d];
    const std::size_t l = local.sizes[d];
    const std::size_t d0 = impl.dims[0];
    if (d0 == g / l) return SplitMap::PerGroup;
    if (d0 <= g && d0 + l > g) return SplitMap::PerItem;
    return SplitMap::None;
  };
  auto written = [&](std::size_t i) {
    return node.args[i].impl != nullptr &&
           node.cached->params[i].access.written;
  };

  int split_d = -1;
  if (split_dim.has_value()) {
    split_d = *split_dim;
    if (split_d < 0 || split_d >= global.dims) {
      throw hplrepro::InvalidArgument(
          "HPL coexec: split_dim is not a dimension of the global range");
    }
  } else {
    // The first dimension every written array maps onto (dimension 0
    // when nothing is written).
    for (int d = 0; d < global.dims && split_d < 0; ++d) {
      bool ok = true;
      for (std::size_t i = 0; i < node.args.size(); ++i) {
        if (written(i) && map_at(*node.args[i].impl, d) == SplitMap::None) {
          ok = false;
        }
      }
      if (ok) split_d = d;
    }
    if (split_d < 0) {
      throw hplrepro::InvalidArgument(
          "HPL coexec: cannot infer a split dimension (no NDRange "
          "dimension maps onto the outermost dimension of every written "
          "array); force one with .split_dim(d)");
    }
  }

  ChunkLaunch chunk;
  chunk.slice.dim = split_d;
  chunk.local_split = local.sizes[split_d];
  chunk.read_halo = halo;
  chunk.maps.assign(node.args.size(), SplitMap::None);
  for (std::size_t i = 0; i < node.args.size(); ++i) {
    if (node.args[i].impl == nullptr) continue;
    chunk.maps[i] = map_at(*node.args[i].impl, split_d);
    if (written(i) && chunk.maps[i] == SplitMap::None) {
      throw hplrepro::InvalidArgument(
          "HPL coexec: a written array does not map onto the split "
          "dimension; its writes cannot be partitioned across devices");
    }
  }
  const std::size_t total_groups = global.sizes[split_d] / chunk.local_split;

  // Device entries in dispatcher-slot order. Guided chunks are sized by
  // relative computing power (compute units x clock): the Quadro must not
  // be primed with a Tesla-sized chunk.
  std::vector<DeviceEntry*> entries;
  std::vector<double> weights;
  for (const Device& d : devices) {
    entries.push_back(&rt.entry(d));
    const auto& spec = entries.back()->device.spec();
    weights.push_back(static_cast<double>(spec.compute_units) *
                      spec.clock_ghz);
  }

  // Every chunk is a full launch_node() launch: its own launch tick, cache
  // hit/miss, latency sample and critical-path record. The one-time
  // capture/codegen belongs to the first chunk's latency window, exactly
  // like a cold single-device eval; later chunks open their own window.
  // The dispatcher calls back from this thread only.
  std::vector<std::pair<clsim::Event, DeviceEntry*>> launched;
  const coexec::LaunchFn launch_fn =
      [&](const coexec::Chunk& c) -> std::function<double()> {
    if (!launched.empty()) {
      node.eval_start_us = node.metrics_on ? hplrepro::trace::now_us() : 0.0;
      node.capture_us = 0;
      node.codegen_us = 0;
    }
    node.dev = entries[static_cast<std::size_t>(c.slot)];
    chunk.slice.group_begin = c.begin;
    chunk.slice.group_count = c.count;
    clsim::Event event = launch_node(rt, node, &chunk);
    launched.emplace_back(event, node.dev);
    return [event]() { return event.sim_seconds(); };
  };

  try {
    coexec::dispatch(policy, total_groups, static_cast<int>(entries.size()),
                     launch_fn, weights);
  } catch (...) {
    // A failed chunk surfaces here, once: drain every chunk already
    // launched, then forget the queue errors they left behind so later
    // finish() calls do not report the same failure again.
    for (auto& [event, dev] : launched) {
      try {
        event.wait();
      } catch (...) {
      }
    }
    for (auto& [event, dev] : launched) dev->queue->consume_error(event);
    throw;
  }
}

}  // namespace detail
}  // namespace HPL
