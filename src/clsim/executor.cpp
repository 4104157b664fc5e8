#include "clsim/executor.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <type_traits>

#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace hplrepro::clsim {

using clc::CoalescingTracker;
using clc::ExecStats;
using clc::LaunchInfo;
using clc::MemoryEnv;
using clc::RegItemVM;
using clc::RunStatus;
using clc::WorkGroupVM;
using clc::WorkItemInfo;
using clc::WorkItemVM;

namespace {
// Tests adjust the budget while benchmark launches may be in flight on pool
// threads; atomic (relaxed — it is a plain tuning knob, not a
// synchronisation point) keeps that race benign. Each launch snapshots the
// value once and hands it to its group runners.
std::atomic<std::uint64_t> g_work_item_fuel{1ull << 33};  // ~8.6e9 ops/item
}

void set_work_item_fuel(std::uint64_t fuel) {
  g_work_item_fuel.store(fuel, std::memory_order_relaxed);
}
std::uint64_t work_item_fuel() {
  return g_work_item_fuel.load(std::memory_order_relaxed);
}

namespace {

std::vector<std::size_t> divisors_up_to(std::size_t n, std::size_t cap) {
  std::vector<std::size_t> out;
  for (std::size_t d = 1; d <= n && d <= cap; ++d) {
    if (n % d == 0) out.push_back(d);
  }
  return out;
}

}  // namespace

NDRange choose_local_range(const NDRange& global, std::size_t max_group) {
  NDRange local;
  local.dims = global.dims;
  // Enumerate divisor combinations and keep the one that (a) maximizes the
  // smallest per-dimension extent, then (b) maximizes total group size,
  // then (c) minimizes the max/min spread. Greedy largest-first factoring
  // would hand all 256 items to dimension 0 (256x1 strips for a 512x512
  // global); balanced divisors keep groups square-ish, which matters once
  // co-execution chunking shrinks the split dimension.
  std::vector<std::size_t> divs[3];
  for (int d = 0; d < global.dims; ++d) {
    divs[d] = divisors_up_to(global.sizes[d], max_group);
  }
  for (int d = global.dims; d < 3; ++d) divs[d] = {1};

  std::size_t best[3] = {1, 1, 1};
  std::size_t best_min = 0, best_total = 0, best_spread = ~std::size_t{0};
  for (std::size_t a : divs[0]) {
    for (std::size_t b : divs[1]) {
      if (a * b > max_group) break;  // divisors ascend
      for (std::size_t c : divs[2]) {
        const std::size_t total = a * b * c;
        if (total > max_group) break;
        std::size_t lo = a, hi = a;
        if (global.dims > 1) { lo = std::min(lo, b); hi = std::max(hi, b); }
        if (global.dims > 2) { lo = std::min(lo, c); hi = std::max(hi, c); }
        const std::size_t spread = hi - lo;
        const bool better =
            lo > best_min ||
            (lo == best_min &&
             (total > best_total ||
              (total == best_total && spread < best_spread)));
        if (better) {
          best[0] = a;
          best[1] = b;
          best[2] = c;
          best_min = lo;
          best_total = total;
          best_spread = spread;
        }
      }
    }
  }
  for (int d = 0; d < 3; ++d) local.sizes[d] = best[d];
  return local;
}

namespace {

struct GroupGrid {
  std::size_t counts[3];
  std::size_t total() const { return counts[0] * counts[1] * counts[2]; }
};

/// Runs all work-items of one work-group to completion, honouring
/// barriers. Reuses the caller's VM pool, local arena and phase-tracking
/// scratch across groups. `VM` is WorkItemVM (stack form), RegItemVM
/// (register form) — both expose the same reset/run/set_fuel protocol —
/// or WorkGroupVM, which executes the whole group itself via work-item
/// loops (one prepare per chunk, one run_group call per group).
template <class VM>
class GroupRunner {
public:
  static constexpr bool kIsWG = std::is_same_v<VM, WorkGroupVM>;

  GroupRunner(const clc::Module& module, const clc::CompiledFunction& kernel,
              std::span<const clc::Value> args,
              std::span<std::span<std::byte>> buffers,
              const LaunchInfo& launch, const DeviceSpec& device,
              std::uint64_t extra_local_bytes, std::uint64_t fuel)
      : module_(module),
        kernel_(kernel),
        args_(args),
        buffers_(buffers),
        launch_(launch) {
    // Devices that do not model coalescing (the CPU) get no tracker. The
    // register VMs index one slot per memory instruction of the module.
    if (device.models_coalescing) {
      tracker_.emplace(device.warp_size, device.segment_bytes,
                       module.mem_slots);
    }
    local_arena_.resize(kernel.local_bytes + extra_local_bytes);
    group_items_ = launch.local_size[0] * launch.local_size[1] *
                   launch.local_size[2];
    if constexpr (kIsWG) {
      // One activation runs the whole group as work-item loops; barriers
      // are handled inside run_group, so no per-item VMs or phase flags.
      vms_.resize(1);
      vms_[0].prepare(module, kernel, args, buffers, launch,
                      tracker_ ? &*tracker_ : nullptr);
    } else {
      if (!kernel.uses_barrier) {
        vms_.resize(1);
      } else {
        vms_.resize(group_items_);
        done_.resize(group_items_);
      }
    }
    for (VM& vm : vms_) vm.set_fuel(fuel);
    // Local ids and linear indices are the same in every group; only the
    // WorkGroupInfo the items point at changes per group.
    items_.resize(group_items_);
    std::size_t linear = 0;
    for (std::size_t lz = 0; lz < launch.local_size[2]; ++lz) {
      for (std::size_t ly = 0; ly < launch.local_size[1]; ++ly) {
        for (std::size_t lx = 0; lx < launch.local_size[0]; ++lx) {
          WorkItemInfo& item = items_[linear];
          item.local_id[0] = lx;
          item.local_id[1] = ly;
          item.local_id[2] = lz;
          item.linear_in_group = linear;
          item.group = &group_;
          ++linear;
        }
      }
    }
  }

  // items_ point at group_.
  GroupRunner(const GroupRunner&) = delete;
  GroupRunner& operator=(const GroupRunner&) = delete;

  /// Work-item loop trips / item-region executions accumulated by this
  /// runner's VM (wg mode only; zero otherwise). Feed the vm.wg_loop_trips
  /// and vm.regions metrics.
  std::uint64_t wg_loop_trips() const {
    if constexpr (kIsWG) {
      return vms_[0].loop_trips();
    } else {
      return 0;
    }
  }
  std::uint64_t wg_regions() const {
    if constexpr (kIsWG) {
      return vms_[0].regions_executed();
    } else {
      return 0;
    }
  }

  void run_group(std::size_t gx, std::size_t gy, std::size_t gz,
                 ExecStats& stats) {
    // Zero only the statically declared __local range. Dynamic __local
    // (extra_local_bytes, set per launch like clSetKernelArg with a size)
    // is uninitialised on real devices; leaving it untouched is still
    // deterministic across interpreters because every mode performs the
    // identical store sequence before any read.
    if (kernel_.local_bytes != 0) {
      std::fill_n(local_arena_.begin(), kernel_.local_bytes, std::byte{0});
    }
    MemoryEnv mem{buffers_, std::span<std::byte>(local_arena_)};
    CoalescingTracker* tracker = tracker_ ? &*tracker_ : nullptr;

    const std::size_t group_id[3] = {gx, gy, gz};
    for (int d = 0; d < 3; ++d) {
      group_.group_id[d] = group_id[d];
      group_.global_base[d] = group_id[d] * launch_.local_size[d];
    }

    if constexpr (kIsWG) {
      // Work-group mode: the VM loops every item of the group over each
      // barrier-delimited region on one activation; barrier phasing and
      // the divergent-barrier trap live inside run_group.
      vms_[0].run_group(mem, launch_, items_.data(), stats, tracker);
    } else if (!kernel_.uses_barrier) {
      // Fast path: one VM reused; every item runs to completion.
      VM& vm = vms_[0];
      for (std::size_t i = 0; i < group_items_; ++i) {
        vm.reset(module_, kernel_, args_);
        const RunStatus status =
            vm.run(mem, launch_, items_[i], stats, tracker);
        if (status != RunStatus::Done) {
          throw clc::TrapError(
              "kernel reached a barrier not seen at compile time");
        }
      }
    } else {
      // Barrier-capable path: all items live simultaneously; execute in
      // phases delimited by barriers.
      for (std::size_t i = 0; i < group_items_; ++i) {
        vms_[i].reset(module_, kernel_, args_);
      }
      std::size_t done_count = 0;
      std::fill(done_.begin(), done_.end(), char{0});
      while (done_count < group_items_) {
        std::size_t finished_this_phase = 0;
        std::size_t at_barrier = 0;
        std::uint64_t site = 0;
        bool diverged = false;
        for (std::size_t i = 0; i < group_items_; ++i) {
          if (done_[i]) continue;
          const RunStatus status =
              vms_[i].run(mem, launch_, items_[i], stats, tracker);
          if (status == RunStatus::Done) {
            done_[i] = 1;
            ++done_count;
            ++finished_this_phase;
          } else if (at_barrier++ == 0) {
            site = vms_[i].barrier_site();
          } else if (vms_[i].barrier_site() != site) {
            diverged = true;
          }
        }
        // OpenCL requires that if any item of a group reaches a barrier,
        // every item reaches the same one. Mixed outcomes within one phase
        // mean the program would deadlock on real hardware; report it
        // instead of silently releasing the barrier.
        if (at_barrier != 0 && finished_this_phase != 0) {
          throw clc::TrapError(
              "divergent barrier: some work-items exited while others wait "
              "at a barrier");
        }
        if (diverged) {
          throw clc::TrapError(
              "divergent barrier: work-items of a group wait at different "
              "barriers");
        }
      }
    }

    stats.items += group_items_;
    stats.groups += 1;
    if (tracker) stats.global_transactions += tracker->finish();
  }

private:
  const clc::Module& module_;
  const clc::CompiledFunction& kernel_;
  std::span<const clc::Value> args_;
  std::span<std::span<std::byte>> buffers_;
  const LaunchInfo& launch_;
  std::optional<CoalescingTracker> tracker_;
  std::vector<std::byte> local_arena_;
  std::vector<VM> vms_;
  clc::WorkGroupInfo group_;  // the running group, which items_ point at
  std::vector<WorkItemInfo> items_;
  std::vector<char> done_;  // per-item phase flag, reused across groups
  std::size_t group_items_ = 0;
};

}  // namespace

void validate_launch(const clc::CompiledFunction& kernel,
                     const NDRange& global, const NDRange& local,
                     const DeviceSpec& device,
                     std::uint64_t extra_local_bytes) {
  if (global.dims != local.dims) {
    throw InvalidArgument("global and local ranges must have equal rank");
  }
  for (int d = 0; d < 3; ++d) {
    if (local.sizes[d] == 0 || global.sizes[d] % local.sizes[d] != 0) {
      throw InvalidArgument(
          "local size must evenly divide global size in every dimension");
    }
  }
  if (kernel.uses_double && !device.supports_double) {
    throw InvalidArgument("device '" + device.name +
                          "' does not support double precision");
  }
  if (kernel.local_bytes + extra_local_bytes > device.local_mem_bytes) {
    throw InvalidArgument("kernel needs more __local memory than device '" +
                          device.name + "' provides");
  }
}

LaunchResult execute_ndrange(const clc::Module& module,
                             const clc::CompiledFunction& kernel,
                             std::span<const clc::Value> args,
                             std::span<std::span<std::byte>> buffers,
                             const NDRange& global, const NDRange& local,
                             const DeviceSpec& device,
                             hplrepro::ThreadPool& pool,
                             std::uint64_t extra_local_bytes,
                             const LaunchSlice* slice) {
  hplrepro::Stopwatch wall;
  trace::Span span(kernel.name.c_str(), "vm");

  validate_launch(kernel, global, local, device, extra_local_bytes);
  LaunchInfo launch;
  launch.work_dim = global.dims;
  // The LaunchInfo always describes the FULL launch — work-items in a
  // sliced launch must see the same get_global_size/get_num_groups as the
  // unsplit launch. Only the iteration grid below is narrowed.
  GroupGrid grid{};
  for (int d = 0; d < 3; ++d) {
    launch.global_size[d] = global.sizes[d];
    launch.local_size[d] = local.sizes[d];
    launch.num_groups[d] = global.sizes[d] / local.sizes[d];
    grid.counts[d] = launch.num_groups[d];
  }

  std::size_t group_offset[3] = {0, 0, 0};
  if (slice != nullptr) {
    if (slice->dim < 0 || slice->dim >= global.dims) {
      throw InvalidArgument("launch slice dimension out of range");
    }
    if (slice->group_count == 0 ||
        slice->group_begin + slice->group_count >
            launch.num_groups[slice->dim]) {
      throw InvalidArgument("launch slice exceeds the group grid");
    }
    grid.counts[slice->dim] = slice->group_count;
    group_offset[slice->dim] = slice->group_begin;
  }

  const std::size_t total_groups = grid.total();

  ExecStats total_stats;
  std::mutex stats_mutex;
  std::uint64_t wg_trips = 0;    // work-item loop trips (wg mode only)
  std::uint64_t wg_regions = 0;  // item-region executions (wg mode only)
  const std::uint64_t fuel = work_item_fuel();  // one snapshot per launch

  auto run_with = [&](auto vm_tag) {
    using VM = typename decltype(vm_tag)::type;
    pool.parallel_for_chunked(
        total_groups, [&](std::size_t begin, std::size_t end) {
          GroupRunner<VM> runner(module, kernel, args, buffers, launch,
                                 device, extra_local_bytes, fuel);
          ExecStats chunk_stats;
          for (std::size_t g = begin; g < end; ++g) {
            const std::size_t gx =
                g % grid.counts[0] + group_offset[0];
            const std::size_t gy =
                (g / grid.counts[0]) % grid.counts[1] + group_offset[1];
            const std::size_t gz =
                g / (grid.counts[0] * grid.counts[1]) + group_offset[2];
            runner.run_group(gx, gy, gz, chunk_stats);
          }
          std::lock_guard lock(stats_mutex);
          total_stats += chunk_stats;
          wg_trips += runner.wg_loop_trips();
          wg_regions += runner.wg_regions();
        });
  };
  // Modules built with -cl-interp=threaded carry the register form; run it
  // with the direct-threaded VM — in work-group mode (work-item loops) when
  // the build's -cl-wg-loops analysis marked this kernel eligible, else one
  // item per activation. Stack-only modules (or lowering fallback) use the
  // reference stack interpreter.
  const auto kernel_index =
      static_cast<std::size_t>(&kernel - module.functions.data());
  const bool use_wg =
      module.has_wg_form() && module.wg_info[kernel_index].eligible;
  if (use_wg) {
    run_with(std::type_identity<WorkGroupVM>{});
  } else if (module.has_reg_form()) {
    run_with(std::type_identity<RegItemVM>{});
  } else {
    run_with(std::type_identity<WorkItemVM>{});
  }

  LaunchResult result;
  result.stats = total_stats;
  result.timing = simulate_kernel_time(total_stats, device);
  result.wall_seconds = wall.seconds();
  if (metrics::enabled()) {
    static auto& launches = metrics::counter("vm.launches");
    static auto& ops = metrics::counter("vm.ops");
    static auto& fused = metrics::counter("vm.fused_ops");
    static auto& items = metrics::counter("vm.items");
    static auto& groups = metrics::counter("vm.groups");
    static auto& global_bytes = metrics::counter("vm.global_bytes");
    static auto& barriers = metrics::counter("vm.barriers");
    static auto& wg_launches = metrics::counter("vm.wg_launches");
    static auto& wg_loop_trips = metrics::counter("vm.wg_loop_trips");
    static auto& regions = metrics::counter("vm.regions");
    static auto& launch_wall =
        metrics::histogram("vm.launch.wall_ns");
    launches.add_always(1);
    ops.add_always(total_stats.total_ops());
    fused.add_always(total_stats.fused_ops);
    items.add_always(total_stats.items);
    groups.add_always(total_stats.groups);
    global_bytes.add_always(total_stats.global_load_bytes +
                            total_stats.global_store_bytes);
    barriers.add_always(total_stats.barriers_executed);
    wg_launches.add_always(use_wg ? 1 : 0);
    wg_loop_trips.add_always(wg_trips);
    regions.add_always(wg_regions);
    launch_wall.record_seconds(result.wall_seconds);
  }
  span.arg("device", device.name)
      .arg("groups", total_stats.groups)
      .arg("items", total_stats.items)
      .arg("ops", total_stats.total_ops())
      .arg("sim_ms", result.timing.total_s * 1e3);
  return result;
}

}  // namespace hplrepro::clsim
