#ifndef HPLREPRO_HPL_RUNTIME_HPP
#define HPLREPRO_HPL_RUNTIME_HPP

/// \file runtime.hpp
/// The HPL runtime: device table (one context + queue per simulated
/// device), the kernel cache and coherent transfers. Its launches, builds
/// and transfers are accounted in the ledger (trace.hpp), of which
/// profile() is a view.
/// All of this is machinery the user never sees — the paper's point is
/// precisely that eval() hides it.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "clsim/runtime.hpp"
#include "hpl/array_impl.hpp"
#include "hpl/builder.hpp"

namespace HPL {

namespace detail {
class Runtime;
}

/// Handle to a computing device usable with eval(...).device(d).
class Device {
public:
  Device() = default;

  const std::string& name() const;
  bool supports_double() const;
  bool is_cpu() const;

  /// All devices of the platform, in discovery order.
  static std::vector<Device> all();
  /// The default device: the first one that is not a general-purpose CPU
  /// (paper §III-C); falls back to the CPU if there is no accelerator.
  static Device default_device();
  /// First device whose name contains `needle` (e.g. "Tesla", "Quadro").
  static std::optional<Device> by_name(const std::string& needle);
  /// The simulated host CPU device (used as the serial baseline).
  static Device cpu_device();

  int index() const { return index_; }
  bool operator==(const Device& o) const { return index_ == o.index_; }

private:
  friend class detail::Runtime;
  explicit Device(int index) : index_(index) {}
  int index_ = -1;  // -1 = default device
};

/// Aggregated profiling counters for HPL activity, summed from the ledger
/// rows (trace.hpp) by profile(). Simulated seconds come
/// from the device timing model; host seconds are real wall-clock spent in
/// eval (capture, code generation, builds, argument marshalling) excluding
/// the wall time used to *simulate* the device.
struct ProfileSnapshot {
  double host_seconds = 0;           // eval overhead (real)
  double kernel_sim_seconds = 0;     // simulated device execution
  double transfer_sim_seconds = 0;   // simulated host<->device transfers
  /// Commands that reached a queue, including ones that trapped; a launch
  /// the device rejects at enqueue is not one.
  std::uint64_t kernel_launches = 0;
  std::uint64_t kernels_built = 0;   // capture+codegen+build events
  /// Launches whose kernel was already captured AND built for the target
  /// device (no capture, codegen or compiler work). The cache outcome is
  /// recorded with the launch, so hits + misses == kernel_launches.
  std::uint64_t kernel_cache_hits = 0;
  std::uint64_t kernel_cache_misses = 0;
  std::uint64_t bytes_to_device = 0;
  std::uint64_t bytes_to_host = 0;
  /// Direct device-to-device reconciliation copies (co-execution merge
  /// steps that avoid a host round-trip).
  std::uint64_t bytes_device_to_device = 0;
  /// Host wall-clock consumed *simulating* device work (an artifact of the
  /// simulator, excluded from modeled time).
  double sim_wall_seconds = 0;

  /// Modeled time including transfers.
  double total_seconds() const {
    return host_seconds + kernel_sim_seconds + transfer_sim_seconds;
  }
  /// Modeled time excluding transfers (the paper's Figs. 6-8 convention).
  double total_seconds_no_transfer() const {
    return host_seconds + kernel_sim_seconds;
  }
};

/// Quiesces every queue, then sums the ledger.
ProfileSnapshot profile();
/// Quiesces every queue, then clears the ledger.
void reset_profile();

/// Drops all cached kernels (captured sources and built binaries). Used by
/// the benchmark harness to measure cold first-invocation behaviour.
void purge_kernel_cache();

/// Sets the clBuildProgram-style options used for every subsequent kernel
/// build (e.g. "-cl-opt-disable" to run generated kernels unoptimized).
/// Purges the kernel cache so already-built kernels are rebuilt with the
/// new options — unless the options are unchanged, in which case it is a
/// no-op (sweeps re-assert options per cell and must not lose the cache).
/// Throws InvalidArgument on an unrecognised option.
void set_kernel_build_options(const std::string& options);

/// The options set by set_kernel_build_options (default: "", which builds
/// at the driver default, -O2).
const std::string& kernel_build_options();

namespace detail {

/// Per-device runtime state.
struct DeviceEntry {
  hplrepro::clsim::Device device;
  std::unique_ptr<hplrepro::clsim::Context> context;
  std::unique_ptr<hplrepro::clsim::CommandQueue> queue;
};

/// A kernel built for one device.
struct BuiltKernel {
  std::unique_ptr<hplrepro::clsim::Program> program;
  std::unique_ptr<hplrepro::clsim::Kernel> kernel;
  /// Serializes bind-args + enqueue on this binary: clsim::Kernel arg
  /// slots are sticky (clSetKernelArg semantics), so two host threads
  /// launching the same built kernel must not interleave their set_arg
  /// sequences. unique_ptr keeps BuiltKernel movable.
  std::unique_ptr<std::mutex> launch_mutex =
      std::make_unique<std::mutex>();
};

/// A captured kernel: generated source plus per-device binaries. Cached by
/// kernel function address so repeat invocations skip capture, codegen and
/// compilation (paper §V-B). `body` and `predefined` keep the pre-codegen
/// pieces around so the fusion pass (fusion.hpp) can splice kernel bodies
/// together and re-run codegen on the result.
struct CachedKernel {
  std::string name;
  std::string source;
  std::vector<ParamSig> params;
  /// Captured statement lines (as emitted by KernelBuilder::body()).
  std::string body;
  /// Predefined work-item variables the body uses (idx, lidx, ...).
  std::vector<std::pair<std::string, std::string>> predefined;
  std::map<const hplrepro::clsim::DeviceSpec*, BuiltKernel> built;
};

/// While alive on a thread, collects every coherence-transfer event the
/// Runtime enqueues from that thread. eval() opens one around argument
/// marshalling so a launch knows exactly which transfers it caused —
/// their host execution windows feed the critical-path attribution.
/// Scopes nest (the inner one captures); cheap no-op when none is open.
class TransferCapture {
public:
  TransferCapture();
  ~TransferCapture();
  TransferCapture(const TransferCapture&) = delete;
  TransferCapture& operator=(const TransferCapture&) = delete;

  std::vector<hplrepro::clsim::Event> take() { return std::move(events_); }

  /// Called by the Runtime when it enqueues a transfer on this thread.
  static void note(const hplrepro::clsim::Event& event);

private:
  std::vector<hplrepro::clsim::Event> events_;
  TransferCapture* prev_ = nullptr;
};

class Runtime {
public:
  static Runtime& get();

  DeviceEntry& entry(const Device& device);
  DeviceEntry& default_entry();
  int device_count() const { return static_cast<int>(devices_.size()); }
  DeviceEntry& entry_at(int index);

  /// Cache lookup by kernel function address; nullptr on miss.
  CachedKernel* find_kernel(const void* fn);
  CachedKernel& insert_kernel(const void* fn, CachedKernel kernel);

  /// Fused-kernel cache, keyed by a content hash of the synthesized
  /// source (fusion.cpp): the same producer->consumer chain flushed again
  /// reuses the previously synthesized (and built) kernel. Same
  /// first-insert-wins contract as insert_kernel.
  CachedKernel* find_fused_kernel(const std::string& key);
  CachedKernel& insert_fused_kernel(const std::string& key,
                                    CachedKernel kernel);

  /// Ensures `cached` is built for `dev` and returns the binary. When
  /// `cache_hit` is non-null it is set to whether the binary was already
  /// built (no capture/codegen/compiler work happened).
  BuiltKernel& build_for(CachedKernel& cached, DeviceEntry& dev,
                         bool* cache_hit = nullptr);

  /// Ensures the array has a buffer on `dev` sized to its current dims.
  /// If an old, size-mismatched buffer holds the only valid copy of some
  /// region, its contents are rescued to the host before it is dropped.
  ArrayImpl::DeviceCopy& device_copy(ArrayImpl& impl, DeviceEntry& dev);

  /// Makes `range` of the device copy valid, transferring only the
  /// missing sub-ranges — from the host where it covers them, directly
  /// from a peer device copy (no host round-trip) otherwise. Transfers
  /// are enqueued asynchronously; ordering against other commands
  /// touching the array is carried by event wait-lists.
  void ensure_on_device(ArrayImpl& impl, DeviceEntry& dev,
                        ByteRange range);
  /// Whole-array convenience overload.
  void ensure_on_device(ArrayImpl& impl, DeviceEntry& dev);

  /// Records that a kernel wrote `range` of the device copy: the range
  /// becomes valid there and stale everywhere else. Other regions keep
  /// their validity, so co-executed chunks on different devices
  /// accumulate disjoint valid ranges instead of clobbering each other.
  void mark_device_written(ArrayImpl& impl, DeviceEntry& dev,
                           ByteRange range);
  /// Whole-array convenience overload.
  void mark_device_written(ArrayImpl& impl, DeviceEntry& dev);

  /// Enqueues the d2h reads that make `range` of the host copy current
  /// (gathering from every device holding a missing piece) without
  /// blocking; `impl.host_pending` tracks their completion.
  void make_host_current_async(ArrayImpl& impl, ByteRange range);
  void make_host_current_async(ArrayImpl& impl);

  /// make_host_current_async + blocks until the host copy is readable.
  /// Rethrows the error of a failed command that last wrote a copy it read
  /// from, unless a sync point already reported it.
  void sync_to_host(ArrayImpl& impl);

  /// Blocks until every enqueued command on every device has completed;
  /// rethrows the first deferred execution error, if any.
  void finish_all();

  /// The generated name of the kernel captured from `fn`: a fresh
  /// `hpl_kernel_<N>` on first sight, the same name again when the kernel
  /// is re-captured after purge_kernel_cache(), so the ledger (trace.hpp)
  /// keeps one row per kernel.
  std::string kernel_name(const void* fn);

  void clear_kernel_cache();

  /// Build options applied by build_for (see HPL::set_kernel_build_options).
  void set_build_options(std::string options);
  const std::string& build_options() const { return build_options_; }

private:
  Runtime();
  /// Flushes the DAG and quiesces every queue before member destruction
  /// begins, so no completion callback runs while the caches and queues
  /// are being torn down.
  ~Runtime();

  /// Enqueues one sub-range h2d upload and records its accounting.
  void upload_range(ArrayImpl& impl, DeviceEntry& dev,
                    ArrayImpl::DeviceCopy& copy, ByteRange range);

  std::vector<DeviceEntry> devices_;
  /// Guards kernel_cache_, kernel_names_, next_kernel_id_ and
  /// build_options_ (concurrent eval()s race on all of them).
  std::mutex kernel_mutex_;
  std::map<const void*, CachedKernel> kernel_cache_;
  std::map<std::string, CachedKernel> fused_cache_;
  /// Survives clear_kernel_cache(): see kernel_name().
  std::map<const void*, std::string> kernel_names_;
  std::string build_options_;
  int next_kernel_id_ = 0;
};

}  // namespace detail
}  // namespace HPL

#endif  // HPLREPRO_HPL_RUNTIME_HPP
