#include "hpl/runtime.hpp"

#include <algorithm>
#include <cstring>

#include "hpl/fusion.hpp"
#include "hpl/trace.hpp"
#include "support/metrics.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace HPL {

namespace clsim = hplrepro::clsim;
namespace clc = hplrepro::clc;

// --- Device handle -------------------------------------------------------------

const std::string& Device::name() const {
  return detail::Runtime::get().entry(*this).device.name();
}

bool Device::supports_double() const {
  return detail::Runtime::get().entry(*this).device.supports_double();
}

bool Device::is_cpu() const {
  return detail::Runtime::get().entry(*this).device.type() ==
         clsim::DeviceType::Cpu;
}

std::vector<Device> Device::all() {
  auto& rt = detail::Runtime::get();
  std::vector<Device> out;
  for (int i = 0; i < rt.device_count(); ++i) out.push_back(Device(i));
  return out;
}

Device Device::default_device() {
  auto& rt = detail::Runtime::get();
  for (int i = 0; i < rt.device_count(); ++i) {
    if (rt.entry_at(i).device.type() != clsim::DeviceType::Cpu) {
      return Device(i);
    }
  }
  return Device(0);
}

std::optional<Device> Device::by_name(const std::string& needle) {
  auto& rt = detail::Runtime::get();
  for (int i = 0; i < rt.device_count(); ++i) {
    if (rt.entry_at(i).device.name().find(needle) != std::string::npos) {
      return Device(i);
    }
  }
  return std::nullopt;
}

Device Device::cpu_device() {
  auto& rt = detail::Runtime::get();
  for (int i = 0; i < rt.device_count(); ++i) {
    if (rt.entry_at(i).device.type() == clsim::DeviceType::Cpu) {
      return Device(i);
    }
  }
  return Device(0);
}

void purge_kernel_cache() { detail::Runtime::get().clear_kernel_cache(); }

void set_kernel_build_options(const std::string& options) {
  detail::Runtime::get().set_build_options(options);
}

const std::string& kernel_build_options() {
  return detail::Runtime::get().build_options();
}

namespace detail {

// --- TransferCapture -----------------------------------------------------------

namespace {
thread_local TransferCapture* tl_transfer_capture = nullptr;
}  // namespace

TransferCapture::TransferCapture() : prev_(tl_transfer_capture) {
  tl_transfer_capture = this;
}

TransferCapture::~TransferCapture() { tl_transfer_capture = prev_; }

void TransferCapture::note(const hplrepro::clsim::Event& event) {
  if (tl_transfer_capture != nullptr) {
    tl_transfer_capture->events_.push_back(event);
  }
}

// --- Runtime -------------------------------------------------------------------

Runtime::Runtime() {
  for (const auto& dev : clsim::Platform::get().devices()) {
    DeviceEntry entry{dev, nullptr, nullptr};
    entry.context = std::make_unique<clsim::Context>(dev);
    entry.queue = std::make_unique<clsim::CommandQueue>(*entry.context);
    devices_.push_back(std::move(entry));
  }
}

Runtime::~Runtime() {
  // Commands may still be pending at process exit (an eval whose result
  // was never read). Deferred DAG nodes launch first (they reference the
  // caches this destructor is about to tear down), then every queue is
  // drained, so every command settles into the ledger (trace.cpp) and no
  // completion callback runs during member destruction. Deferred errors
  // have nowhere to go from a destructor; swallow them.
  try {
    detail::flush_dag();
  } catch (...) {
  }
  for (auto& dev : devices_) {
    try {
      dev.queue->finish();
    } catch (...) {
    }
  }
}

Runtime& Runtime::get() {
  static Runtime instance;
  return instance;
}

DeviceEntry& Runtime::entry(const Device& device) {
  const int index = device.index();
  if (index < 0) return default_entry();
  return entry_at(index);
}

DeviceEntry& Runtime::default_entry() {
  return entry(Device::default_device());
}

DeviceEntry& Runtime::entry_at(int index) {
  if (index < 0 || index >= device_count()) {
    throw hplrepro::InvalidArgument("HPL: bad device index");
  }
  return devices_[static_cast<std::size_t>(index)];
}

CachedKernel* Runtime::find_kernel(const void* fn) {
  std::lock_guard<std::mutex> lock(kernel_mutex_);
  auto it = kernel_cache_.find(fn);
  return it == kernel_cache_.end() ? nullptr : &it->second;
}

CachedKernel& Runtime::insert_kernel(const void* fn, CachedKernel kernel) {
  std::lock_guard<std::mutex> lock(kernel_mutex_);
  // First insert wins: two threads may have captured the same kernel
  // concurrently, and the loser's copy must not destroy the CachedKernel
  // a concurrent eval is already building against.
  return kernel_cache_.try_emplace(fn, std::move(kernel)).first->second;
}

CachedKernel* Runtime::find_fused_kernel(const std::string& key) {
  std::lock_guard<std::mutex> lock(kernel_mutex_);
  auto it = fused_cache_.find(key);
  return it == fused_cache_.end() ? nullptr : &it->second;
}

CachedKernel& Runtime::insert_fused_kernel(const std::string& key,
                                           CachedKernel kernel) {
  std::lock_guard<std::mutex> lock(kernel_mutex_);
  return fused_cache_.try_emplace(key, std::move(kernel)).first->second;
}

void Runtime::clear_kernel_cache() {
  // In-flight launches retain what they captured, but quiescing first keeps
  // "purge then measure cold behaviour" deterministic. finish_all also
  // flushes the eval DAG, so no deferred node is left holding a pointer
  // into the caches cleared below.
  finish_all();
  std::lock_guard<std::mutex> lock(kernel_mutex_);
  kernel_cache_.clear();
  fused_cache_.clear();
}

void Runtime::set_build_options(std::string options) {
  clc::CompileOptions parsed;
  std::string error;
  if (!clc::parse_build_options(options, parsed, error)) {
    throw hplrepro::InvalidArgument("HPL: " + error);
  }
  // Everything recorded under the old options must also launch (and
  // build) under them; flush before the swap.
  detail::flush_dag();
  // A "-cl-fusion" token drives the runtime fusion toggle; its absence
  // leaves the toggle alone (parsed.fusion merely holds the default then).
  const bool has_fusion_token =
      options.find("-cl-fusion") != std::string::npos;
  bool unchanged = false;
  {
    std::lock_guard<std::mutex> lock(kernel_mutex_);
    unchanged = options == build_options_;
    if (!unchanged) build_options_ = std::move(options);
  }
  if (unchanged) {  // keep the cache; the fusion token still applies
    if (has_fusion_token) apply_fusion_build_option(parsed.fusion);
    return;
  }
  // Cached binaries were built with the old options; force rebuilds.
  clear_kernel_cache();
  if (has_fusion_token) apply_fusion_build_option(parsed.fusion);
}

void Runtime::finish_all() {
  // Forcing point: "every command has completed" includes evals still
  // deferred on the DAG. Reentrancy-safe (flush_dag no-ops inside a flush).
  detail::flush_dag();
  for (auto& dev : devices_) dev.queue->finish();
}

BuiltKernel& Runtime::build_for(CachedKernel& cached, DeviceEntry& dev,
                                bool* cache_hit) {
  // Held across lookup AND build so a concurrent eval of the same kernel
  // on the same device sees either "not built yet" (and serializes behind
  // the build) or the finished binary — never a half-constructed entry.
  std::lock_guard<std::mutex> cache_lock(kernel_mutex_);
  const auto* key = &dev.device.spec();
  auto it = cached.built.find(key);
  if (cache_hit != nullptr) *cache_hit = it != cached.built.end();
  if (it != cached.built.end()) return it->second;

  hplrepro::trace::Span span("build", "hpl");
  span.arg("kernel", cached.name).arg("device", dev.device.name());
  BuiltKernel built;
  built.program =
      std::make_unique<clsim::Program>(*dev.context, cached.source);
  built.program->build(build_options_);
  built.kernel =
      std::make_unique<clsim::Kernel>(*built.program, cached.name);
  ledger_build(cached.name, dev.device.name());
  return cached.built[key] = std::move(built);
}

std::string Runtime::kernel_name(const void* fn) {
  std::lock_guard<std::mutex> lock(kernel_mutex_);
  auto [it, added] = kernel_names_.try_emplace(fn);
  if (added) it->second = "hpl_kernel_" + std::to_string(next_kernel_id_++);
  return it->second;
}

// --- Coherence ------------------------------------------------------------------
//
// Region-granular protocol: every copy (host and per-device) carries a
// RangeSet of currently-valid byte ranges. Writes invalidate only the
// written range on sibling copies, so co-executed chunks on different
// devices accumulate disjoint valid regions; reads transfer only the
// missing sub-ranges, preferring a direct device-to-device copy over a
// host round-trip.

namespace {

void append_incomplete(std::vector<clsim::Event>& deps,
                       const std::vector<clsim::Event>& events) {
  for (const auto& e : events) {
    if (!e.complete()) deps.push_back(e);
  }
}

void prune_complete(std::vector<clsim::Event>& events) {
  events.erase(std::remove_if(events.begin(), events.end(),
                              [](const clsim::Event& e) {
                                return e.complete();
                              }),
               events.end());
}

}  // namespace

ArrayImpl::DeviceCopy& Runtime::device_copy(ArrayImpl& impl,
                                            DeviceEntry& dev) {
  const auto* key = &dev.device.spec();
  auto it = impl.copies.find(key);
  if (it != impl.copies.end() &&
      it->second.buffer->size() == impl.bytes()) {
    return it->second;
  }
  if (it != impl.copies.end() && !it->second.valid.empty()) {
    // The old, size-mismatched buffer may hold the only valid copy of
    // some region (the array was resized while its data lived on the
    // device). Rescue those bytes to the host before dropping it —
    // clamped to the new extent, since bytes past it have no host
    // location anymore.
    ArrayImpl::DeviceCopy& old = it->second;
    const std::size_t limit =
        std::min(old.buffer->size(), impl.bytes());
    for (const ByteRange& run : old.valid.runs()) {
      const ByteRange clamped{run.begin, std::min(run.end, limit)};
      if (clamped.empty()) continue;
      for (const ByteRange& piece : impl.host_valid.missing(clamped)) {
        std::vector<clsim::Event> deps = impl.host_readers;
        append_incomplete(deps, impl.host_pending);
        append_incomplete(deps, old.pending_d2d);
        clsim::Event event = dev.queue->enqueue_read_buffer(
            *old.buffer, impl.host_bytes() + piece.begin, piece.size(),
            /*offset=*/piece.begin, std::move(deps));
        event.wait();  // blocking: the buffer dies when we recreate it
        ledger_transfer(dev.device.name(), TransferKind::DeviceToHost,
                        piece.size(), event);
        impl.host_valid.add(piece);
      }
    }
  }
  ArrayImpl::DeviceCopy copy;
  copy.buffer = std::make_shared<clsim::Buffer>(*dev.context, impl.bytes());
  return impl.copies[key] = std::move(copy);
}

void Runtime::upload_range(ArrayImpl& impl, DeviceEntry& dev,
                           ArrayImpl::DeviceCopy& copy, ByteRange range) {
  hplrepro::trace::Span span("transfer:h2d", "hpl");
  const std::size_t nbytes = range.size();
  std::vector<clsim::Event> deps;
  append_incomplete(deps, impl.host_pending);  // d2h still filling host_ptr
  append_incomplete(deps, copy.pending_d2d);   // peer copies still writing
  copy.pending_d2d.clear();  // this upload now transitively orders them
  clsim::Event event = dev.queue->enqueue_write_buffer(
      *copy.buffer, impl.host_bytes() + range.begin, nbytes,
      /*offset=*/range.begin, std::move(deps));
  span.arg("bytes", static_cast<std::uint64_t>(nbytes))
      .arg("device", dev.device.name());
  event.on_complete([nbytes, name = dev.device.name()](const clsim::Event& e) {
    ledger_transfer(name, TransferKind::HostToDevice, nbytes, e);
  });
  TransferCapture::note(event);
  impl.host_readers.push_back(event);  // upload reads host_ptr in flight
  copy.valid.add(range);
  copy.last_event = event;
}

void Runtime::ensure_on_device(ArrayImpl& impl, DeviceEntry& dev,
                               ByteRange range) {
  ArrayImpl::DeviceCopy& copy = device_copy(impl, dev);
  if (copy.valid.covers(range)) return;
  prune_complete(impl.host_readers);

  RangeSet need;
  for (const ByteRange& piece : copy.valid.missing(range)) need.add(piece);

  // 1. Pieces the host already covers: direct sub-range h2d.
  {
    std::vector<ByteRange> from_host;
    for (const ByteRange& piece : need.runs()) {
      for (const ByteRange& sub : impl.host_valid.intersect(piece)) {
        from_host.push_back(sub);
      }
    }
    for (const ByteRange& sub : from_host) {
      upload_range(impl, dev, copy, sub);
      need.subtract(sub);
    }
  }

  // 2. Pieces valid on a peer device: direct d2d on the peer's queue, no
  //    host round-trip. The copy waits out the destination buffer's
  //    in-order history (last_event) plus any pending cross-queue writes
  //    on either side.
  for (int i = 0; i < device_count() && !need.empty(); ++i) {
    DeviceEntry& peer = entry_at(i);
    if (&peer == &dev) continue;
    auto it = impl.copies.find(&peer.device.spec());
    if (it == impl.copies.end() || it->second.valid.empty()) continue;
    ArrayImpl::DeviceCopy& src = it->second;
    std::vector<ByteRange> from_peer;
    for (const ByteRange& piece : need.runs()) {
      for (const ByteRange& sub : src.valid.intersect(piece)) {
        from_peer.push_back(sub);
      }
    }
    for (const ByteRange& sub : from_peer) {
      hplrepro::trace::Span span("transfer:d2d", "hpl");
      const std::size_t nbytes = sub.size();
      std::vector<clsim::Event> deps;
      append_incomplete(deps, copy.pending_d2d);
      copy.pending_d2d.clear();
      if (!copy.last_event.complete()) deps.push_back(copy.last_event);
      append_incomplete(deps, src.pending_d2d);
      clsim::Event event = peer.queue->enqueue_copy_buffer(
          *src.buffer, *copy.buffer, nbytes, /*src_offset=*/sub.begin,
          /*dst_offset=*/sub.begin, std::move(deps));
      span.arg("bytes", static_cast<std::uint64_t>(nbytes))
          .arg("from", peer.device.name())
          .arg("to", dev.device.name());
      event.on_complete(
          [nbytes, name = dev.device.name()](const clsim::Event& e) {
            ledger_transfer(name, TransferKind::DeviceToDevice, nbytes, e);
          });
      TransferCapture::note(event);
      src.last_event = event;           // outgoing copy reads src in-order
      copy.pending_d2d.push_back(event);  // cross-queue write into dst
      copy.valid.add(sub);
      need.subtract(sub);
    }
  }

  // 3. Regions never written anywhere: the host's (zero-initialised)
  //    storage is the truth; make it formally valid and upload.
  for (const ByteRange& piece : need.runs()) {
    make_host_current_async(impl, piece);
    upload_range(impl, dev, copy, piece);
  }
}

void Runtime::ensure_on_device(ArrayImpl& impl, DeviceEntry& dev) {
  ensure_on_device(impl, dev, ByteRange{0, impl.bytes()});
}

void Runtime::mark_device_written(ArrayImpl& impl, DeviceEntry& dev,
                                  ByteRange range) {
  const auto* key = &dev.device.spec();
  for (auto& [other, copy] : impl.copies) {
    if (other == key) {
      copy.valid.add(range);
    } else {
      copy.valid.subtract(range);
    }
  }
  impl.host_valid.subtract(range);
}

void Runtime::mark_device_written(ArrayImpl& impl, DeviceEntry& dev) {
  mark_device_written(impl, dev, ByteRange{0, impl.bytes()});
}

void Runtime::make_host_current_async(ArrayImpl& impl, ByteRange range) {
  if (impl.host_valid.covers(range)) return;
  prune_complete(impl.host_readers);
  // Gather every missing piece from whichever device copies cover it.
  // Pieces are disjoint, so reads enqueued on different queues may fill
  // host_ptr concurrently without conflict.
  for (const ByteRange& gap : impl.host_valid.missing(range)) {
    RangeSet need;
    need.add(gap);
    for (int i = 0; i < device_count() && !need.empty(); ++i) {
      DeviceEntry& dev = entry_at(i);
      auto it = impl.copies.find(&dev.device.spec());
      if (it == impl.copies.end() || it->second.valid.empty()) continue;
      ArrayImpl::DeviceCopy& src = it->second;
      std::vector<ByteRange> from_dev;
      for (const ByteRange& piece : need.runs()) {
        for (const ByteRange& sub : src.valid.intersect(piece)) {
          from_dev.push_back(sub);
        }
      }
      for (const ByteRange& sub : from_dev) {
        hplrepro::trace::Span span("transfer:d2h", "hpl");
        const std::size_t nbytes = sub.size();
        // The read writes host_ptr: wait out uploads still reading it,
        // earlier reads still filling it, and cross-queue writes to the
        // source buffer.
        std::vector<clsim::Event> deps = impl.host_readers;
        append_incomplete(deps, impl.host_pending);
        append_incomplete(deps, src.pending_d2d);
        clsim::Event event = dev.queue->enqueue_read_buffer(
            *src.buffer, impl.host_bytes() + sub.begin, nbytes,
            /*offset=*/sub.begin, std::move(deps));
        span.arg("bytes", static_cast<std::uint64_t>(nbytes))
            .arg("device", dev.device.name());
        event.on_complete(
            [nbytes, name = dev.device.name()](const clsim::Event& e) {
              ledger_transfer(name, TransferKind::DeviceToHost, nbytes, e);
            });
        TransferCapture::note(event);
        impl.host_pending.push_back(event);
        src.last_event = event;
        impl.host_valid.add(sub);
        need.subtract(sub);
      }
    }
    // Leftovers were never written anywhere: the host copy (typically
    // zero-initialised library storage) is the truth.
    for (const ByteRange& piece : need.runs()) {
      impl.host_valid.add(piece);
    }
  }
}

void Runtime::make_host_current_async(ArrayImpl& impl) {
  make_host_current_async(impl, ByteRange{0, impl.bytes()});
}

void Runtime::sync_to_host(ArrayImpl& impl) {
  // The last command on each device copy the reads below may gather from.
  // If one of them failed (async mode: a trap lands on the worker after the
  // flush returned) and no sync point has reported it yet, this host read
  // reports it, once, instead of handing back bytes it never wrote.
  std::vector<clsim::Event> producers;
  if (!impl.host_valid.covers(ByteRange{0, impl.bytes()})) {
    for (const auto& [key, copy] : impl.copies) {
      if (!copy.valid.empty()) producers.push_back(copy.last_event);
    }
  }
  make_host_current_async(impl);
  // The lazy synchronization point: the host blocks only here, when it
  // actually dereferences the data (or is about to overwrite it).
  bool stalled = false;
  hplrepro::Stopwatch watch;
  for (auto& e : impl.host_pending) {
    if (!e.complete()) stalled = true;
    e.wait();
  }
  impl.host_pending.clear();
  if (hplrepro::metrics::enabled() && stalled) {
    static auto& stalls = hplrepro::metrics::counter("hpl.sync.stalls");
    static auto& stall_ns =
        hplrepro::metrics::histogram("hpl.sync.stall_ns");
    stalls.add_always(1);
    stall_ns.record_always(
        static_cast<std::uint64_t>(watch.seconds() * 1e9));
  }
  for (const clsim::Event& producer : producers) {
    try {
      producer.wait();
    } catch (...) {
      bool unreported = false;
      for (auto& dev : devices_) {
        unreported = dev.queue->consume_error(producer) || unreported;
      }
      if (unreported) throw;
    }
  }
}

// --- ArrayImpl helpers ------------------------------------------------------------

ArrayImpl::~ArrayImpl() {
  // Commands in flight may still dereference host_ptr (which can be
  // caller-owned, or about to be freed with this object). Wait them out;
  // deferred execution errors have nowhere to go from a destructor.
  for (auto& e : host_readers) {
    try {
      e.wait();
    } catch (...) {
    }
  }
  for (auto& e : host_pending) {
    try {
      e.wait();
    } catch (...) {
    }
  }
}

ArrayImplPtr make_array_impl(const char* type_name, std::size_t elem_size,
                             std::vector<std::size_t> dims, MemFlag flag) {
  auto impl = std::make_shared<ArrayImpl>();
  impl->type_name = type_name;
  impl->elem_size = elem_size;
  impl->dims = std::move(dims);
  impl->flag = flag;
  impl->owned_storage.assign(impl->bytes(), std::byte{0});
  impl->host_ptr = impl->owned_storage.data();
  impl->host_valid = RangeSet::whole(impl->bytes());
  return impl;
}

ArrayImplPtr make_array_impl_wrapping(const char* type_name,
                                      std::size_t elem_size,
                                      std::vector<std::size_t> dims,
                                      MemFlag flag, void* host_ptr) {
  auto impl = std::make_shared<ArrayImpl>();
  impl->type_name = type_name;
  impl->elem_size = elem_size;
  impl->dims = std::move(dims);
  impl->flag = flag;
  impl->host_ptr = host_ptr;
  impl->host_valid = RangeSet::whole(impl->bytes());
  return impl;
}

void sync_to_host(ArrayImpl& impl) {
  // Host read of an array: the canonical forcing point. Pending producers
  // (of this array or any other — the DAG is flushed whole to preserve
  // program order) launch before the d2h sync.
  flush_dag();
  Runtime::get().sync_to_host(impl);
}

void prepare_host_write(ArrayImpl& impl) {
  flush_dag();
  Runtime::get().sync_to_host(impl);
  // The host is about to scribble on host_ptr: in-flight uploads still
  // reading it must finish first, as must cross-queue writes into any
  // device copy (they will be invalidated below, and a pending copy must
  // not resurrect stale bytes after that).
  for (auto& e : impl.host_readers) e.wait();
  impl.host_readers.clear();
  for (auto& [key, copy] : impl.copies) {
    for (auto& e : copy.pending_d2d) e.wait();
    copy.pending_d2d.clear();
    copy.valid.clear();
  }
  impl.host_valid = RangeSet::whole(impl.bytes());
}

}  // namespace detail
}  // namespace HPL
