#include "clsim/runtime.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace hplrepro::clsim {

// --- Async mode --------------------------------------------------------------

namespace {

std::atomic<int> g_async_mode{-1};  // -1: unread, 0: sync, 1: async

int read_async_mode_from_env() {
  const char* sync = std::getenv("HPL_SYNC");
  const bool synchronous =
      sync != nullptr && sync[0] != '\0' && !(sync[0] == '0' && sync[1] == '\0');
  return synchronous ? 0 : 1;
}

}  // namespace

bool async_enabled() {
  int mode = g_async_mode.load(std::memory_order_acquire);
  if (mode < 0) {
    mode = read_async_mode_from_env();
    int expected = -1;
    g_async_mode.compare_exchange_strong(expected, mode,
                                         std::memory_order_acq_rel);
  }
  return mode == 1;
}

void set_async_enabled(bool on) {
  g_async_mode.store(on ? 1 : 0, std::memory_order_release);
}

// --- Platform ----------------------------------------------------------------

Platform::Platform() : pool_(0) {
  auto add = [this](const DeviceSpec& spec) {
    devices_.push_back(Device(std::make_shared<DeviceSpec>(spec)));
  };
  // Order matters: HPL's default is the first non-CPU device, and the
  // paper's default device is the Tesla.
  add(tesla_c2050());
  add(quadro_fx380());
  add(xeon_host());
}

Platform& Platform::get() {
  static Platform instance;
  return instance;
}

std::optional<Device> Platform::device_by_type(DeviceType type) const {
  for (const auto& d : devices_) {
    if (d.type() == type) return d;
  }
  return std::nullopt;
}

Device Platform::default_accelerator() const {
  for (const auto& d : devices_) {
    if (d.type() != DeviceType::Cpu) return d;
  }
  return devices_.front();
}

std::optional<Device> Platform::device_by_name(
    const std::string& needle) const {
  for (const auto& d : devices_) {
    if (d.name().find(needle) != std::string::npos) return d;
  }
  return std::nullopt;
}

Device Platform::register_device(const DeviceSpec& spec) {
  devices_.push_back(Device(std::make_shared<DeviceSpec>(spec)));
  return devices_.back();
}

// --- Buffer ------------------------------------------------------------------

Buffer::Buffer(Context& context, std::size_t bytes, MemFlags flags) {
  if (bytes == 0) throw RuntimeError("buffer size must be nonzero");
  if (bytes > context.device().spec().global_mem_bytes) {
    throw RuntimeError("buffer larger than device global memory");
  }
  storage_ = std::make_shared<Storage>();
  // Deliberately uninitialised, like clCreateBuffer: allocation must be
  // cheap; contents are undefined until the first write.
  storage_->data = std::make_unique_for_overwrite<std::byte[]>(bytes);
  storage_->size = bytes;
  storage_->flags = flags;
}

void Buffer::fill_zero() {
  std::memset(storage_->data.get(), 0, storage_->size);
}

// --- Program -----------------------------------------------------------------

Program::Program(Context& context, std::string source)
    : device_(context.device()), source_(std::move(source)) {}

void Program::build(const std::string& options) {
  clc::CompileOptions copts;
  std::string opt_error;
  if (!clc::parse_build_options(options, copts, opt_error)) {
    build_log_ = opt_error;
    throw RuntimeError("program build failed: " + opt_error);
  }
  build_options_ = options;
  try {
    clc::CompileResult result = clc::compile(source_, copts);
    build_log_ = result.build_log;
    opt_report_ = std::move(result.opt_report);
    module_ = std::make_shared<const clc::Module>(std::move(result.module));
  } catch (const clc::CompileError& e) {
    build_log_ = e.build_log();
    throw RuntimeError("program build failed:\n" + build_log_);
  }
}

const clc::Module& Program::module() const {
  if (!module_) throw RuntimeError("program has not been built");
  return *module_;
}

std::shared_ptr<const clc::Module> Program::module_ptr() const {
  if (!module_) throw RuntimeError("program has not been built");
  return module_;
}

// --- Kernel ------------------------------------------------------------------

Kernel::Kernel(Program& program, const std::string& name)
    : module_(program.module_ptr()) {
  fn_ = module_->find(name);
  if (fn_ == nullptr || !fn_->is_kernel) {
    throw RuntimeError("no kernel named '" + name + "' in program");
  }
  args_.resize(fn_->params.size());
}

const clc::Type& Kernel::param_type(unsigned index) const {
  if (index >= fn_->params.size()) {
    throw RuntimeError("param_type: index out of range");
  }
  return fn_->params[index].type;
}

void Kernel::set_arg(unsigned index, const Buffer& buffer) {
  if (index >= args_.size()) throw RuntimeError("kernel arg index out of range");
  const clc::Type& param = fn_->params[index].type;
  if (!param.pointer) {
    throw RuntimeError("kernel parameter " + std::to_string(index) +
                       " ('" + fn_->params[index].name +
                       "') is a scalar; a buffer was supplied");
  }
  args_[index] = buffer.storage_;
}

void Kernel::set_arg_local(unsigned index, std::size_t bytes) {
  if (index >= args_.size()) throw RuntimeError("kernel arg index out of range");
  const clc::Type& param = fn_->params[index].type;
  if (!param.pointer || param.space != clc::AddressSpace::Local) {
    throw RuntimeError("kernel parameter " + std::to_string(index) + " ('" +
                       fn_->params[index].name +
                       "') is not a __local pointer");
  }
  if (bytes == 0) throw RuntimeError("__local argument size must be nonzero");
  args_[index] = LocalAlloc{bytes};
}

void Kernel::set_scalar(unsigned index, double as_double, std::int64_t as_int,
                        bool from_float) {
  if (index >= args_.size()) throw RuntimeError("kernel arg index out of range");
  const clc::Type& param = fn_->params[index].type;
  if (param.pointer) {
    throw RuntimeError("kernel parameter " + std::to_string(index) +
                       " ('" + fn_->params[index].name +
                       "') is a pointer; a scalar was supplied");
  }
  clc::Value v{};
  switch (param.scalar) {
    case clc::Scalar::Float:
      v.f32 = from_float ? static_cast<float>(as_double)
                         : static_cast<float>(as_int);
      break;
    case clc::Scalar::Double:
      v.f64 = from_float ? as_double : static_cast<double>(as_int);
      break;
    default: {
      std::int64_t raw = from_float ? static_cast<std::int64_t>(as_double)
                                    : as_int;
      // Normalise to the parameter's width/signedness, matching the VM's
      // stack invariant for slot values.
      switch (param.scalar) {
        case clc::Scalar::Bool: raw = raw != 0; break;
        case clc::Scalar::Char: raw = static_cast<std::int8_t>(raw); break;
        case clc::Scalar::UChar: raw = static_cast<std::uint8_t>(raw); break;
        case clc::Scalar::Short: raw = static_cast<std::int16_t>(raw); break;
        case clc::Scalar::UShort: raw = static_cast<std::uint16_t>(raw); break;
        case clc::Scalar::Int: raw = static_cast<std::int32_t>(raw); break;
        case clc::Scalar::UInt: raw = static_cast<std::uint32_t>(raw); break;
        default: break;
      }
      v.i64 = raw;
      break;
    }
  }
  args_[index] = v;
}

void Kernel::set_arg(unsigned index, double value) {
  set_scalar(index, value, 0, true);
}
void Kernel::set_arg(unsigned index, float value) {
  set_scalar(index, value, 0, true);
}
void Kernel::set_arg(unsigned index, std::int32_t value) {
  set_scalar(index, 0, value, false);
}
void Kernel::set_arg(unsigned index, std::uint32_t value) {
  set_scalar(index, 0, static_cast<std::int64_t>(value), false);
}
void Kernel::set_arg(unsigned index, std::int64_t value) {
  set_scalar(index, 0, value, false);
}
void Kernel::set_arg(unsigned index, std::uint64_t value) {
  set_scalar(index, 0, static_cast<std::int64_t>(value), false);
}

// --- Event -------------------------------------------------------------------

Event::Event() : state_(std::make_shared<State>()) {}

Event::Status Event::status() const {
  std::lock_guard lock(state_->mu);
  return state_->status;
}

void Event::wait() const {
  State& st = *state_;
  std::unique_lock lock(st.mu);
  st.cv.wait(lock, [&] { return st.status == Status::Complete; });
  if (st.error) std::rethrow_exception(st.error);
}

void Event::on_complete(std::function<void(const Event&)> fn) {
  State& st = *state_;
  {
    std::lock_guard lock(st.mu);
    if (st.status != Status::Complete) {
      st.callbacks.push_back(std::move(fn));
      return;
    }
    if (st.error) return;  // failed commands never fire callbacks
  }
  fn(*this);
}

void Event::on_settled(std::function<void(const Event&, bool failed)> fn) {
  State& st = *state_;
  bool failed;
  {
    std::lock_guard lock(st.mu);
    if (st.status != Status::Complete) {
      st.settled_callbacks.push_back(std::move(fn));
      return;
    }
    failed = st.error != nullptr;
  }
  fn(*this, failed);
}

double Event::sim_seconds() const {
  wait();
  return state_->sim_seconds;
}

const clc::ExecStats& Event::stats() const {
  wait();
  return state_->stats;
}

const TimingBreakdown& Event::timing() const {
  wait();
  return state_->timing;
}

double Event::wall_seconds() const {
  wait();
  return state_->wall_seconds;
}

double Event::queued() const {
  wait();
  return state_->queued_s;
}

double Event::submitted() const {
  wait();
  return state_->submit_s;
}

double Event::started() const {
  wait();
  return state_->start_s;
}

double Event::ended() const {
  wait();
  return state_->end_s;
}

double Event::host_started_us() const {
  wait();
  return state_->host_start_us;
}

double Event::host_ended_us() const {
  wait();
  return state_->host_end_us;
}

// --- CommandQueue -------------------------------------------------------------

CommandQueue::CommandQueue(Context& context) : device_(context.device()) {
  const std::string prefix = "queue." + device_.name();
  depth_gauge_ = &metrics::gauge(prefix + ".depth");
  util_gauge_ = &metrics::gauge(prefix + ".util_pct");
  busy_counter_ = &metrics::counter(prefix + ".busy_ns");
  dwell_queued_ = &metrics::histogram(prefix + ".dwell.queued_ns");
  dwell_wait_ = &metrics::histogram(prefix + ".dwell.wait_ns");
  dwell_run_ = &metrics::histogram(prefix + ".dwell.run_ns");
  created_us_ = trace::now_us();
}

CommandQueue::~CommandQueue() = default;  // worker_ dtor drains and joins

Event CommandQueue::submit(Command cmd) {
  cmd.state = std::make_shared<Event::State>();
  cmd.state->status = Event::Status::Queued;
  // Stamped unconditionally: tracing may be switched on while the command
  // is still pending, and a zero stamp would make its queued-phase record
  // span the whole process lifetime.
  cmd.enqueue_us = trace::now_us();
  if (metrics::enabled()) depth_gauge_->add(1);
  Event event(cmd.state);
  auto shared = std::make_shared<Command>(std::move(cmd));
  worker_.post([this, shared] { execute(*shared); });
  // Synchronous mode (HPL_SYNC=1): identical code path — the worker still
  // executes the command — but the enqueue does not return until it is
  // done, and deferred errors surface here instead of at the next sync.
  if (!async_enabled()) finish();
  return event;
}

void CommandQueue::execute(Command& cmd) {
  Event::State& st = *cmd.state;
  // Sampled once so the pickup stamp and the dwell records below agree
  // even if metrics are toggled while the command runs.
  const bool metrics_on = metrics::enabled();
  const double pickup_us = metrics_on ? trace::now_us() : 0.0;
  {
    std::lock_guard lock(st.mu);
    st.status = Event::Status::Submitted;
  }

  std::exception_ptr error;
  try {
    // In-order queue semantics: this command may not run until everything
    // it waits on has completed. Wait-list errors propagate.
    for (const Event& dep : cmd.wait_list) dep.wait();
    {
      std::lock_guard lock(st.mu);
      st.status = Event::Status::Running;
    }
    st.host_start_us = trace::now_us();
    cmd.run(st);
  } catch (...) {
    error = std::current_exception();
  }
  st.host_end_us = trace::now_us();

  {
    std::lock_guard lock(mutex_);
    if (error && !first_error_) first_error_ = error;
    // Simulated timestamps are assigned at drain time: the in-order queue
    // admits a command the instant its predecessor ends, so queued ==
    // submitted == started on the simulated clock and commands tile the
    // timeline deterministically.
    st.queued_s = sim_seconds_;
    st.submit_s = sim_seconds_;
    st.start_s = sim_seconds_;
    st.end_s = st.start_s + st.sim_seconds;
    sim_seconds_ = st.end_s;
    wall_seconds_ += st.wall_seconds;
    if (cmd.is_kernel) sim_kernel_seconds_ += st.sim_seconds;
  }

  if (error != nullptr) {
    // Both modes reach this point through the same worker path, so the
    // post-mortem has identical shape whether HPL_SYNC is set or not.
    metrics::flight_dump_once(cmd.is_kernel ? "kernel command failed"
                                            : "command failed");
  }

  if (metrics_on) {
    auto to_ns = [](double us) {
      return us > 0 ? static_cast<std::uint64_t>(us * 1e3) : 0;
    };
    const bool ran = st.host_start_us > 0;  // wait-list failures never run
    dwell_queued_->record_always(to_ns(pickup_us - cmd.enqueue_us));
    if (ran) {
      dwell_wait_->record_always(to_ns(st.host_start_us - pickup_us));
      const double run_us = st.host_end_us - st.host_start_us;
      dwell_run_->record_always(to_ns(run_us));
      busy_counter_->add_always(to_ns(run_us));
      if (run_us > 0) busy_us_ += run_us;
    }
    const double elapsed_us = st.host_end_us - created_us_;
    if (elapsed_us > 0) {
      util_gauge_->set(
          static_cast<std::int64_t>(busy_us_ / elapsed_us * 100.0));
    }
    depth_gauge_->add(-1);
  }

  if (trace::enabled() && !error) {
    // Device track (simulated clock): the command's execution window, with
    // the full queued/submitted/started/ended phase stamps as args.
    trace::EventRecord record;
    record.name = cmd.label;
    record.cat = cmd.cat;
    record.track = "sim:" + device_.name();
    record.simulated = true;
    record.ts_us = st.start_s * 1e6;
    record.dur_us = st.sim_seconds * 1e6;
    record.args.num("sim_ms", st.sim_seconds * 1e3)
        .num("queued_s", st.queued_s)
        .num("submitted_s", st.submit_s)
        .num("started_s", st.start_s)
        .num("ended_s", st.end_s);
    trace::record(std::move(record));

    // Queue track (host clock): time the command spent pending before the
    // worker picked it up, then its real execution window — this is where
    // cross-queue overlap is visible.
    trace::EventRecord pending;
    pending.name = cmd.label;
    pending.cat = cmd.cat;
    pending.track = "queue:" + device_.name();
    pending.ts_us = cmd.enqueue_us;
    pending.dur_us = st.host_start_us - cmd.enqueue_us;
    pending.args.str("phase", "queued");
    trace::record(std::move(pending));

    trace::EventRecord running;
    running.name = cmd.label;
    running.cat = cmd.cat;
    running.track = "queue:" + device_.name();
    running.ts_us = st.host_start_us;
    running.dur_us = st.host_end_us - st.host_start_us;
    running.args.str("phase", "running");
    trace::record(std::move(running));
  }

  // Publish completion, then fire callbacks outside the state lock (they
  // may read the event's profiling accessors).
  std::vector<std::function<void(const Event&)>> callbacks;
  std::vector<std::function<void(const Event&, bool)>> settled;
  {
    std::lock_guard lock(st.mu);
    st.error = error;
    st.status = Event::Status::Complete;
    callbacks = std::move(st.callbacks);
    st.callbacks.clear();
    settled = std::move(st.settled_callbacks);
    st.settled_callbacks.clear();
  }
  st.cv.notify_all();
  const Event event(cmd.state);
  if (!error) {
    for (const auto& fn : callbacks) fn(event);
  }
  for (const auto& fn : settled) fn(event, error != nullptr);
}

void CommandQueue::finish() {
  worker_.drain();
  std::exception_ptr error;
  {
    std::lock_guard lock(mutex_);
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

bool CommandQueue::consume_error(const Event& event) {
  std::exception_ptr error;
  {
    std::lock_guard lock(event.state_->mu);
    error = event.state_->error;
  }
  if (error == nullptr) return false;
  std::lock_guard lock(mutex_);
  if (first_error_ != error) return false;
  first_error_ = nullptr;
  return true;
}

double CommandQueue::simulated_seconds() const {
  std::lock_guard lock(mutex_);
  return sim_seconds_;
}

double CommandQueue::simulated_kernel_seconds() const {
  std::lock_guard lock(mutex_);
  return sim_kernel_seconds_;
}

double CommandQueue::wall_seconds() const {
  std::lock_guard lock(mutex_);
  return wall_seconds_;
}

void CommandQueue::reset_timers() {
  finish();
  std::lock_guard lock(mutex_);
  sim_seconds_ = 0;
  sim_kernel_seconds_ = 0;
  wall_seconds_ = 0;
}

Event CommandQueue::enqueue_write_buffer(Buffer& buffer, const void* src,
                                         std::size_t bytes,
                                         std::size_t offset,
                                         std::vector<Event> wait_list) {
  if (offset + bytes > buffer.size()) {
    throw RuntimeError("write_buffer out of range");
  }
  Command cmd;
  cmd.label = "write_buffer " + std::to_string(bytes) + "B";
  cmd.cat = "transfer";
  cmd.wait_list = std::move(wait_list);
  cmd.run = [storage = buffer.storage_, src, bytes, offset,
             spec = &device_.spec()](Event::State& st) {
    hplrepro::Stopwatch wall;
    std::memcpy(storage->data.get() + offset, src, bytes);
    st.sim_seconds = simulate_transfer_time(bytes, *spec);
    st.wall_seconds = wall.seconds();
  };
  return submit(std::move(cmd));
}

Event CommandQueue::enqueue_read_buffer(const Buffer& buffer, void* dst,
                                        std::size_t bytes,
                                        std::size_t offset,
                                        std::vector<Event> wait_list) {
  if (offset + bytes > buffer.size()) {
    throw RuntimeError("read_buffer out of range");
  }
  Command cmd;
  cmd.label = "read_buffer " + std::to_string(bytes) + "B";
  cmd.cat = "transfer";
  cmd.wait_list = std::move(wait_list);
  cmd.run = [storage = buffer.storage_, dst, bytes, offset,
             spec = &device_.spec()](Event::State& st) {
    hplrepro::Stopwatch wall;
    std::memcpy(dst, storage->data.get() + offset, bytes);
    st.sim_seconds = simulate_transfer_time(bytes, *spec);
    st.wall_seconds = wall.seconds();
  };
  return submit(std::move(cmd));
}

Event CommandQueue::enqueue_copy_buffer(const Buffer& src, Buffer& dst,
                                        std::size_t bytes,
                                        std::size_t src_offset,
                                        std::size_t dst_offset,
                                        std::vector<Event> wait_list) {
  if (src_offset + bytes > src.size()) {
    throw RuntimeError("copy_buffer source out of range");
  }
  if (dst_offset + bytes > dst.size()) {
    throw RuntimeError("copy_buffer destination out of range");
  }
  if (src.storage_ == dst.storage_ &&
      src_offset < dst_offset + bytes && dst_offset < src_offset + bytes) {
    throw RuntimeError("copy_buffer regions overlap");
  }
  Command cmd;
  cmd.label = "copy_buffer " + std::to_string(bytes) + "B";
  cmd.cat = "transfer";
  cmd.wait_list = std::move(wait_list);
  cmd.run = [src_storage = src.storage_, dst_storage = dst.storage_, bytes,
             src_offset, dst_offset,
             spec = &device_.spec()](Event::State& st) {
    hplrepro::Stopwatch wall;
    std::memcpy(dst_storage->data.get() + dst_offset,
                src_storage->data.get() + src_offset, bytes);
    st.sim_seconds = simulate_transfer_time(bytes, *spec);
    st.wall_seconds = wall.seconds();
  };
  return submit(std::move(cmd));
}

Event CommandQueue::enqueue_ndrange_kernel(Kernel& kernel,
                                           const NDRange& global,
                                           std::optional<NDRange> local,
                                           std::vector<Event> wait_list,
                                           std::optional<LaunchSlice> slice) {
  // Assemble the argument vector and buffer table. This snapshots the
  // kernel's arguments (retaining buffer storage) so the caller may rebind
  // them for the next launch while this one is still pending.
  std::vector<clc::Value> args(kernel.args_.size());
  std::vector<std::shared_ptr<Buffer::Storage>> retained;

  // Dynamically sized __local arguments are carved out of every group's
  // arena just past the kernel's statically declared __local arrays.
  std::uint64_t local_top = kernel.fn_->local_bytes;
  std::uint64_t extra_local_bytes = 0;

  for (std::size_t i = 0; i < kernel.args_.size(); ++i) {
    const auto& slot = kernel.args_[i];
    if (std::holds_alternative<std::monostate>(slot)) {
      throw RuntimeError("kernel argument " + std::to_string(i) +
                         " ('" + kernel.fn_->params[i].name +
                         "') was never set");
    }
    if (const auto* storage =
            std::get_if<std::shared_ptr<Buffer::Storage>>(&slot)) {
      const clc::Type& param = kernel.fn_->params[i].type;
      const auto space = param.space == clc::AddressSpace::Constant
                             ? clc::PtrSpace::Constant
                             : clc::PtrSpace::Global;
      retained.push_back(*storage);
      args[i].u64 = clc::make_pointer(space, retained.size() - 1, 0);
    } else if (const auto* local_arg = std::get_if<Kernel::LocalAlloc>(&slot)) {
      local_top = (local_top + 7) & ~std::uint64_t{7};  // 8-byte align
      args[i].u64 = clc::make_pointer(clc::PtrSpace::Local, 0, local_top);
      local_top += local_arg->bytes;
      extra_local_bytes = local_top - kernel.fn_->local_bytes;
    } else {
      args[i] = std::get<clc::Value>(slot);
    }
  }

  const NDRange local_range =
      local.has_value() ? *local : choose_local_range(global);

  // Launch-geometry and device-capability errors surface synchronously at
  // enqueue, as clEnqueueNDRangeKernel's error codes do; only execution
  // itself (and its traps) is deferred to the worker.
  validate_launch(*kernel.fn_, global, local_range, device_.spec(),
                  extra_local_bytes);
  if (slice.has_value()) {
    if (slice->dim < 0 || slice->dim >= global.dims) {
      throw RuntimeError("launch slice dimension out of range");
    }
    const std::size_t groups =
        global.sizes[slice->dim] / local_range.sizes[slice->dim];
    if (slice->group_count == 0 ||
        slice->group_begin + slice->group_count > groups) {
      throw RuntimeError("launch slice exceeds the group grid");
    }
  }

  Command cmd;
  cmd.label = kernel.name();
  cmd.cat = "kernel";
  cmd.is_kernel = true;
  cmd.wait_list = std::move(wait_list);
  cmd.run = [module = kernel.module_, fn = kernel.fn_,
             args = std::move(args), retained = std::move(retained), global,
             local_range, spec = &device_.spec(),
             extra_local_bytes, slice](Event::State& st) {
    std::vector<std::span<std::byte>> buffers;
    buffers.reserve(retained.size());
    for (const auto& storage : retained) {
      buffers.emplace_back(storage->data.get(), storage->size);
    }
    LaunchResult launch = execute_ndrange(
        *module, *fn, args, std::span<std::span<std::byte>>(buffers), global,
        local_range, *spec, Platform::get().pool(), extra_local_bytes,
        slice.has_value() ? &*slice : nullptr);
    st.sim_seconds = launch.timing.total_s;
    st.wall_seconds = launch.wall_seconds;
    st.stats = launch.stats;
    st.timing = launch.timing;
  };
  return submit(std::move(cmd));
}

}  // namespace hplrepro::clsim
