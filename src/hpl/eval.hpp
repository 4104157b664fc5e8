#ifndef HPLREPRO_HPL_EVAL_HPP
#define HPLREPRO_HPL_EVAL_HPP

/// \file eval.hpp
/// Kernel invocation (paper §III-C):
///
///   eval(kernel).global(...).local(...).device(...)(arg1, arg2, ...)
///
/// The first invocation of a kernel function captures it (runs it under a
/// KernelBuilder with formal-parameter arrays), generates OpenCL C,
/// and builds it with the device compiler; the binary is cached so later
/// invocations only marshal arguments and launch (paper §V-B).
///
/// Defaults: the device is the first non-CPU device; the global domain is
/// the dimensions of the first array argument; the local domain is chosen
/// by the library.
///
/// This header is only the front end: every invocation is recorded as a
/// DagNode and reaches a device through detail::launch_node() (fusion.hpp)
/// — deferred to the next forcing point (fusion on), launched at once
/// (fusion off), or, with .devices({...}) naming two or more devices, split
/// into work-group chunks by detail::launch_coexec(), each chunk one
/// launch_node() call.

#include <initializer_list>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "coexec/coexec.hpp"
#include "hpl/array.hpp"
#include "hpl/codegen.hpp"
#include "hpl/fusion.hpp"
#include "hpl/runtime.hpp"
#include "hpl/trace.hpp"
#include "support/metrics.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace HPL {

/// Chunk-distribution policy for co-executed evals
/// (eval(...).devices({...}).policy(...)).
using CoexecPolicy = hplrepro::coexec::Policy;

namespace detail {

template <typename P>
struct IsHplArray : std::false_type {};
template <typename T, int N, MemFlag F>
struct IsHplArray<Array<T, N, F>> : std::true_type {};

template <typename P>
struct HplArrayTraits;
template <typename T, int N, MemFlag F>
struct HplArrayTraits<Array<T, N, F>> {
  using elem = T;
  static constexpr int ndim = N;
  static constexpr MemFlag flag = F;
};

}  // namespace detail

template <typename... Params>
class Evaluator {
  static constexpr std::size_t kNumParams = sizeof...(Params);

public:
  explicit Evaluator(void (*fn)(Params...)) : fn_(fn) {}

  Evaluator& global(std::size_t x) {
    global_ = hplrepro::clsim::NDRange(x);
    return *this;
  }
  Evaluator& global(std::size_t x, std::size_t y) {
    global_ = hplrepro::clsim::NDRange(x, y);
    return *this;
  }
  Evaluator& global(std::size_t x, std::size_t y, std::size_t z) {
    global_ = hplrepro::clsim::NDRange(x, y, z);
    return *this;
  }

  Evaluator& local(std::size_t x) {
    local_ = hplrepro::clsim::NDRange(x);
    return *this;
  }
  Evaluator& local(std::size_t x, std::size_t y) {
    local_ = hplrepro::clsim::NDRange(x, y);
    return *this;
  }
  Evaluator& local(std::size_t x, std::size_t y, std::size_t z) {
    local_ = hplrepro::clsim::NDRange(x, y, z);
    return *this;
  }

  Evaluator& device(Device d) {
    device_ = d;
    return *this;
  }

  /// Co-executes the kernel across `ds`, partitioning the NDRange along
  /// one dimension (inferred, or forced with split_dim). A single-entry
  /// list degenerates to .device(ds[0]).
  Evaluator& devices(std::vector<Device> ds) {
    devices_ = std::move(ds);
    return *this;
  }
  Evaluator& devices(std::initializer_list<Device> ds) {
    devices_.assign(ds.begin(), ds.end());
    return *this;
  }

  /// Chunk-distribution policy for a co-executed eval (default Static).
  Evaluator& policy(CoexecPolicy p) {
    policy_ = p;
    return *this;
  }

  /// Forces the NDRange dimension a co-executed eval is split along
  /// (default: the first dimension every written array maps onto).
  Evaluator& split_dim(int d) {
    split_dim_ = d;
    return *this;
  }

  /// Narrows per-chunk reads of arrays that map onto the split dimension
  /// to the chunk's own rows plus `rows` halo rows on each side (stencil
  /// neighbourhoods). Arrays that do not map keep whole-array reads.
  Evaluator& halo(std::size_t rows) {
    halo_rows_ = rows;
    return *this;
  }

  template <typename... Actuals>
  void operator()(Actuals&&... actuals) {
    static_assert(sizeof...(Actuals) == kNumParams,
                  "eval: wrong number of kernel arguments");
    run(std::index_sequence_for<Params...>{}, actuals...);
  }

private:
  template <std::size_t... Is, typename... Actuals>
  void run(std::index_sequence<Is...>, Actuals&... actuals) {
    namespace clsim = hplrepro::clsim;
    using detail::Runtime;

    if (detail::KernelBuilder::current() != nullptr) {
      throw hplrepro::Error(
          "HPL: eval can only be used in host code (paper §III-C)");
    }
    if (devices_.size() == 1) device_ = devices_[0];
    const bool coexec = devices_.size() >= 2;
    // A co-executed eval is a forcing point: deferred producers must land
    // before the NDRange is split across devices (the per-chunk coherence
    // logic reasons about materialised arrays, not pending rewrites).
    if (coexec) detail::flush_dag();

    Runtime& rt = Runtime::get();
    hplrepro::Stopwatch host_watch;
    detail::DagNode node;
    // Sampled once: decides every metrics-only clock read of this eval's
    // launch, so a metrics-off eval pays nothing beyond this relaxed load.
    // The start instant opens the latency window the critical-path
    // analyzer partitions.
    detail::LaunchRecord& record = node.record;
    record.metrics_on = hplrepro::metrics::enabled();
    if (record.metrics_on) record.start_us = hplrepro::trace::now_us();

    // --- Capture + code generation (first invocation only) ---
    node.cached = capture_kernel(rt, std::index_sequence<Is...>{}, record);

    // --- Record the invocation as a DAG node ---
    // Everything the launch needs is resolved here (device entry, global
    // range, snapshotted scalar values), so eval() keeps its error
    // contract and later host mutations cannot change what was asked.
    // A co-executed node gets its device per chunk (launch_coexec).
    node.dev = coexec ? nullptr : &rt.entry(device_);
    std::optional<clsim::NDRange> default_global;
    (record_arg<Params>(actuals, node, default_global), ...);

    if (global_.has_value()) {
      node.global = *global_;
    } else if (default_global.has_value()) {
      node.global = *default_global;  // dims of the first array argument
    } else {
      throw hplrepro::InvalidArgument(
          "HPL: no global domain: specify .global(...) or pass an array "
          "first argument");
    }
    node.local = local_;

    // Front-end overhead (capture/codegen/marshal of the record) counts
    // as eval host time in every mode; launch_node accounts its own
    // window per launch, so the two sum to the full per-launch overhead.
    detail::ledger_host_seconds(host_watch.seconds());

    if (coexec) {
      // Split across the devices; every chunk launches through
      // launch_node.
      detail::launch_coexec(rt, node, devices_, policy_, split_dim_,
                            halo_rows_);
    } else if (fusion_enabled()) {
      // Deferred: launches at the next forcing point, possibly fused.
      detail::record_node(std::move(node));
    } else {
      // Eager (-cl-fusion=off / set_fusion_enabled(false)): the exact
      // pre-DAG launch sequence, through the same launch path a flush
      // uses.
      detail::launch_node(rt, node);
    }
  }

  /// Capture + code generation (first invocation only), stamped on
  /// `record`; returns the cache entry. Concurrent first invocations may
  /// both capture; insert_kernel keeps the winner and the loser's work is
  /// discarded.
  template <std::size_t... Is>
  detail::CachedKernel* capture_kernel(detail::Runtime& rt,
                                       std::index_sequence<Is...>,
                                       detail::LaunchRecord& record) {
    using detail::CachedKernel;
    const void* key = reinterpret_cast<const void*>(fn_);
    CachedKernel* cached = rt.find_kernel(key);
    if (cached == nullptr) {
      detail::KernelBuilder builder;
      {
        hplrepro::trace::Span span("capture", "hpl");
        hplrepro::Stopwatch watch;
        detail::CaptureScope scope(builder);
        // Braced initialisation evaluates left to right, so parameter
        // indices are assigned positionally.
        std::tuple<Params...> formals{
            Params(detail::FormalTag{}, static_cast<int>(Is))...};
        std::apply(fn_, formals);
        builder.check_balanced();
        record.capture_us = watch.seconds() * 1e6;
      }
      CachedKernel fresh;
      fresh.name = rt.kernel_name(key);
      fresh.params = builder.params();
      // Kept for the fusion rewriter (fusion.cpp), which splices captured
      // bodies into synthesized kernels.
      fresh.body = builder.body();
      fresh.predefined = builder.predefined();
      {
        hplrepro::trace::Span span("codegen", "hpl");
        hplrepro::Stopwatch watch;
        fresh.source = detail::generate_kernel_source(
            fresh.name, fresh.params, builder.body(), builder.predefined());
        span.arg("kernel", fresh.name)
            .arg("source_bytes",
                 static_cast<std::uint64_t>(fresh.source.size()));
        record.codegen_us = watch.seconds() * 1e6;
      }
      cached = &rt.insert_kernel(key, std::move(fresh));
    }
    return cached;
  }

  /// Collects actual argument `actual` into the DAG node (array impls are
  /// retained; scalar values snapshotted). Transfers and kernel-argument
  /// binding happen later, in launch_node.
  template <typename Param, typename Actual>
  void record_arg(Actual& actual, detail::DagNode& node,
                  std::optional<hplrepro::clsim::NDRange>& default_global) {
    namespace clsim = hplrepro::clsim;
    using ActualD = std::decay_t<Actual>;

    if constexpr (detail::IsHplArray<Param>::value &&
                  detail::HplArrayTraits<Param>::ndim >= 1) {
      static_assert(detail::IsHplArray<ActualD>::value,
                    "eval: array parameter requires an HPL Array argument");
      using PT = detail::HplArrayTraits<Param>;
      using AT = detail::HplArrayTraits<ActualD>;
      static_assert(std::is_same_v<typename PT::elem, typename AT::elem>,
                    "eval: array element type mismatch");
      static_assert(PT::ndim == AT::ndim, "eval: array rank mismatch");

      detail::ArrayImplPtr impl = actual.impl();
      if (!default_global.has_value()) {
        clsim::NDRange range;
        range.dims = static_cast<int>(impl->dims.size());
        for (std::size_t d = 0; d < impl->dims.size(); ++d) {
          range.sizes[d] = impl->dims[d];
        }
        default_global = range;
      }
      detail::NodeArg arg;
      arg.impl = std::move(impl);
      arg.ndim = PT::ndim;
      node.args.push_back(std::move(arg));
    } else {
      // Scalar parameter: accept an HPL scalar or a plain arithmetic value.
      using T = typename detail::HplArrayTraits<Param>::elem;
      T value;
      if constexpr (detail::IsHplArray<ActualD>::value) {
        static_assert(detail::HplArrayTraits<ActualD>::ndim == 0,
                      "eval: scalar parameter requires a scalar argument");
        value = static_cast<T>(actual.value());
      } else {
        static_assert(std::is_arithmetic_v<ActualD>,
                      "eval: scalar parameter requires an arithmetic value");
        value = static_cast<T>(actual);
      }
      detail::NodeArg arg;
      arg.ndim = 0;
      arg.scalar = detail::make_scalar_value<T>(value);
      node.args.push_back(std::move(arg));
    }
  }

  void (*fn_)(Params...);
  std::optional<hplrepro::clsim::NDRange> global_;
  std::optional<hplrepro::clsim::NDRange> local_;
  Device device_{};
  std::vector<Device> devices_;
  CoexecPolicy policy_ = CoexecPolicy::Static;
  std::optional<int> split_dim_;
  std::optional<std::size_t> halo_rows_;
};

/// Requests the parallel evaluation of `kernel` (paper §III-C):
/// `eval(kernelfunction)(arg1, arg2, ...)`.
template <typename... Params>
Evaluator<Params...> eval(void (*kernel)(Params...)) {
  return Evaluator<Params...>(kernel);
}

}  // namespace HPL

#endif  // HPLREPRO_HPL_EVAL_HPP
