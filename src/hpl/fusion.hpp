#ifndef HPLREPRO_HPL_FUSION_HPP
#define HPLREPRO_HPL_FUSION_HPP

/// \file fusion.hpp
/// Lazy evaluation DAG + rewrite-rule kernel fusion (ROADMAP item 3,
/// following Steuwer et al., "Patterns and Rewrite Rules for Systematic
/// Code Generation").
///
/// With fusion enabled (the default), eval() no longer enqueues a kernel:
/// it records a DagNode (kernel, resolved NDRange, argument bindings) on a
/// process-wide deferred list. Nodes flush at any *forcing point* — a host
/// read or write of an array (the lazy-sync hooks in runtime.cpp),
/// profile()/reset_profile(), metrics/trace snapshots and every other
/// Runtime::finish_all() caller, a co-executed eval, runtime teardown, or
/// an explicit HPL::flush(). Before launching, a rewrite engine pattern-
/// matches producer->consumer chains over the recorded nodes and
/// synthesizes fused kernels through the regular clc codegen/build path:
///
///   - map-map fusion          adjacent single-statement maps over the same
///                             NDRange merge into one kernel; a consumer's
///                             load of a producer's store site is replaced
///                             by the producer's scalar temporary
///   - transpose sinking       a consumer reading a produced array at the
///                             idx/idy-swapped site recomputes the producer
///                             expression at the swapped coordinates
///                             instead of loading the intermediate
///   - map-reduce fusion       idx-pure maps feeding a grid-stride
///                             reduction are inlined into the reduction
///                             loop (one pass over the data)
///   - dead-temp elimination   a map whose output is fully overwritten by
///                             the next map without being read is dropped
///
/// Every rewrite keeps the producer's store, so fused and unfused runs are
/// bit-identical and RangeSet coherence marks are applied exactly as the
/// unfused sequence would. `-cl-fusion=off` (build options) or
/// set_fusion_enabled(false) restore the exact eager launch
/// sequence: the same launch_node() path runs either way, fusion merely
/// decides *when* and on *what* it runs. Co-executed evals launch each of
/// their chunks through launch_node() too (launch_coexec, launch.cpp).

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "clsim/runtime.hpp"
#include "coexec/coexec.hpp"
#include "hpl/array_impl.hpp"
#include "hpl/runtime.hpp"
#include "hpl/trace.hpp"

namespace HPL {

/// Launches every deferred eval recorded on the DAG (after rewriting).
/// Does not wait for the launched kernels; use profile()/array reads/
/// finish to quiesce. No-op when nothing is pending.
void flush();

/// Runtime fusion toggle (also settable via the "-cl-fusion=off" build
/// option). Turning fusion off flushes the DAG first, so the switch is a
/// clean seam: everything recorded before it may fuse, everything after
/// it launches eagerly.
void set_fusion_enabled(bool enabled);
bool fusion_enabled();

/// RAII fusion-off scope for code that asserts exact eager launch counts.
class ScopedFusionDisable {
 public:
  ScopedFusionDisable() : prev_(fusion_enabled()) { set_fusion_enabled(false); }
  ~ScopedFusionDisable() { set_fusion_enabled(prev_); }
  ScopedFusionDisable(const ScopedFusionDisable&) = delete;
  ScopedFusionDisable& operator=(const ScopedFusionDisable&) = delete;

 private:
  bool prev_;
};

namespace detail {

/// A scalar kernel argument captured at record time (eval's actuals may
/// die before the flush, so the value is snapshotted).
struct ScalarValue {
  enum class Kind : std::uint8_t { F32, F64, I64, U64 };
  Kind kind = Kind::F32;
  double f = 0;
  std::int64_t i = 0;
  std::uint64_t u = 0;
};

template <typename T>
ScalarValue make_scalar_value(T value) {
  ScalarValue s;
  if constexpr (std::is_same_v<T, float>) {
    s.kind = ScalarValue::Kind::F32;
    s.f = static_cast<double>(value);
  } else if constexpr (std::is_same_v<T, double>) {
    s.kind = ScalarValue::Kind::F64;
    s.f = static_cast<double>(value);
  } else if constexpr (std::is_signed_v<T>) {
    s.kind = ScalarValue::Kind::I64;
    s.i = static_cast<std::int64_t>(value);
  } else {
    s.kind = ScalarValue::Kind::U64;
    s.u = static_cast<std::uint64_t>(value);
  }
  return s;
}

/// One bound argument of a recorded eval, in parameter order. Array
/// arguments hold the impl (shared: the node keeps the array alive until
/// it launches); scalars hold the snapshotted value.
struct NodeArg {
  ArrayImplPtr impl;  // null => scalar
  int ndim = 0;
  ScalarValue scalar{};
};

/// A deferred eval: everything launch_node() needs to run it later,
/// resolved at record time (device, global range) so eval() keeps its
/// error contract for malformed invocations.
struct DagNode {
  CachedKernel* cached = nullptr;
  DeviceEntry* dev = nullptr;
  hplrepro::clsim::NDRange global;
  std::optional<hplrepro::clsim::NDRange> local;
  std::vector<NodeArg> args;
  /// The launch's record as eval() stamped it (trace.hpp), carried to the
  /// launch so latency windows and critical paths keep the user-perceived
  /// start instant. A fused node carries its first member's record.
  LaunchRecord record;
};

/// Records a deferred eval on the DAG.
void record_node(DagNode node);

/// Rewrites + launches all pending nodes. Safe to call from any thread;
/// whole flushes are serialized so the launch order of a batch is never
/// interleaved with another thread's batch. Rethrows the first launch
/// error after draining the batch (matching async error semantics, where
/// every eval enqueues and the first error surfaces at the quiesce).
void flush_dag();

/// One chunk of a co-executed eval (defined in launch.cpp).
struct ChunkLaunch;

/// Launches one node now: build (per-device cache), bind arguments with
/// coherence transfers, hidden dim args, enqueue, RangeSet write marks and
/// completion-side accounting; returns the kernel's event. This is the
/// single launch path — the eager (fusion-off) eval, the flush and every
/// co-executed chunk go through it, so profile() and metrics invariants
/// hold identically in all three. With `chunk`, reads of mapped arrays
/// narrow to the chunk's rows plus halo (when .halo(n) was given), writes
/// are marked by chunk rows and only the chunk's work-groups run.
hplrepro::clsim::Event launch_node(Runtime& rt, DagNode& node,
                                   const ChunkLaunch* chunk = nullptr);

/// Runs `node` split across `devices` (two or more): resolves the local
/// range, the split dimension and each array's row mapping, then lets the
/// coexec dispatcher hand work-group chunks to launch_node() under
/// `policy`. Blocks until every chunk completes. A failed chunk throws
/// once: the chunks already launched are drained and their queue errors
/// consumed before the rethrow.
void launch_coexec(Runtime& rt, DagNode& node,
                   const std::vector<Device>& devices,
                   hplrepro::coexec::Policy policy,
                   std::optional<int> split_dim,
                   std::optional<std::size_t> halo);

/// Applies the `-cl-fusion` build option (Runtime::set_build_options).
void apply_fusion_build_option(bool enabled);

/// Test hook: deliberately mis-synthesize map-map fusion (off-by-one on
/// the fused temporary) so the differential suite can prove it catches a
/// wrong rewrite. Never set outside tests.
void set_fusion_sabotage_for_test(bool on);

}  // namespace detail
}  // namespace HPL

#endif  // HPLREPRO_HPL_FUSION_HPP
