#ifndef HPLREPRO_CLC_STATS_HPP
#define HPLREPRO_CLC_STATS_HPP

/// \file stats.hpp
/// Dynamic execution statistics gathered by the VM. The clsim timing model
/// turns these counters into simulated device time.

#include <cstdint>

namespace hplrepro::clc {

struct ExecStats {
  // Dynamic instruction counts by class.
  std::uint64_t control_ops = 0;
  std::uint64_t int_ops = 0;
  std::uint64_t float_ops = 0;
  std::uint64_t double_ops = 0;
  std::uint64_t special_ops = 0;  // transcendental builtins
  // Optimizer superinstructions executed (LIdx*/SIdx*/Mad*). Each one also
  // counts once in its op class above; this tracks how much of the dynamic
  // stream ran fused (each fused op replaces at least two unfused ops).
  std::uint64_t fused_ops = 0;

  // Memory traffic.
  std::uint64_t global_load_bytes = 0;
  std::uint64_t global_store_bytes = 0;
  std::uint64_t global_accesses = 0;
  std::uint64_t global_transactions = 0;  // after coalescing analysis
  std::uint64_t local_bytes = 0;
  std::uint64_t local_accesses = 0;
  std::uint64_t private_bytes = 0;

  // Structure.
  std::uint64_t barriers_executed = 0;  // one per item per barrier
  std::uint64_t items = 0;
  std::uint64_t groups = 0;

  /// Field-by-field: interpreters and execution modes must agree on every
  /// counter, since the timing model reads them all.
  bool operator==(const ExecStats&) const = default;

  std::uint64_t total_ops() const {
    return control_ops + int_ops + float_ops + double_ops + special_ops;
  }

  ExecStats& operator+=(const ExecStats& o) {
    control_ops += o.control_ops;
    int_ops += o.int_ops;
    float_ops += o.float_ops;
    double_ops += o.double_ops;
    special_ops += o.special_ops;
    fused_ops += o.fused_ops;
    global_load_bytes += o.global_load_bytes;
    global_store_bytes += o.global_store_bytes;
    global_accesses += o.global_accesses;
    global_transactions += o.global_transactions;
    local_bytes += o.local_bytes;
    local_accesses += o.local_accesses;
    private_bytes += o.private_bytes;
    barriers_executed += o.barriers_executed;
    items += o.items;
    groups += o.groups;
    return *this;
  }
};

}  // namespace hplrepro::clc

#endif  // HPLREPRO_CLC_STATS_HPP
