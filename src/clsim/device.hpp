#ifndef HPLREPRO_CLSIM_DEVICE_HPP
#define HPLREPRO_CLSIM_DEVICE_HPP

/// \file device.hpp
/// Simulated device descriptions. A DeviceSpec carries both functional
/// properties (double support, memory sizes) and the parameters of the
/// roofline timing model that converts VM execution statistics into
/// simulated device seconds.
///
/// The catalog instantiates the three devices of the paper's evaluation:
///   * Tesla C2050  — 448 thread processors @ 1.15 GHz, 144 GB/s, 6 GB
///   * Quadro FX 380 — 16 thread processors @ 0.70 GHz, no double support
///   * the Xeon host — one 2.13 GHz core used for the serial CPU baseline

#include <cstdint>
#include <string>

namespace hplrepro::clsim {

enum class DeviceType { Cpu, Gpu };

struct DeviceSpec {
  std::string name;
  DeviceType type = DeviceType::Gpu;

  // --- Compute model ---
  unsigned compute_units = 1;     // scalar processors running work-items
  double clock_ghz = 1.0;
  double ipc = 1.0;               // sustained simple-ops per cycle per core
  double special_op_cycles = 8;   // cycles per transcendental (sqrt/log/...)
  double double_rate = 1.0;       // double throughput relative to float
  bool supports_double = true;

  // --- Memory model ---
  double global_bandwidth_gbs = 100.0;
  double local_bandwidth_gbs = 1000.0;   // on-chip scratchpad
  bool models_coalescing = true;         // GPUs: pay per 32 B segment
  // GPUs keep thousands of work-items in flight, so memory traffic
  // overlaps with compute (roofline max). A single CPU core has no such
  // thread-level latency hiding: compute and memory time add up.
  bool hides_memory_latency = true;
  unsigned warp_size = 32;      // power of two (coalescing.hpp)
  unsigned segment_bytes = 32;  // power of two
  std::uint64_t global_mem_bytes = 1ull << 30;
  std::uint64_t local_mem_bytes = 48 * 1024;  // per work-group

  // --- Launch / synchronisation costs ---
  double launch_overhead_us = 6.0;  // per NDRange enqueue
  double barrier_cycles = 32;       // per work-item barrier crossing

  // --- Host <-> device transfers ---
  double transfer_bandwidth_gbs = 5.6;  // PCIe gen2 x16 effective
  double transfer_latency_us = 10.0;
};

/// Tesla C2050/C2070 as described in the paper's Section V-B.
DeviceSpec tesla_c2050();

/// Quadro FX 380 as described in Section V-C (no double precision).
DeviceSpec quadro_fx380();

/// One core of the paper's 2.13 GHz Xeon host; the serial CPU baseline.
DeviceSpec xeon_host();

}  // namespace hplrepro::clsim

#endif  // HPLREPRO_CLSIM_DEVICE_HPP
