#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

/// \file workloads.hpp
/// The benchmark's three workloads. Each one is driven from the single
/// benchmark thread: setup() generates the inputs from the seed, computes
/// the serial references and warms the caches; run_op() runs one
/// operation — the HPL side and its OpenCL-style twin on identical inputs —
/// and checks both results.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Wall seconds and process CPU seconds (all threads) of one side.
struct SideTime {
  double wall_s = 0;
  double cpu_s = 0;
};

/// Process CPU time: every thread's user + system time. Unlike wall time
/// it does not grow while the host preempts this machine's CPUs.
double process_cpu_s();

/// Adds the wall and CPU seconds of its lifetime to a SideTime.
class SideTimer {
public:
  explicit SideTimer(SideTime& side);
  ~SideTimer();
  SideTimer(const SideTimer&) = delete;
  SideTimer& operator=(const SideTimer&) = delete;

private:
  SideTime& side_;
  double wall0_;
  double cpu0_;
};

struct OpOutcome {
  SideTime hpl;     // the HPL side of the operation
  SideTime opencl;  // the OpenCL-style side
  std::uint64_t mismatches = 0;
  std::string first_error;
};

class Workload {
public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual OpOutcome run_op(std::uint64_t op) = 0;
  /// The OpenCL C sources the workload builds, for the clc phase probe.
  virtual std::vector<std::string> kernel_sources() = 0;
};

/// Co-execution plans seen while tracing, from coexec::last_dispatch()
/// after each co-executed eval the benchmark issues. The ideal makespan
/// is total / sum of per-slot rates (groups per simulated second), i.e.
/// the summed-roofline bound the guided policy aims for.
struct CoexecTotals {
  std::uint64_t evals = 0;
  std::uint64_t chunks = 0;
  double makespan_over_ideal_sum = 0;
};
const CoexecTotals& coexec_totals();

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// `corrupt_op` >= 1 corrupts one expected value of that operation (the
/// self-test's planted failure); 0 leaves every expectation intact.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        std::uint64_t corrupt_op);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
