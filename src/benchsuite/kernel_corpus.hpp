#ifndef HPLREPRO_BENCHSUITE_KERNEL_CORPUS_HPP
#define HPLREPRO_BENCHSUITE_KERNEL_CORPUS_HPP

/// \file kernel_corpus.hpp
/// Runs each benchsuite kernel at an arbitrary clBuildProgram options
/// string and reports everything a differential harness needs: the raw
/// output buffers, the dynamic execution statistics summed over every
/// launch, and the simulated kernel time. tests/clc/optimizer_diff_test.cpp
/// uses this to prove O0 and O2 builds bit-identical, and bench/micro_vm
/// uses it for the O0-vs-O2 table.
///
/// Problem sizes are fixed small (test-speed) but use the same input
/// generators and launch geometry as the real benchmark hosts.

#include <cstddef>
#include <string>
#include <vector>

#include "clc/stats.hpp"
#include "clsim/runtime.hpp"

namespace hplrepro::benchsuite {

/// One O0-or-O2 execution of a corpus kernel.
struct CorpusRun {
  std::string name;
  /// Raw bytes of each output buffer, in a fixed per-kernel order.
  std::vector<std::vector<std::byte>> outputs;
  /// Dynamic VM statistics summed over all launches.
  clc::ExecStats stats;
  /// Simulated kernel seconds summed over all launches.
  double kernel_sim_seconds = 0;
  /// Host wall-clock seconds spent inside the VM, summed over all
  /// launches — what bench/micro_vm compares across interpreters.
  double kernel_wall_seconds = 0;
  /// Static instruction count of the built module (all functions).
  std::size_t static_instrs = 0;
  /// What the optimizer reported for this build.
  clc::OptReport opt_report;
};

/// The corpus members: "ep", "floyd", "reduction", "spmv", "blur",
/// "sobel", "jacobi", "transpose".
const std::vector<std::string>& corpus_kernel_names();

/// Barrier-heavy extra rows for interpreter benchmarking: "reduction_big"
/// (the flat local-tiled reduce: publish to the tile, one barrier, item 0
/// folds the tile) and "jacobi_big" (the barrier-exchange Jacobi sweep on
/// a 1-D ring, periodic within the tile). Both are two barrier regions of
/// O(1) work per item over 256-item groups — the shape where the per-item
/// activation cost that work-group loops remove dominates; accepted by
/// run_corpus_kernel like any corpus name but NOT part of
/// corpus_kernel_names() (scenario cells and opt tables stay 8-wide).
const std::vector<std::string>& barrier_kernel_names();

/// Straight-line elementwise extra rows: "axpy" (y = a * x + y over 64K
/// floats, the patterns.hpp kernel), whose one region the work-group VM
/// runs in lane groups. Accepted by run_corpus_kernel; not part of
/// corpus_kernel_names().
const std::vector<std::string>& lane_kernel_names();

/// Builds and runs corpus kernel `name` on `device` with the given
/// clBuildProgram-style options ("" = driver default, "-cl-opt-disable"
/// = unoptimized). Throws InvalidArgument for an unknown name.
CorpusRun run_corpus_kernel(const std::string& name,
                            const clsim::Device& device,
                            const std::string& build_options);

}  // namespace hplrepro::benchsuite

#endif  // HPLREPRO_BENCHSUITE_KERNEL_CORPUS_HPP
