// Google-benchmark microbenchmarks of the substrate itself: clc compile
// time, VM interpretation throughput, HPL capture/codegen cost, and warm
// eval dispatch overhead. These quantify the fixed costs that appear in
// the paper-figure measurements.
//
// Before the benchmarks run, main() prints two JSON tables:
//  - the optimizer scorecard (O0 vs O2 dynamic ops / traffic / sim time);
//  - the interpreter scorecard (O2 stack vs O2 threaded-register host
//    wall-clock per corpus kernel, with the geometric-mean speedup).
// With `--json <path>` the interpreter comparison is also written as an
// hplrepro-bench-v1 results file (BENCH_vm.json in CI).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "benchsuite/kernel_corpus.hpp"
#include "clsim/runtime.hpp"
#include "hpl/HPL.h"

namespace bs = hplrepro::benchsuite;
namespace clsim = hplrepro::clsim;

namespace {

const char* kSaxpySource = R"CLC(
__kernel void saxpy(__global float* y, __global const float* x, float a) {
  size_t i = get_global_id(0);
  y[i] = a * x[i] + y[i];
}
)CLC";

void BM_ClcCompileSaxpy(benchmark::State& state) {
  for (auto _ : state) {
    auto result = hplrepro::clc::compile(kSaxpySource);
    benchmark::DoNotOptimize(result.module.functions.data());
  }
}
BENCHMARK(BM_ClcCompileSaxpy);

void vm_saxpy_throughput(benchmark::State& state, const char* build_options) {
  const auto n = static_cast<std::size_t>(state.range(0));
  clsim::Context context(*clsim::Platform::get().device_by_name("Tesla"));
  clsim::CommandQueue queue(context);
  clsim::Buffer x(context, n * 4), y(context, n * 4);
  x.fill_zero();
  y.fill_zero();
  clsim::Program program(context, kSaxpySource);
  program.build(build_options);
  clsim::Kernel kernel(program, "saxpy");
  kernel.set_arg(0, y);
  kernel.set_arg(1, x);
  kernel.set_arg(2, 2.0f);

  for (auto _ : state) {
    queue.enqueue_ndrange_kernel(kernel, clsim::NDRange(n),
                                 clsim::NDRange(64));
    queue.finish();  // measure VM execution, not async enqueue cost
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}

void BM_VmSaxpyThroughputThreaded(benchmark::State& state) {
  vm_saxpy_throughput(state, "-cl-interp=threaded");
}
BENCHMARK(BM_VmSaxpyThroughputThreaded)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_VmSaxpyThroughputStack(benchmark::State& state) {
  vm_saxpy_throughput(state, "-cl-interp=stack");
}
BENCHMARK(BM_VmSaxpyThroughputStack)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void hpl_saxpy(HPL::Array<float, 1> y, HPL::Array<float, 1> x,
               HPL::Float a) {
  using namespace HPL;
  y[idx] = a * x[idx] + y[idx];
}

void BM_HplCaptureAndCodegen(benchmark::State& state) {
  HPL::Array<float, 1> x(64), y(64);
  for (auto _ : state) {
    HPL::purge_kernel_cache();
    HPL::eval(hpl_saxpy)(y, x, 1.0f);  // cold: capture + codegen + build
  }
}
BENCHMARK(BM_HplCaptureAndCodegen);

void BM_HplWarmEvalDispatch(benchmark::State& state) {
  HPL::Array<float, 1> x(64), y(64);
  HPL::eval(hpl_saxpy)(y, x, 1.0f);  // prime the cache
  for (auto _ : state) {
    HPL::eval(hpl_saxpy)(y, x, 1.0f);
  }
}
BENCHMARK(BM_HplWarmEvalDispatch);

void barrier_group_scheduling(benchmark::State& state,
                              const char* build_options) {
  // A barrier kernel forces the phase-based scheduler: measures the cost
  // of suspending/resuming every work-item of a group.
  const char* src = R"CLC(
__kernel void sync_heavy(__global float* data) {
  __local float s[64];
  size_t lid = get_local_id(0);
  s[lid] = data[get_global_id(0)];
  barrier(CLK_LOCAL_MEM_FENCE);
  s[lid] += s[(lid + 1) % 64];
  barrier(CLK_LOCAL_MEM_FENCE);
  data[get_global_id(0)] = s[lid];
}
)CLC";
  clsim::Context context(*clsim::Platform::get().device_by_name("Tesla"));
  clsim::CommandQueue queue(context);
  const std::size_t n = 1 << 12;
  clsim::Buffer data(context, n * 4);
  data.fill_zero();
  clsim::Program program(context, src);
  program.build(build_options);
  clsim::Kernel kernel(program, "sync_heavy");
  kernel.set_arg(0, data);
  for (auto _ : state) {
    queue.enqueue_ndrange_kernel(kernel, clsim::NDRange(n),
                                 clsim::NDRange(64));
    queue.finish();  // measure VM execution, not async enqueue cost
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}

void BM_BarrierGroupSchedulingThreaded(benchmark::State& state) {
  barrier_group_scheduling(state, "-cl-interp=threaded -cl-wg-loops=off");
}
BENCHMARK(BM_BarrierGroupSchedulingThreaded);

void BM_BarrierGroupSchedulingThreadedWgLoops(benchmark::State& state) {
  // Work-group compilation (default under threaded): barrier regions run
  // as work-item loops on one activation instead of per-item resumes.
  barrier_group_scheduling(state, "-cl-interp=threaded");
}
BENCHMARK(BM_BarrierGroupSchedulingThreadedWgLoops);

void BM_BarrierGroupSchedulingStack(benchmark::State& state) {
  barrier_group_scheduling(state, "-cl-interp=stack");
}
BENCHMARK(BM_BarrierGroupSchedulingStack);

void print_opt_pipeline_table() {
  const clsim::Device device =
      *clsim::Platform::get().device_by_name("Tesla");
  std::printf("{\n  \"optimizer_pipeline\": [\n");
  const auto& names = bs::corpus_kernel_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const bs::CorpusRun o0 = bs::run_corpus_kernel(names[i], device, "-O0");
    const bs::CorpusRun o2 = bs::run_corpus_kernel(names[i], device, "-O2");
    const auto gbytes = [](const bs::CorpusRun& r) {
      return r.stats.global_load_bytes + r.stats.global_store_bytes;
    };
    std::printf(
        "    {\"kernel\": \"%s\",\n"
        "     \"o0\": {\"dynamic_ops\": %llu, \"global_bytes\": %llu, "
        "\"sim_seconds\": %.9f, \"static_instrs\": %zu},\n"
        "     \"o2\": {\"dynamic_ops\": %llu, \"global_bytes\": %llu, "
        "\"sim_seconds\": %.9f, \"static_instrs\": %zu, "
        "\"fused_ops\": %llu},\n"
        "     \"dynamic_op_reduction\": %.4f}%s\n",
        names[i].c_str(),
        static_cast<unsigned long long>(o0.stats.total_ops()),
        static_cast<unsigned long long>(gbytes(o0)), o0.kernel_sim_seconds,
        o0.static_instrs,
        static_cast<unsigned long long>(o2.stats.total_ops()),
        static_cast<unsigned long long>(gbytes(o2)), o2.kernel_sim_seconds,
        o2.static_instrs,
        static_cast<unsigned long long>(o2.stats.fused_ops),
        1.0 - static_cast<double>(o2.stats.total_ops()) /
                  static_cast<double>(o0.stats.total_ops()),
        i + 1 < names.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

// Compares the interpreter configurations at O2 on every corpus kernel
// plus the barrier-heavy extras: host wall-clock inside the VM (best of
// kRepeats to shed scheduler noise) for the stack interpreter, the
// register interpreter with work-group compilation off, and the default
// threaded+wg-loops configuration. Cross-checks that all three produced
// bit-identical outputs and field-identical ExecStats — the lowering and
// work-group-compilation contracts. Besides the overall geomeans, a
// "geomean_barrier" row reports the wg-loops speedup over the dedicated
// barrier-kernel rows (barrier_kernel_names()), whose geometries make
// group scheduling — what region looping replaces — the dominant cost.
// The lane_kernel_names() rows close the table: straight-line elementwise
// kernels that the work-group VM runs in lane groups.
void print_interp_table(hplrepro::bench::JsonReporter& json) {
  constexpr int kRepeats = 9;
  const clsim::Device device =
      *clsim::Platform::get().device_by_name("Tesla");
  std::vector<std::string> names = bs::corpus_kernel_names();
  for (const std::string& name : bs::barrier_kernel_names()) {
    names.push_back(name);
  }
  const std::size_t barrier_end = names.size();
  for (const std::string& name : bs::lane_kernel_names()) {
    names.push_back(name);
  }
  std::printf("{\n  \"interpreter\": [\n");
  double log_sum = 0, log_sum_wg = 0, log_sum_barrier = 0;
  std::size_t barrier_rows = 0;
  const std::size_t corpus_rows = bs::corpus_kernel_names().size();
  for (std::size_t i = 0; i < names.size(); ++i) {
    double stack_wall = 0, threaded_wall = 0, wg_wall = 0;
    bool identical = true;
    for (int r = 0; r < kRepeats; ++r) {
      const bs::CorpusRun s =
          bs::run_corpus_kernel(names[i], device, "-O2 -cl-interp=stack");
      const bs::CorpusRun t = bs::run_corpus_kernel(
          names[i], device, "-O2 -cl-interp=threaded -cl-wg-loops=off");
      const bs::CorpusRun w =
          bs::run_corpus_kernel(names[i], device, "-O2 -cl-interp=threaded");
      identical = identical && s.outputs == t.outputs &&
                  s.outputs == w.outputs && s.stats == t.stats &&
                  s.stats == w.stats;
      stack_wall = r == 0 ? s.kernel_wall_seconds
                          : std::min(stack_wall, s.kernel_wall_seconds);
      threaded_wall = r == 0 ? t.kernel_wall_seconds
                             : std::min(threaded_wall, t.kernel_wall_seconds);
      wg_wall = r == 0 ? w.kernel_wall_seconds
                       : std::min(wg_wall, w.kernel_wall_seconds);
    }
    const double speedup = stack_wall / threaded_wall;
    const double wg_speedup = threaded_wall / wg_wall;
    log_sum += std::log(speedup);
    log_sum_wg += std::log(stack_wall / wg_wall);
    if (i >= corpus_rows && i < barrier_end) {  // barrier_kernel_names()
      log_sum_barrier += std::log(wg_speedup);
      ++barrier_rows;
    }
    std::printf(
        "    {\"kernel\": \"%s\", \"stack_wall_s\": %.9f, "
        "\"threaded_wall_s\": %.9f, \"wg_wall_s\": %.9f, "
        "\"speedup\": %.3f, \"wg_speedup\": %.3f, "
        "\"identical\": %s},\n",
        names[i].c_str(), stack_wall, threaded_wall, wg_wall, speedup,
        wg_speedup, identical ? "true" : "false");
    json.add_row(names[i], {{"stack_wall_s", stack_wall},
                            {"threaded_wall_s", threaded_wall},
                            {"wg_wall_s", wg_wall},
                            {"speedup", speedup},
                            {"wg_speedup", wg_speedup}});
  }
  const double geomean =
      std::exp(log_sum / static_cast<double>(names.size()));
  const double geomean_wg =
      std::exp(log_sum_wg / static_cast<double>(names.size()));
  const double geomean_barrier =
      barrier_rows == 0
          ? 1.0
          : std::exp(log_sum_barrier / static_cast<double>(barrier_rows));
  std::printf(
      "    {\"kernel\": \"geomean\", \"speedup\": %.3f},\n"
      "    {\"kernel\": \"geomean_wg\", \"speedup\": %.3f},\n"
      "    {\"kernel\": \"geomean_barrier\", \"wg_speedup\": %.3f}\n  ]\n}\n",
      geomean, geomean_wg, geomean_barrier);
  json.add_row("geomean", {{"speedup", geomean}});
  json.add_row("geomean_wg", {{"speedup", geomean_wg}});
  json.add_row("geomean_barrier", {{"wg_speedup", geomean_barrier}});
}

}  // namespace

int main(int argc, char** argv) {
  hplrepro::bench::JsonReporter json(argc, argv, "micro_vm");
  print_opt_pipeline_table();
  print_interp_table(json);
  // google-benchmark rejects flags it does not know, so hide `--json
  // <path>` and `--metrics <path>` (consumed by JsonReporter above) from it.
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--json" || arg == "--metrics") && i + 1 < argc) {
      ++i;
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
