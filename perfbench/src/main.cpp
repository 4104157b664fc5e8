// Benchmark binary: runs one workload for a fixed time from the single
// benchmark thread, times every operation from outside the library, checks
// every result, and prints one JSON line of metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--setup-only] [--corrupt-op <k>] [--spans-out <path>]
//
// It prints "READY" once setup (input generation, references, warm-up) is
// done, so the caller can time set-up from outside; --setup-only exits
// there. --trace 0 measures the end-to-end metrics with tracing off.
// --trace 1 measures half the time untraced and half traced, and reports
// the per-layer metrics of the traced half plus the tracing overhead.
//
// No metric is derived from Timings::host_seconds or
// ProfileSnapshot::host_seconds: both are wall time minus simulation wall
// time, clamped at zero, and the two terms overlap under the asynchronous
// queues. Host-side cost is timed directly around the calls instead.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "clc/codegen.hpp"
#include "clc/optimizer.hpp"
#include "clc/lexer.hpp"
#include "clc/parser.hpp"
#include "clc/preprocessor.hpp"
#include "clc/sema.hpp"
#include "clc/wgloops.hpp"
#include "hpl/HPL.h"
#include "spans.hpp"
#include "support/metrics.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool setup_only = false;
  std::uint64_t corrupt_op = 0;
  std::string spans_out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* v = argv[++i];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a.trace = std::atoi(v);
    } else if (key == "--corrupt-op") {
      a.corrupt_op = std::strtoull(v, nullptr, 10);
    } else if (key == "--spans-out") {
      a.spans_out = v;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

struct OpSample {
  SideTime whole;  // the whole operation: both variants and the checks
  SideTime hpl;
  SideTime opencl;
};

/// Everything one measurement phase saw.
struct Phase {
  std::vector<OpSample> ops;
  std::uint64_t failed = 0;
  std::string first_error;
  HPL::ProfileSnapshot prof;  // counter deltas over the phase
  double peak_rss_mb = 0;     // after kRssOps operations (or at the end)
};

/// Peak RSS is read after a fixed number of operations, so it does not
/// depend on how many operations a run's time allowed.
constexpr std::size_t kRssOps = 25;

HPL::ProfileSnapshot profile_delta(const HPL::ProfileSnapshot& a,
                                   const HPL::ProfileSnapshot& b) {
  HPL::ProfileSnapshot d;
  d.kernel_sim_seconds = b.kernel_sim_seconds - a.kernel_sim_seconds;
  d.transfer_sim_seconds = b.transfer_sim_seconds - a.transfer_sim_seconds;
  d.kernel_launches = b.kernel_launches - a.kernel_launches;
  d.kernel_cache_hits = b.kernel_cache_hits - a.kernel_cache_hits;
  d.bytes_to_device = b.bytes_to_device - a.bytes_to_device;
  d.bytes_to_host = b.bytes_to_host - a.bytes_to_host;
  d.bytes_device_to_device =
      b.bytes_device_to_device - a.bytes_device_to_device;
  return d;
}

/// Runs operations until `seconds` have passed (and at least kMinOps ran).
Phase measure(Workload& w, double seconds, std::uint64_t& next_op) {
  constexpr std::size_t kMinOps = 5;
  Phase p;
  const HPL::ProfileSnapshot before = HPL::profile();
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < seconds || p.ops.size() < kMinOps) {
    const std::uint64_t op = next_op++;
    set_current_op(op);
    OpSample s;
    try {
      SideTimer timer(s.whole);
      Span span("op.run");
      const OpOutcome o = w.run_op(op);
      s.hpl = o.hpl;
      s.opencl = o.opencl;
      if (o.mismatches != 0) {
        ++p.failed;
        if (p.first_error.empty()) p.first_error = o.first_error;
      }
    } catch (const std::exception& e) {
      ++p.failed;
      if (p.first_error.empty()) p.first_error = e.what();
    }
    set_current_op(0);
    p.ops.push_back(s);
    if (p.ops.size() == kRssOps) p.peak_rss_mb = peak_rss_mb();
  }
  if (p.ops.size() < kRssOps) p.peak_rss_mb = peak_rss_mb();
  p.prof = profile_delta(before, HPL::profile());
  return p;
}

/// Operations per second of `time_of` (wall or CPU), as the median over
/// ten windows of consecutive operations: a stall moves one window, not
/// the figure.
template <typename TimeOf>
double windowed_rate(const Phase& p, TimeOf time_of) {
  const std::size_t n = p.ops.size();
  const std::size_t windows = std::min<std::size_t>(10, n);
  std::vector<double> rates;
  std::size_t begin = 0;
  for (std::size_t k = 1; k <= windows; ++k) {
    const std::size_t end = n * k / windows;
    double t = 0;
    for (std::size_t i = begin; i < end; ++i) t += time_of(p.ops[i]);
    rates.push_back(ratio(static_cast<double>(end - begin), t));
    begin = end;
  }
  return quantile(rates, 0.5);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// The end-to-end metrics, then wall-clock diagnostics ("wall.*") that
/// carry no bound. The bounded timing metrics use process CPU time (every
/// thread's user + system time): on a shared host whose CPUs are
/// preempted, per-operation wall time swings by 2x from minute to minute
/// while CPU time moves by about a tenth (see README.md).
std::vector<Metric> end_to_end(const Phase& p) {
  std::vector<double> cpu_ms, wall_ms, cpu_ratios, wall_ratios;
  for (const OpSample& s : p.ops) {
    cpu_ms.push_back(s.hpl.cpu_s * 1e3);
    wall_ms.push_back(s.hpl.wall_s * 1e3);
    cpu_ratios.push_back(ratio(s.hpl.cpu_s, s.opencl.cpu_s));
    wall_ratios.push_back(ratio(s.hpl.wall_s, s.opencl.wall_s));
  }
  const double n = static_cast<double>(p.ops.size());
  return {
      {"ops_per_cpu_s",
       windowed_rate(p, [](const OpSample& s) { return s.whole.cpu_s; }),
       "1/s"},
      {"op_cpu_p50_ms", quantile(cpu_ms, 0.5), "ms"},
      {"op_cpu_p90_ms", quantile(cpu_ms, 0.9), "ms"},
      {"hpl_opencl_cpu_ratio", quantile(cpu_ratios, 0.5), "ratio"},
      {"modeled_device_s",
       (p.prof.kernel_sim_seconds + p.prof.transfer_sim_seconds) / n, "s"},
      {"peak_rss_mb", p.peak_rss_mb, "MiB"},
      {"wall.ops_per_s",
       windowed_rate(p, [](const OpSample& s) { return s.whole.wall_s; }),
       "1/s"},
      {"wall.op_p50_ms", quantile(wall_ms, 0.5), "ms"},
      {"wall.op_p90_ms", quantile(wall_ms, 0.9), "ms"},
      {"wall.hpl_opencl_ratio", quantile(wall_ratios, 0.5), "ratio"},
  };
}

// --- clc phase probe ---------------------------------------------------------

struct ProbeTotals {
  std::uint64_t compiles = 0;
  std::uint64_t instrs_before = 0;
  std::uint64_t instrs_after = 0;
};

/// Compiles each source through the clc phases' public functions, one
/// span per phase, `reps` times (the same sequence clc::compile runs).
ProbeTotals probe_clc(const std::vector<std::string>& sources, int reps) {
  namespace clc = hplrepro::clc;
  ProbeTotals t;
  for (int r = 0; r < reps; ++r) {
    for (const std::string& src : sources) {
      clc::DiagnosticSink diags;
      auto check = [&](const char* phase) {
        if (diags.has_errors()) {
          throw std::runtime_error(std::string("clc probe: ") + phase +
                                   " failed: " + diags.log());
        }
      };
      clc::PreprocessResult pp;
      {
        Span span("clc.preprocess");
        pp = clc::preprocess(src, diags);
      }
      check("preprocess");
      std::vector<clc::Token> tokens;
      {
        Span span("clc.lex");
        clc::Lexer lexer(pp.text, diags);
        tokens = lexer.lex_all();
      }
      check("lex");
      {
        Span span("clc.macro");
        tokens = clc::expand_macros(std::move(tokens), pp.macros, diags);
      }
      check("macro");
      clc::TranslationUnit unit;
      {
        Span span("clc.parse");
        clc::Parser parser(std::move(tokens), diags);
        unit = parser.parse();
      }
      check("parse");
      {
        Span span("clc.sema");
        clc::Sema sema(unit, diags);
        sema.run();
      }
      check("sema");
      clc::Module module;
      {
        Span span("clc.bytecode");
        module = clc::generate_bytecode(unit);
      }
      clc::OptReport report;
      {
        Span span("clc.optimize");
        report = clc::optimize_module(module, clc::OptLevel::O2);
      }
      std::string note;
      {
        Span span("clc.lower");
        note = clc::lower_module(module);
      }
      if (note.empty()) {
        Span span("clc.wgloops");
        clc::analyze_wg_loops(module);
      }
      ++t.compiles;
      for (const auto& f : report.functions) {
        t.instrs_before += f.instrs_before;
        t.instrs_after += f.instrs_after;
      }
    }
  }
  return t;
}

// --- per-layer metrics -------------------------------------------------------

double mean_us(const char* name) {
  const NameTotal t = name_total(name);
  return t.count == 0 ? 0.0 : t.sum_us / static_cast<double>(t.count);
}

std::vector<Metric> per_layer(const Phase& traced, const Phase& untraced,
                              const ProbeTotals& probe) {
  namespace metrics = hplrepro::metrics;
  const metrics::Snapshot snap = metrics::snapshot();
  std::map<std::string, std::uint64_t> counters;
  for (const auto& c : snap.counters) counters[c.name] = c.value;
  const metrics::HistogramSnapshot* host_ns = nullptr;
  const metrics::HistogramSnapshot* vm_wall = nullptr;
  for (const auto& h : snap.histograms) {
    if (h.name == "hpl.eval.host_ns") host_ns = &h;
    if (h.name == "vm.launch.wall_ns") vm_wall = &h;
  }
  const double vm_wall_ns = vm_wall == nullptr ? 0.0 : vm_wall->sum;

  const double ops = static_cast<double>(traced.ops.size());
  const HPL::ProfileSnapshot& pr = traced.prof;
  const double launches = static_cast<double>(pr.kernel_launches);
  const double compiles = static_cast<double>(probe.compiles);
  auto per_compile = [&](const char* name) {
    return ratio(name_total(name).sum_us, compiles);
  };
  std::vector<double> traced_cpu, untraced_cpu;
  for (const OpSample& s : traced.ops) traced_cpu.push_back(s.whole.cpu_s);
  for (const OpSample& s : untraced.ops) untraced_cpu.push_back(s.whole.cpu_s);
  const CoexecTotals& co = coexec_totals();

  std::vector<Metric> m = {
      {"hpl.eval_call_us", mean_us("hpl.eval"), "us"},
      {"hpl.force_us", mean_us("hpl.force"), "us"},
      {"hpl.first_eval_us", mean_us("hpl.first_eval"), "us"},
      {"hpl.warm_eval_us", host_ns == nullptr ? 0.0 : host_ns->p50 / 1e3,
       "us"},
      {"hpl.cache_hit_ratio",
       ratio(static_cast<double>(pr.kernel_cache_hits), launches), "ratio"},
      {"hpl.launches_per_op", launches / ops, "count"},
      {"hpl.fusion_launches_saved_ratio",
       ratio(static_cast<double>(counters["fusion.launches_saved"]),
             static_cast<double>(counters["fusion.unfused_launches"])),
       "ratio"},
      {"hpl.h2d_bytes_per_op", static_cast<double>(pr.bytes_to_device) / ops,
       "B"},
      {"hpl.d2h_bytes_per_op", static_cast<double>(pr.bytes_to_host) / ops,
       "B"},
      {"hpl.d2d_bytes_per_op",
       static_cast<double>(pr.bytes_device_to_device) / ops, "B"},
      {"clc.preprocess_us", per_compile("clc.preprocess"), "us"},
      {"clc.lex_us", per_compile("clc.lex"), "us"},
      {"clc.macro_us", per_compile("clc.macro"), "us"},
      {"clc.parse_us", per_compile("clc.parse"), "us"},
      {"clc.sema_us", per_compile("clc.sema"), "us"},
      {"clc.bytecode_us", per_compile("clc.bytecode"), "us"},
      {"clc.optimize_us", per_compile("clc.optimize"), "us"},
      {"clc.lower_us", per_compile("clc.lower"), "us"},
      {"clc.wgloops_us", per_compile("clc.wgloops"), "us"},
      {"clc.vm_ns_per_op",
       ratio(vm_wall_ns, static_cast<double>(counters["vm.ops"])), "ns"},
      {"clc.ops_removed_ratio",
       ratio(static_cast<double>(probe.instrs_before - probe.instrs_after),
             static_cast<double>(probe.instrs_before)),
       "ratio"},
      {"clc.wg_launch_share",
       ratio(static_cast<double>(counters["vm.wg_launches"]),
             static_cast<double>(counters["vm.launches"])),
       "ratio"},
      {"clsim.build_us", mean_us("clsim.build"), "us"},
      {"clsim.enqueue_us", mean_us("clsim.enqueue"), "us"},
      {"clsim.wait_us", name_total("clsim.wait").sum_us / ops, "us"},
      {"clsim.items_per_s",
       ratio(static_cast<double>(counters["vm.items"]), vm_wall_ns / 1e9),
       "1/s"},
      {"clsim.kernel_sim_s_per_op", pr.kernel_sim_seconds / ops, "s"},
      {"clsim.transfer_sim_s_per_op", pr.transfer_sim_seconds / ops, "s"},
      {"coexec.eval_us", mean_us("coexec.eval"), "us"},
      {"coexec.chunks_per_eval",
       ratio(static_cast<double>(co.chunks), static_cast<double>(co.evals)),
       "count"},
      {"coexec.makespan_over_ideal",
       ratio(co.makespan_over_ideal_sum, static_cast<double>(co.evals)),
       "ratio"},
      {"trace.overhead_ratio",
       ratio(quantile(traced_cpu, 0.5), quantile(untraced_cpu, 0.5)),
       "ratio"},
  };
  std::map<std::string, double> self;
  for (const LayerTime& t : layer_times(/*ops_only=*/true)) {
    self[t.layer] = t.self_us;
  }
  for (const char* layer :
       {"op", "benchsuite", "hpl", "coexec", "clsim", "ref"}) {
    m.push_back({std::string(layer) + ".self_us_per_op", self[layer] / ops,
                 "us"});
  }
  return m;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics, const std::string& error) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"error\": \"";
  for (const char c : error) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  out += "\", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  std::unique_ptr<Workload> w =
      make_workload(args.workload, args.seed, args.corrupt_op);
  if (w == nullptr) usage(("unknown workload " + args.workload).c_str());
  w->setup();
  std::printf("READY\n");
  std::fflush(stdout);
  if (args.setup_only) return 0;

  std::uint64_t next_op = 1;
  const double untraced_s = args.trace == 0 ? args.seconds : args.seconds / 2;
  const Phase untraced = measure(*w, untraced_s, next_op);

  std::vector<Metric> metrics;
  std::uint64_t attempted = untraced.ops.size();
  std::uint64_t failed = untraced.failed;
  std::string error = untraced.first_error;
  bool sound = true;
  if (args.trace == 0) {
    metrics = end_to_end(untraced);
  } else {
    hplrepro::metrics::reset();
    hplrepro::metrics::set_enabled(true);
    set_tracing(true);
    const Phase traced = measure(*w, args.seconds - untraced_s, next_op);
    const ProbeTotals probe = probe_clc(w->kernel_sources(), 3);
    set_tracing(false);
    attempted += traced.ops.size();
    failed += traced.failed;
    if (error.empty()) error = traced.first_error;
    metrics = per_layer(traced, untraced, probe);
    const std::string problem = validate_spans();
    if (!problem.empty()) {
      sound = false;
      error = "span check: " + problem;
    }
    if (!args.spans_out.empty() && !write_spans(args.spans_out)) {
      sound = false;
      error = "cannot write " + args.spans_out;
    }
  }
  for (const Metric& m : metrics) {
    if (!(m.value >= 0)) {
      sound = false;
      error = "negative or NaN metric " + m.name;
    }
  }
  const bool correct = sound && failed == 0;
  print_json(correct, attempted, failed, metrics, error);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
