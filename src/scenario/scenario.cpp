#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

#include "benchsuite/reduction.hpp"
#include "benchsuite/stencil.hpp"
#include "benchsuite/transpose.hpp"
#include "clsim/runtime.hpp"
#include "coexec/coexec.hpp"
#include "hpl/fusion.hpp"
#include "hpl/patterns.hpp"
#include "hpl/runtime.hpp"
#include "hpl/trace.hpp"
#include "scenario/workloads.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace hplrepro::scenario {

namespace {

/// Slack factor of the roofline envelope. Wide on purpose: the envelope
/// exists to catch order-of-magnitude timing-model regressions, not to
/// re-derive the model.
constexpr double kRooflineSlack = 64.0;

const char* device_needle(const std::string& label) {
  return label == "CPU" ? "Xeon" : label.c_str();
}

clsim::Device clsim_device(const std::string& label) {
  auto dev = clsim::Platform::get().device_by_name(device_needle(label));
  if (!dev) {
    throw hplrepro::InvalidArgument("unknown scenario device '" + label +
                                    "'");
  }
  return *dev;
}

HPL::Device hpl_device(const std::string& label) {
  auto dev = HPL::Device::by_name(device_needle(label));
  if (!dev) {
    throw hplrepro::InvalidArgument("unknown scenario device '" + label +
                                    "'");
  }
  return *dev;
}

std::uint64_t fnv1a(const std::vector<double>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const double v : values) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (bits >> shift) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

std::string fail(const char* rule, const std::string& detail) {
  return std::string(rule) + ": " + detail;
}

/// Runs one workload in one cell and applies the per-run grade rules
/// (correctness, profile reconciliation, perf envelope). Cross-variant
/// identity is graded by run_sweep over the collected hashes.
WorkloadGrade grade_one(const Workload& workload, const Cell& cell,
                        const std::vector<double>& reference) {
  WorkloadGrade grade;
  grade.workload = workload.name;

  const clsim::DeviceSpec& spec = clsim_device(cell.device).spec();
  if (workload.needs_double && !spec.supports_double) {
    grade.skipped = true;
    grade.skip_reason = "device has no double support";
    return grade;
  }

  // Cell configuration. The explicit purge makes cache accounting
  // deterministic: the first eval of the run is the one and only miss.
  clsim::set_async_enabled(cell.async);
  HPL::set_kernel_build_options(cell.build_options());
  HPL::purge_kernel_cache();
  HPL::reset_profile();

  const std::vector<double> got = workload.run(cell.size, hpl_device(cell.device));
  const HPL::ProfileSnapshot profile = HPL::profile();
  const std::vector<HPL::KernelProfile> kernels = HPL::kernel_profiles();

  // --- Grade 1: numeric correctness against the serial reference -----------
  if (got.size() != reference.size()) {
    grade.failures.push_back(fail(
        "correctness", "output has " + std::to_string(got.size()) +
                           " elements, reference has " +
                           std::to_string(reference.size())));
  } else {
    double worst_err = 0, worst_tol = 0;
    bool correct = true;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const double err = std::fabs(got[i] - reference[i]);
      const double tol =
          workload.abs_tol + workload.rel_tol * std::fabs(reference[i]);
      if (err > worst_err) {
        worst_err = err;
        worst_tol = tol;
      }
      if (!(err <= tol)) correct = false;  // catches NaN too
    }
    grade.max_error = worst_err;
    grade.tolerance = worst_tol;
    if (!correct) {
      std::ostringstream msg;
      msg << "worst |ref-got| " << worst_err << " exceeds tolerance "
          << worst_tol;
      grade.failures.push_back(fail("correctness", msg.str()));
    }
  }
  grade.output_hash = fnv1a(got);

  // --- Grade 2: profile reconciliation --------------------------------------
  grade.launches = profile.kernel_launches;
  grade.cache_hits = profile.kernel_cache_hits;
  grade.cache_misses = profile.kernel_cache_misses;
  grade.kernel_sim_seconds = profile.kernel_sim_seconds;
  for (const auto& k : kernels) {
    grade.launch_sim_seconds += k.sim.launch_s;
    grade.global_bytes += k.global_bytes;
    grade.ops += k.ops;
  }

  const std::uint64_t expected = workload.expected_launches(cell.size);
  if (grade.launches != expected) {
    grade.failures.push_back(
        fail("profile", "expected " + std::to_string(expected) +
                            " launches, profiled " +
                            std::to_string(grade.launches)));
  }
  if (grade.cache_hits + grade.cache_misses != grade.launches) {
    grade.failures.push_back(fail(
        "profile", "cache hits " + std::to_string(grade.cache_hits) +
                       " + misses " + std::to_string(grade.cache_misses) +
                       " != launches " + std::to_string(grade.launches)));
  }
  if (grade.cache_misses != 1) {
    grade.failures.push_back(
        fail("profile", "expected exactly 1 cache miss after a purge, got " +
                            std::to_string(grade.cache_misses)));
  }
  if (grade.ops == 0 || grade.global_bytes == 0) {
    grade.failures.push_back(
        fail("profile", "kernel registry recorded no ops or bytes"));
  }

  // --- Grade 3: perf envelope -----------------------------------------------
  const double launch_overhead_s = spec.launch_overhead_us * 1e-6;
  const double expected_launch_s =
      static_cast<double>(grade.launches) * launch_overhead_s;
  if (std::fabs(grade.launch_sim_seconds - expected_launch_s) >
      1e-9 * expected_launch_s + 1e-15) {
    std::ostringstream msg;
    msg << "launch overhead " << grade.launch_sim_seconds << " s, expected "
        << expected_launch_s << " s";
    grade.failures.push_back(fail("envelope", msg.str()));
  }

  const double peak_ops =
      static_cast<double>(spec.compute_units) * spec.clock_ghz * 1e9 *
      spec.ipc;
  const double t_comp = workload.flops(cell.size) / peak_ops;
  const double t_mem =
      workload.bytes(cell.size) / (spec.global_bandwidth_gbs * 1e9);
  grade.roofline_lower = std::max(t_comp, t_mem) / kRooflineSlack;
  grade.roofline_upper = kRooflineSlack * (t_comp + t_mem) +
                         8.0 * static_cast<double>(grade.launches) *
                             launch_overhead_s +
                         1e-3;
  if (grade.kernel_sim_seconds < grade.roofline_lower ||
      grade.kernel_sim_seconds > grade.roofline_upper) {
    std::ostringstream msg;
    msg << "simulated kernel time " << grade.kernel_sim_seconds
        << " s outside roofline [" << grade.roofline_lower << ", "
        << grade.roofline_upper << "]";
    grade.failures.push_back(fail("envelope", msg.str()));
  }

  return grade;
}

/// Saves and restores the process-global runtime configuration the sweep
/// mutates, so callers (tests, benches) see their own settings again.
class ConfigGuard {
public:
  ConfigGuard()
      : async_(clsim::async_enabled()),
        options_(HPL::kernel_build_options()),
        fusion_(HPL::fusion_enabled()) {}
  ~ConfigGuard() {
    clsim::set_async_enabled(async_);
    HPL::set_kernel_build_options(options_);
    // The restored options may carry no -cl-fusion token, which leaves the
    // runtime toggle wherever the last cell put it; restore it explicitly.
    HPL::set_fusion_enabled(fusion_);
    HPL::purge_kernel_cache();
    HPL::reset_profile();
  }

private:
  bool async_;
  std::string options_;
  bool fusion_;
};

}  // namespace

Axes Axes::full() { return Axes{}; }

Axes Axes::reduced() {
  Axes axes;
  axes.sizes = {"small"};
  return axes;
}

std::string Cell::label() const {
  return device + "/" + (async ? "async" : "sync") + "/" + interp + "/" +
         opt + "/" + size + "/" + (fusion ? "fused" : "nofuse");
}

std::string Cell::build_options() const {
  const std::string fusion_token =
      std::string(" -cl-fusion=") + (fusion ? "on" : "off");
  if (interp == "threaded-wg-off") {
    return opt + " -cl-interp=threaded -cl-wg-loops=off" + fusion_token;
  }
  return opt + " -cl-interp=" + interp + fusion_token;
}

bool CellReport::passed() const {
  for (const auto& g : grades) {
    if (!g.skipped && !g.failures.empty()) return false;
  }
  return true;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& w : workloads()) names.push_back(w.name);
  return names;
}

SweepReport run_sweep(const Axes& axes) {
  ConfigGuard guard;
  SweepReport report;
  report.axes = axes;

  // Serial references are variant-independent: compute once per
  // (workload, size).
  std::map<std::string, std::vector<double>> references;
  const auto reference_for = [&](const Workload& w, const std::string& size)
      -> const std::vector<double>& {
    const std::string key = w.name + "|" + size;
    auto it = references.find(key);
    if (it == references.end()) {
      it = references.emplace(key, w.reference(size)).first;
    }
    return it->second;
  };

  // Observations for the cross-variant identity grades.
  struct Observation {
    std::string cell_label;
    WorkloadGrade grade;
  };
  std::map<std::string, std::vector<Observation>> sync_interp_groups;
  std::map<std::string, std::vector<Observation>> opt_groups;

  for (const auto& device : axes.devices) {
    for (const auto& size : axes.sizes) {
      for (const auto& opt : axes.opts) {
        for (const auto& interp : axes.interps) {
          for (const bool async : axes.async_modes) {
            for (const bool fusion : axes.fusion_modes) {
              Cell cell{device, async, interp, opt, size, fusion};
              CellReport cell_report;
              cell_report.cell = cell;
              for (const auto& workload : workloads()) {
                WorkloadGrade grade =
                    grade_one(workload, cell, reference_for(workload, size));
                if (grade.skipped) {
                  ++report.skipped;
                } else {
                  ++report.graded;
                  if (grade.failures.empty()) {
                    ++report.passed;
                  } else {
                    ++report.failed;
                  }
                  // Fusion mode deliberately stays OUT of both group keys:
                  // the benchsuite kernels are fusion-ineligible, so the
                  // lazy DAG must be observationally neutral — fused and
                  // unfused cells land in the same identity group.
                  const std::string run_key =
                      device + "|" + size + "|" + workload.name;
                  sync_interp_groups[run_key + "|" + opt].push_back(
                      {cell.label(), grade});
                  opt_groups[run_key].push_back({cell.label(), grade});
                }
                cell_report.grades.push_back(std::move(grade));
              }
              report.cells.push_back(std::move(cell_report));
            }
          }
        }
      }
    }
  }

  // Identity across the sync × interpreter variants of one
  // (device, opt, size, workload): bit-identical outputs and identical
  // profiled work. The interpreter and the sync mode are execution
  // details; nothing observable may depend on them.
  for (const auto& [key, group] : sync_interp_groups) {
    const Observation& base = group.front();
    for (const Observation& other : group) {
      const auto& a = base.grade;
      const auto& b = other.grade;
      if (a.output_hash != b.output_hash) {
        report.identity_failures.push_back(
            key + ": output of " + other.cell_label +
            " differs from " + base.cell_label);
      }
      if (std::fabs(a.kernel_sim_seconds - b.kernel_sim_seconds) >
          1e-12 * std::fabs(a.kernel_sim_seconds)) {
        report.identity_failures.push_back(
            key + ": simulated time of " + other.cell_label + " (" +
            std::to_string(b.kernel_sim_seconds) + ") differs from " +
            base.cell_label + " (" +
            std::to_string(a.kernel_sim_seconds) + ")");
      }
      if (a.launches != b.launches || a.cache_hits != b.cache_hits ||
          a.cache_misses != b.cache_misses || a.ops != b.ops ||
          a.global_bytes != b.global_bytes) {
        report.identity_failures.push_back(
            key + ": profiled work of " + other.cell_label +
            " differs from " + base.cell_label);
      }
    }
  }

  // Identity across -O0/-O2 (and everything else) of one
  // (device, size, workload): the optimizer contract — outputs stay
  // bit-identical; only time and op counts may change.
  for (const auto& [key, group] : opt_groups) {
    const Observation& base = group.front();
    for (const Observation& other : group) {
      if (base.grade.output_hash != other.grade.output_hash) {
        report.identity_failures.push_back(
            key + ": output of " + other.cell_label +
            " differs from " + base.cell_label + " (optimizer contract)");
      }
    }
  }

  return report;
}

namespace {

/// Device sets of the coexec axis: the asymmetric GPU pair, optionally
/// plus the host CPU.
std::vector<HPL::Device> coexec_device_set(int n) {
  std::vector<HPL::Device> ds{hpl_device("Tesla"), hpl_device("Quadro")};
  if (n >= 3) ds.push_back(HPL::Device::cpu_device());
  return ds;
}

/// Runs one coexec-axis workload and returns its output signature.
/// An empty device set runs single-device on Tesla (the reference).
/// Every workload issues exactly ONE eval, so the profile counters of a
/// co-executed run reconcile against coexec::last_dispatch() alone.
std::vector<double> coexec_run(const std::string& name,
                               const std::vector<HPL::Device>& devs,
                               hplrepro::coexec::Policy policy) {
  namespace bs = hplrepro::benchsuite;
  const HPL::Device single = hpl_device("Tesla");
  const auto widen = [](const std::vector<float>& v) {
    return std::vector<double>(v.begin(), v.end());
  };
  if (name == "reduction") {
    bs::ReductionConfig cfg;
    cfg.elements = 1 << 16;
    cfg.groups = 64;
    cfg.local_size = 128;
    cfg.coexec_devices = devs;
    cfg.coexec_policy = policy;
    return {bs::reduction_hpl(cfg, single).sum};
  }
  if (name == "transpose") {
    bs::TransposeConfig cfg;
    cfg.rows = 128;
    cfg.cols = 128;
    cfg.coexec_devices = devs;
    cfg.coexec_policy = policy;
    return widen(bs::transpose_hpl(cfg, single).output);
  }
  if (name == "jacobi") {
    bs::StencilConfig cfg;
    cfg.width = 96;
    cfg.height = 96;
    cfg.iterations = 1;
    cfg.coexec_devices = devs;
    cfg.coexec_policy = policy;
    return widen(bs::jacobi_hpl(cfg, single).output);
  }
  throw hplrepro::InvalidArgument("unknown coexec workload '" + name + "'");
}

}  // namespace

std::vector<CoexecGrade> run_coexec_axis() {
  namespace coexec = hplrepro::coexec;
  const char* kWorkloads[] = {"reduction", "transpose", "jacobi"};
  const coexec::Policy kPolicies[] = {
      coexec::Policy::Static, coexec::Policy::Dynamic,
      coexec::Policy::Guided};

  std::vector<CoexecGrade> grades;
  for (const char* workload : kWorkloads) {
    // Single-device reference signature (bit-identity baseline).
    HPL::purge_kernel_cache();
    HPL::reset_profile();
    const std::vector<double> reference =
        coexec_run(workload, {}, coexec::Policy::Static);

    for (const int nset : {2, 3}) {
      const std::vector<HPL::Device> devs = coexec_device_set(nset);
      for (const coexec::Policy policy : kPolicies) {
        CoexecGrade grade;
        grade.workload = workload;
        grade.policy = coexec::policy_name(policy);
        grade.device_count = nset;

        HPL::purge_kernel_cache();
        HPL::reset_profile();
        const std::vector<double> split =
            coexec_run(workload, devs, policy);
        const coexec::DispatchResult plan = coexec::last_dispatch();
        const HPL::ProfileSnapshot prof = HPL::profile();
        grade.chunks = plan.chunks.size();
        grade.launches = prof.kernel_launches;
        grade.cache_hits = prof.kernel_cache_hits;
        grade.cache_misses = prof.kernel_cache_misses;

        if (split != reference) {
          grade.failures.push_back(fail(
              "coexec-identity",
              "split result differs from the single-device run"));
        }

        // Plan sanity: >= 2 chunks covering [0, total) exactly once.
        if (plan.chunks.size() < 2) {
          grade.failures.push_back(fail(
              "coexec-plan", "co-executed NDRange produced " +
                                 std::to_string(plan.chunks.size()) +
                                 " chunk(s)"));
        }
        std::vector<coexec::Chunk> sorted = plan.chunks;
        std::sort(sorted.begin(), sorted.end(),
                  [](const coexec::Chunk& a, const coexec::Chunk& b) {
                    return a.begin < b.begin;
                  });
        std::size_t cursor = 0;
        bool contiguous = true;
        for (const coexec::Chunk& chunk : sorted) {
          contiguous = contiguous && chunk.begin == cursor &&
                       chunk.count > 0;
          cursor += chunk.count;
        }
        if (!contiguous || cursor != plan.total) {
          grade.failures.push_back(fail(
              "coexec-plan", "chunks do not cover the range exactly"));
        }

        // Profile reconciliation: each chunk is one mini-eval.
        if (grade.launches != grade.chunks) {
          grade.failures.push_back(fail(
              "coexec-profile",
              "launches " + std::to_string(grade.launches) +
                  " != plan chunks " + std::to_string(grade.chunks)));
        }
        if (grade.cache_hits + grade.cache_misses != grade.launches) {
          grade.failures.push_back(fail(
              "coexec-profile",
              "hits " + std::to_string(grade.cache_hits) + " + misses " +
                  std::to_string(grade.cache_misses) + " != launches " +
                  std::to_string(grade.launches)));
        }
        std::set<int> slots;
        for (const coexec::Chunk& chunk : plan.chunks) {
          slots.insert(chunk.slot);
        }
        if (grade.cache_misses != slots.size()) {
          grade.failures.push_back(fail(
              "coexec-profile",
              "misses " + std::to_string(grade.cache_misses) +
                  " != devices that received work (" +
                  std::to_string(slots.size()) + ")"));
        }
        grades.push_back(std::move(grade));
      }
    }
  }
  return grades;
}

namespace {

// The kernel body below needs HPL's expression operators in scope.
using namespace HPL;

/// The fusion-ineligible control: two statements, so no rewrite rule may
/// touch it — the fused run must be launch-for-launch the unfused run.
void fusion_control_kernel(HPL::Array<float, 1> out, HPL::Array<float, 1> in) {
  out[HPL::idx] = in[HPL::idx] * 2.0f;
  out[HPL::idx] = out[HPL::idx] + 1.0f;
}

/// The programs of the fusion axis: chains of single-statement pattern
/// kernels (what the rewrite rules fire on) plus the control. Each returns
/// its observable output; reading it is the forcing point that flushes the
/// DAG in fused mode.
struct FusionProgram {
  const char* name;
  bool chained;  // expected to fuse
  std::vector<double> (*run)();
};

std::vector<double> fusion_read_back(HPL::Array<float, 1>& a) {
  std::vector<double> out(a.length());
  for (std::size_t i = 0; i < a.length(); ++i) out[i] = a.get(i);
  return out;
}

constexpr std::size_t kFusionN = 2048;

const FusionProgram kFusionPrograms[] = {
    // fill + iota + scale + add: two producer chains meeting in one
    // consumer — the whole program folds into a single map kernel.
    {"map_chain", true,
     [] {
       HPL::Array<float, 1> b(kFusionN), t(kFusionN), out(kFusionN);
       HPL::fill(b, 3.0f);
       HPL::iota(t);
       HPL::scale(t, 2.0f);
       HPL::add(out, t, b);
       return fusion_read_back(out);
     }},
    // A map feeding the grid-stride reduction: one pass over the data.
    {"map_reduce", true,
     [] {
       HPL::Array<float, 1> a(kFusionN);
       HPL::fill(a, 2.5f);
       return std::vector<double>{
           static_cast<double>(HPL::reduce_sum(a))};
     }},
    // Two independent producers inlined into dot()'s reduction loop.
    {"dot_chain", true,
     [] {
       HPL::Array<float, 1> a(kFusionN), b(kFusionN);
       HPL::iota(a);
       HPL::fill(b, 0.5f);
       return std::vector<double>{static_cast<double>(HPL::dot(a, b))};
     }},
    // The first fill is fully overwritten before anyone reads it: dead.
    {"dead_temp", true,
     [] {
       HPL::Array<float, 1> t(kFusionN);
       HPL::fill(t, 1.0f);
       HPL::fill(t, 2.0f);
       return fusion_read_back(t);
     }},
    // Multi-statement kernels: the rewriter must keep its hands off.
    {"control_multi_statement", false,
     [] {
       HPL::Array<float, 1> in(kFusionN), out(kFusionN);
       for (std::size_t i = 0; i < kFusionN; ++i) {
         in(i) = static_cast<float>(i % 7);
       }
       HPL::eval(fusion_control_kernel)(out, in);
       HPL::eval(fusion_control_kernel)(in, out);
       return fusion_read_back(in);
     }},
};

}  // namespace

std::vector<FusionGrade> run_fusion_axis() {
  ConfigGuard guard;
  std::vector<FusionGrade> grades;
  for (const FusionProgram& program : kFusionPrograms) {
    FusionGrade grade;
    grade.program = program.name;
    grade.chained = program.chained;

    struct Observation {
      std::vector<double> output;
      std::uint64_t launches = 0;
      std::uint64_t bytes = 0;
      double sim_seconds = 0;
    };
    const auto observe = [&](bool fused) {
      HPL::set_fusion_enabled(fused);
      HPL::purge_kernel_cache();
      HPL::reset_profile();
      Observation obs;
      obs.output = program.run();
      const HPL::ProfileSnapshot prof = HPL::profile();
      obs.launches = prof.kernel_launches;
      obs.sim_seconds = prof.kernel_sim_seconds;
      for (const auto& k : HPL::kernel_profiles()) {
        obs.bytes += k.global_bytes;
      }
      if (prof.kernel_cache_hits + prof.kernel_cache_misses !=
          prof.kernel_launches) {
        grade.failures.push_back(fail(
            "fusion-profile",
            std::string(fused ? "fused" : "unfused") + " run: hits " +
                std::to_string(prof.kernel_cache_hits) + " + misses " +
                std::to_string(prof.kernel_cache_misses) + " != launches " +
                std::to_string(prof.kernel_launches)));
      }
      return obs;
    };
    const Observation unfused = observe(false);
    const Observation fused = observe(true);

    grade.unfused_launches = unfused.launches;
    grade.fused_launches = fused.launches;
    grade.unfused_bytes = unfused.bytes;
    grade.fused_bytes = fused.bytes;
    grade.unfused_sim_seconds = unfused.sim_seconds;
    grade.fused_sim_seconds = fused.sim_seconds;
    grade.bit_identical = unfused.output == fused.output;

    if (!grade.bit_identical) {
      grade.failures.push_back(fail(
          "fusion-identity", "fused output differs from the unfused run"));
    }
    if (fused.launches > unfused.launches) {
      grade.failures.push_back(fail(
          "fusion-delta", "fused run launched MORE kernels (" +
                              std::to_string(fused.launches) + " > " +
                              std::to_string(unfused.launches) + ")"));
    } else {
      grade.launches_saved = unfused.launches - fused.launches;
    }
    if (program.chained) {
      if (grade.launches_saved == 0) {
        grade.failures.push_back(fail(
            "fusion-delta", "chained program saved no launches (" +
                                std::to_string(unfused.launches) +
                                " unfused)"));
      }
      if (fused.bytes >= unfused.bytes) {
        grade.failures.push_back(fail(
            "fusion-traffic",
            "fused traffic " + std::to_string(fused.bytes) +
                " B is not below unfused " + std::to_string(unfused.bytes) +
                " B"));
      }
    } else {
      if (fused.launches != unfused.launches ||
          fused.bytes != unfused.bytes) {
        grade.failures.push_back(fail(
            "fusion-control",
            "rewriter touched a fusion-ineligible program (launches " +
                std::to_string(unfused.launches) + " -> " +
                std::to_string(fused.launches) + ", bytes " +
                std::to_string(unfused.bytes) + " -> " +
                std::to_string(fused.bytes) + ")"));
      }
    }
    grades.push_back(std::move(grade));
  }
  return grades;
}

bool grader_catches_sabotage() {
  ConfigGuard guard;
  const Workload broken = sabotage_workload();
  const Cell cell{"Tesla", true, "stack", "-O2", "small"};
  const WorkloadGrade grade =
      grade_one(broken, cell, broken.reference(cell.size));
  if (grade.skipped) return false;
  // Exactly the correctness rule must fire: the sabotaged kernel is a
  // perfectly healthy blur as far as profile and envelope are concerned.
  bool correctness_failed = false;
  for (const auto& f : grade.failures) {
    if (f.rfind("correctness", 0) == 0) {
      correctness_failed = true;
    } else {
      return false;  // a non-correctness rule misfired
    }
  }
  return correctness_failed;
}

std::string report_json(const SweepReport& report, int sabotage_caught,
                        const std::vector<CoexecGrade>* coexec,
                        const std::vector<FusionGrade>* fusion) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"hplrepro-scenario-v1\",\n";

  const auto string_list = [&](const std::vector<std::string>& items) {
    std::ostringstream list;
    for (std::size_t i = 0; i < items.size(); ++i) {
      list << (i ? ", " : "") << '"' << json_escape(items[i]) << '"';
    }
    return list.str();
  };

  out << "  \"axes\": {\n";
  out << "    \"devices\": [" << string_list(report.axes.devices) << "],\n";
  out << "    \"async\": [";
  for (std::size_t i = 0; i < report.axes.async_modes.size(); ++i) {
    out << (i ? ", " : "") << (report.axes.async_modes[i] ? "true" : "false");
  }
  out << "],\n";
  out << "    \"interps\": [" << string_list(report.axes.interps) << "],\n";
  out << "    \"opts\": [" << string_list(report.axes.opts) << "],\n";
  out << "    \"fusion\": [";
  for (std::size_t i = 0; i < report.axes.fusion_modes.size(); ++i) {
    out << (i ? ", " : "")
        << (report.axes.fusion_modes[i] ? "true" : "false");
  }
  out << "],\n";
  out << "    \"sizes\": [" << string_list(report.axes.sizes) << "]\n";
  out << "  },\n";

  out << "  \"cells\": [\n";
  for (std::size_t c = 0; c < report.cells.size(); ++c) {
    const CellReport& cell = report.cells[c];
    out << "    {\"cell\": \"" << json_escape(cell.cell.label()) << "\", "
        << "\"build_options\": \""
        << json_escape(cell.cell.build_options()) << "\", "
        << "\"passed\": " << (cell.passed() ? "true" : "false")
        << ", \"workloads\": [\n";
    for (std::size_t w = 0; w < cell.grades.size(); ++w) {
      const WorkloadGrade& g = cell.grades[w];
      out << "      {\"name\": \"" << json_escape(g.workload) << "\", ";
      if (g.skipped) {
        out << "\"status\": \"skip\", \"reason\": \""
            << json_escape(g.skip_reason) << "\"}";
      } else {
        out << "\"status\": \"" << (g.failures.empty() ? "pass" : "fail")
            << "\", \"max_error\": " << g.max_error
            << ", \"tolerance\": " << g.tolerance
            << ", \"output_hash\": \"" << std::hex << g.output_hash
            << std::dec << "\""
            << ", \"launches\": " << g.launches
            << ", \"cache_hits\": " << g.cache_hits
            << ", \"cache_misses\": " << g.cache_misses
            << ", \"ops\": " << g.ops
            << ", \"global_bytes\": " << g.global_bytes
            << ", \"kernel_sim_seconds\": " << g.kernel_sim_seconds
            << ", \"launch_sim_seconds\": " << g.launch_sim_seconds
            << ", \"roofline\": [" << g.roofline_lower << ", "
            << g.roofline_upper << "]"
            << ", \"failures\": [" << string_list(g.failures) << "]}";
      }
      out << (w + 1 < cell.grades.size() ? ",\n" : "\n");
    }
    out << "    ]}" << (c + 1 < report.cells.size() ? ",\n" : "\n");
  }
  out << "  ],\n";

  out << "  \"identity_failures\": [" << string_list(report.identity_failures)
      << "],\n";

  std::size_t coexec_failed = 0;
  if (coexec != nullptr) {
    out << "  \"coexec\": [\n";
    for (std::size_t g = 0; g < coexec->size(); ++g) {
      const CoexecGrade& grade = (*coexec)[g];
      if (!grade.passed()) ++coexec_failed;
      out << "    {\"workload\": \"" << json_escape(grade.workload)
          << "\", \"policy\": \"" << json_escape(grade.policy)
          << "\", \"devices\": " << grade.device_count
          << ", \"chunks\": " << grade.chunks
          << ", \"launches\": " << grade.launches
          << ", \"cache_hits\": " << grade.cache_hits
          << ", \"cache_misses\": " << grade.cache_misses
          << ", \"status\": \"" << (grade.passed() ? "pass" : "fail")
          << "\", \"failures\": [" << string_list(grade.failures) << "]}"
          << (g + 1 < coexec->size() ? ",\n" : "\n");
    }
    out << "  ],\n";
  }

  std::size_t fusion_failed = 0;
  if (fusion != nullptr) {
    out << "  \"fusion\": [\n";
    for (std::size_t g = 0; g < fusion->size(); ++g) {
      const FusionGrade& grade = (*fusion)[g];
      if (!grade.passed()) ++fusion_failed;
      out << "    {\"program\": \"" << json_escape(grade.program)
          << "\", \"chained\": " << (grade.chained ? "true" : "false")
          << ", \"unfused_launches\": " << grade.unfused_launches
          << ", \"fused_launches\": " << grade.fused_launches
          << ", \"launches_saved\": " << grade.launches_saved
          << ", \"unfused_bytes\": " << grade.unfused_bytes
          << ", \"fused_bytes\": " << grade.fused_bytes
          << ", \"unfused_sim_seconds\": " << grade.unfused_sim_seconds
          << ", \"fused_sim_seconds\": " << grade.fused_sim_seconds
          << ", \"bit_identical\": "
          << (grade.bit_identical ? "true" : "false")
          << ", \"status\": \"" << (grade.passed() ? "pass" : "fail")
          << "\", \"failures\": [" << string_list(grade.failures) << "]}"
          << (g + 1 < fusion->size() ? ",\n" : "\n");
    }
    out << "  ],\n";
  }

  if (sabotage_caught >= 0) {
    out << "  \"self_test\": {\"sabotage_caught\": "
        << (sabotage_caught ? "true" : "false") << "},\n";
  }
  const bool ok = report.ok() && coexec_failed == 0 && fusion_failed == 0;
  out << "  \"summary\": {\"cells\": " << report.cells.size()
      << ", \"graded\": " << report.graded
      << ", \"passed\": " << report.passed
      << ", \"failed\": " << report.failed
      << ", \"skipped\": " << report.skipped
      << ", \"identity_failures\": " << report.identity_failures.size();
  if (coexec != nullptr) {
    out << ", \"coexec_graded\": " << coexec->size()
        << ", \"coexec_failed\": " << coexec_failed;
  }
  if (fusion != nullptr) {
    out << ", \"fusion_graded\": " << fusion->size()
        << ", \"fusion_failed\": " << fusion_failed;
  }
  out << ", \"ok\": " << (ok ? "true" : "false") << "}\n";
  out << "}\n";
  return out.str();
}

}  // namespace hplrepro::scenario
