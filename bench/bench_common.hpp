#ifndef HPLREPRO_BENCH_COMMON_HPP
#define HPLREPRO_BENCH_COMMON_HPP

/// \file bench_common.hpp
/// Helpers shared by the paper-figure benchmark binaries, including the
/// `--json <path>` machine-readable results writer every fig* binary
/// supports (the BENCH_*.json perf-trajectory format).

#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "benchsuite/common.hpp"
#include "clsim/runtime.hpp"
#include "hpl/HPL.h"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace hplrepro::bench {

inline clsim::Device tesla_device() {
  return *clsim::Platform::get().device_by_name("Tesla");
}
inline clsim::Device quadro_device() {
  return *clsim::Platform::get().device_by_name("Quadro");
}
inline clsim::Device cpu_device() {
  return *clsim::Platform::get().device_by_type(clsim::DeviceType::Cpu);
}

inline HPL::Device hpl_tesla() { return *HPL::Device::by_name("Tesla"); }
inline HPL::Device hpl_quadro() { return *HPL::Device::by_name("Quadro"); }

inline std::string fmt(double v, int digits = 4) {
  return format_double(v, digits);
}

inline std::string fmt_pct(double v) { return format_double(v, 3) + "%"; }

inline std::string fmt_x(double v) { return format_double(v, 3) + "x"; }

inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n"
            << "(reproduces " << paper_ref << ")\n\n";
}

/// Collects named rows of named numeric metrics and, when the binary was
/// invoked with `--json <path>`, writes them as a BENCH_*.json-style
/// results file on destruction. Alongside the per-row metrics it embeds
/// the final ProfileSnapshot and the per-kernel ledger rows, so a
/// single run yields the per-phase decomposition machine-readably.
///
/// Every binary using it also understands `--metrics <path>`: the
/// quantitative metrics layer (support/metrics.hpp) is switched on at
/// startup and its "hplrepro-metrics-v1" JSON is written on destruction,
/// equivalent to running with HPL_METRICS=<path>.
class JsonReporter {
public:
  JsonReporter(int argc, char** argv, std::string benchmark)
      : benchmark_(std::move(benchmark)) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--json") path_ = argv[i + 1];
      if (std::string(argv[i]) == "--metrics") metrics_path_ = argv[i + 1];
    }
    if (!metrics_path_.empty()) hplrepro::metrics::set_enabled(true);
  }

  bool requested() const { return !path_.empty(); }

  void add_row(
      const std::string& name,
      std::vector<std::pair<std::string, double>> metrics) {
    rows_.push_back({name, std::move(metrics)});
  }

  ~JsonReporter() {
    if (!metrics_path_.empty()) {
      if (HPL::metrics_write(metrics_path_)) {
        std::cout << "\n[metrics written to " << metrics_path_ << "]\n";
      } else {
        std::cerr << "bench: cannot open " << metrics_path_
                  << " for writing\n";
      }
    }
    if (path_.empty()) return;
    std::ofstream os(path_);
    if (!os) {
      std::cerr << "bench: cannot open " << path_ << " for writing\n";
      return;
    }
    os << "{\n  \"schema\": \"hplrepro-bench-v1\",\n"
       << "  \"benchmark\": \"" << escape(benchmark_) << "\",\n"
       << "  \"rows\": [\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      os << "    {\"name\": \"" << escape(rows_[r].name)
         << "\", \"metrics\": {";
      const auto& metrics = rows_[r].metrics;
      for (std::size_t m = 0; m < metrics.size(); ++m) {
        if (m != 0) os << ", ";
        os << "\"" << escape(metrics[m].first)
           << "\": " << format_double(metrics[m].second, 9);
      }
      os << "}}" << (r + 1 < rows_.size() ? "," : "") << "\n";
    }
    os << "  ],\n";

    const HPL::ProfileSnapshot p = HPL::profile();
    os << "  \"profile\": {"
       << "\"host_seconds\": " << format_double(p.host_seconds, 9)
       << ", \"kernel_sim_seconds\": "
       << format_double(p.kernel_sim_seconds, 9)
       << ", \"transfer_sim_seconds\": "
       << format_double(p.transfer_sim_seconds, 9)
       << ", \"kernel_launches\": " << p.kernel_launches
       << ", \"kernels_built\": " << p.kernels_built
       << ", \"kernel_cache_hits\": " << p.kernel_cache_hits
       << ", \"kernel_cache_misses\": " << p.kernel_cache_misses
       << ", \"bytes_to_device\": " << p.bytes_to_device
       << ", \"bytes_to_host\": " << p.bytes_to_host << "},\n";

    const auto kernels = HPL::kernel_profiles();
    os << "  \"kernels\": [\n";
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      const auto& kp = kernels[k];
      os << "    {\"kernel\": \"" << escape(kp.kernel) << "\", \"device\": \""
         << escape(kp.device) << "\", \"launches\": " << kp.launches
         << ", \"cache_hits\": " << kp.cache_hits
         << ", \"builds\": " << kp.builds
         << ", \"compute_s\": " << format_double(kp.sim.compute_s, 9)
         << ", \"global_mem_s\": " << format_double(kp.sim.global_mem_s, 9)
         << ", \"local_mem_s\": " << format_double(kp.sim.local_mem_s, 9)
         << ", \"barrier_s\": " << format_double(kp.sim.barrier_s, 9)
         << ", \"launch_s\": " << format_double(kp.sim.launch_s, 9)
         << ", \"total_s\": " << format_double(kp.sim.total_s, 9)
         << ", \"global_bytes\": " << kp.global_bytes
         << ", \"fused_ratio\": " << format_double(kp.fused_ratio(), 9)
         << "}" << (k + 1 < kernels.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::cout << "\n[json results written to " << path_ << "]\n";
  }

private:
  struct Row {
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
  };

  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      out += c;
    }
    return out;
  }

  std::string benchmark_;
  std::string path_;
  std::string metrics_path_;
  std::vector<Row> rows_;
};

}  // namespace hplrepro::bench

#endif  // HPLREPRO_BENCH_COMMON_HPP
