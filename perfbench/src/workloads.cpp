#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <ctime>
#include <functional>
#include <stdexcept>
#include <utility>

#include "benchsuite/ep.hpp"
#include "benchsuite/floyd.hpp"
#include "benchsuite/reduction.hpp"
#include "benchsuite/spmv.hpp"
#include "benchsuite/stencil.hpp"
#include "benchsuite/transpose.hpp"
#include "clapi_probe.hpp"
#include "coexec/coexec.hpp"
#include "hpl/HPL.h"
#include "spans.hpp"
#include "support/prng.hpp"

namespace perfbench {
namespace {

namespace bs = hplrepro::benchsuite;
namespace clsim = hplrepro::clsim;
using hplrepro::SplitMix64;
using Clock = std::chrono::steady_clock;

double wall_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + stream);
  return rng.next_u64();
}

clsim::Device cl_device(const char* name) {
  return *clsim::Platform::get().device_by_name(name);
}
HPL::Device hpl_device(const char* name) { return *HPL::Device::by_name(name); }

/// Deals the indices 0..n-1 in seeded random order, reshuffling after each
/// full pass, so every kernel or chain shape appears equally often in a
/// run whatever the seed (the seed only changes the order).
class Deck {
public:
  Deck(std::size_t n, SplitMix64& rng) : order_(n), rng_(rng) {
    for (std::size_t i = 0; i < n; ++i) order_[i] = i;
    next_ = n;
  }

  std::size_t next() {
    if (next_ == order_.size()) {
      for (std::size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.next_below(i)]);
      }
      next_ = 0;
    }
    return order_[next_++];
  }

private:
  std::vector<std::size_t> order_;
  std::size_t next_;
  SplitMix64& rng_;
};

// --- Result checking ---------------------------------------------------------

/// Compares results against expectations for one operation. With
/// `corrupt` set, the first expectation it sees is deliberately wrong, so
/// the operation must be counted as failed (the self-test's planted
/// failure).
class Checker {
public:
  explicit Checker(bool corrupt) : corrupt_(corrupt) {}

  template <typename T>
  void compare(const char* what, const std::vector<T>& got,
               std::vector<double> want, double abs_tol, double rel_tol) {
    if (corrupt_ && !want.empty()) {
      want[0] += 1.0 + 2.0 * std::fabs(want[0]);
      corrupt_ = false;
    }
    if (got.size() != want.size()) {
      fail(std::string(what) + ": got " + std::to_string(got.size()) +
           " values, expected " + std::to_string(want.size()));
      return;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      const double g = static_cast<double>(got[i]);
      const double diff = std::fabs(g - want[i]);
      if (!(diff <= abs_tol + rel_tol * std::fabs(want[i]))) {
        fail(std::string(what) + "[" + std::to_string(i) +
             "] = " + std::to_string(g) + ", expected " +
             std::to_string(want[i]));
        return;
      }
    }
  }

  void scalar(const char* what, double got, double want, double abs_tol,
              double rel_tol) {
    compare(what, std::vector<double>{got}, std::vector<double>{want},
            abs_tol, rel_tol);
  }

  void fail(std::string message) {
    ++mismatches_;
    if (first_error_.empty()) first_error_ = std::move(message);
  }

  void into(OpOutcome& out) {
    out.mismatches += mismatches_;
    if (out.first_error.empty()) out.first_error = first_error_;
  }

private:
  bool corrupt_;
  std::uint64_t mismatches_ = 0;
  std::string first_error_;
};

template <typename T>
std::vector<double> widen(const std::vector<T>& v) {
  return std::vector<double>(v.begin(), v.end());
}

// --- Benchsuite kernels ------------------------------------------------------

/// One benchsuite kernel at a fixed configuration: its HPL and OpenCL
/// variants (each returning the flattened result), the serial reference
/// computed once at setup, and the comparison tolerances.
struct SuiteJob {
  const char* name = "";
  std::function<std::vector<double>()> hpl;
  std::function<std::vector<double>()> opencl;
  std::function<std::vector<double>()> serial;
  std::vector<double> reference;
  double abs_tol = 0;
  double rel_tol = 0;
  std::string source;
};

std::vector<double> ep_flatten(const bs::EpResult& r) {
  std::vector<double> out{static_cast<double>(r.accepted)};
  for (const auto q : r.q) out.push_back(static_cast<double>(q));
  out.push_back(r.sx);
  out.push_back(r.sy);
  return out;
}

enum class Size { Paper, Small };

/// The five paper benchmarks (and, at Size::Small, the three stencils) on
/// simulated Tesla. Paper sizes follow the scaled Fig. 8 setups; small
/// sizes make the fixed first-invocation costs dominate (Fig. 6 regime).
std::vector<SuiteJob> suite_jobs(Size size, std::uint64_t seed) {
  const clsim::Device tesla = cl_device("Tesla");
  const HPL::Device hpl_tesla = hpl_device("Tesla");
  const bool paper = size == Size::Paper;
  std::vector<SuiteJob> jobs;

  {
    bs::EpConfig c = bs::ep_class('A');
    if (!paper) {
      c.pairs = 1 << 10;
      c.chunk = 16;
      c.local_size = 16;
    }
    SuiteJob j;
    j.name = "ep";
    j.hpl = [c, hpl_tesla] {
      return ep_flatten(bs::ep_hpl(c, hpl_tesla).result);
    };
    j.opencl = [c, tesla] {
      return ep_flatten(bs::ep_opencl(c, tesla).result);
    };
    j.serial = [c] { return ep_flatten(bs::ep_serial(c)); };
    j.abs_tol = 1e-9;
    j.rel_tol = 1e-9;
    j.source = bs::ep_kernel_source();
    jobs.push_back(std::move(j));
  }
  {
    bs::FloydConfig c;
    c.nodes = paper ? 48 : 16;
    c.seed = derive_seed(seed, 1);
    SuiteJob j;
    j.name = "floyd";
    j.hpl = [c, hpl_tesla] {
      return widen(bs::floyd_hpl(c, hpl_tesla).distances);
    };
    j.opencl = [c, tesla] {
      return widen(bs::floyd_opencl(c, tesla).distances);
    };
    j.serial = [c] { return widen(bs::floyd_serial(c)); };
    j.abs_tol = 1e-5;
    j.rel_tol = 1e-6;
    j.source = bs::floyd_kernel_source();
    jobs.push_back(std::move(j));
  }
  {
    bs::TransposeConfig c;
    c.rows = c.cols = paper ? 256 : 32;
    c.repeats = paper ? 4 : 1;
    c.seed = derive_seed(seed, 2);
    SuiteJob j;
    j.name = "transpose";
    j.hpl = [c, hpl_tesla] {
      return widen(bs::transpose_hpl(c, hpl_tesla).output);
    };
    j.opencl = [c, tesla] {
      return widen(bs::transpose_opencl(c, tesla).output);
    };
    j.serial = [c] { return widen(bs::transpose_serial(c)); };
    j.source = bs::transpose_kernel_source();
    jobs.push_back(std::move(j));
  }
  {
    bs::SpmvConfig c;
    c.rows = paper ? 1024 : 64;
    c.density = paper ? 0.01 : 0.05;
    c.repeats = paper ? 4 : 1;
    c.seed = derive_seed(seed, 3);
    SuiteJob j;
    j.name = "spmv";
    j.hpl = [c, hpl_tesla] { return widen(bs::spmv_hpl(c, hpl_tesla).output); };
    j.opencl = [c, tesla] { return widen(bs::spmv_opencl(c, tesla).output); };
    j.serial = [c] { return widen(bs::spmv_serial(c)); };
    j.abs_tol = 1e-4;
    j.rel_tol = 1e-4;
    j.source = bs::spmv_kernel_source();
    jobs.push_back(std::move(j));
  }
  {
    bs::ReductionConfig c;
    c.elements = paper ? (1 << 16) : (1 << 12);
    c.groups = paper ? 64 : 8;
    c.repeats = paper ? 4 : 1;
    c.seed = derive_seed(seed, 4);
    SuiteJob j;
    j.name = "reduction";
    j.hpl = [c, hpl_tesla] {
      return std::vector<double>{bs::reduction_hpl(c, hpl_tesla).sum};
    };
    j.opencl = [c, tesla] {
      return std::vector<double>{bs::reduction_opencl(c, tesla).sum};
    };
    j.serial = [c] { return std::vector<double>{bs::reduction_serial(c)}; };
    j.abs_tol = 0.05;
    j.rel_tol = 1e-4;
    j.source = bs::reduction_kernel_source();
    jobs.push_back(std::move(j));
  }
  if (!paper) {
    bs::StencilConfig c;
    c.width = c.height = 16;
    c.iterations = 2;
    c.edge = static_cast<bs::EdgePolicy>(derive_seed(seed, 5) % 3);
    c.seed = derive_seed(seed, 6);
    using Run = bs::StencilRun (*)(const bs::StencilConfig&, HPL::Device);
    using ClRun = bs::StencilRun (*)(const bs::StencilConfig&,
                                     const clsim::Device&);
    using Serial = std::vector<float> (*)(const bs::StencilConfig&);
    struct Stencil {
      const char* name;
      Run hpl;
      ClRun opencl;
      Serial serial;
      const char* source;
    };
    const Stencil stencils[] = {
        {"blur", bs::blur_hpl, bs::blur_opencl, bs::blur_serial,
         bs::blur_kernel_source()},
        {"sobel", bs::sobel_hpl, bs::sobel_opencl, bs::sobel_serial,
         bs::sobel_kernel_source()},
        {"jacobi", bs::jacobi_hpl, bs::jacobi_opencl, bs::jacobi_serial,
         bs::jacobi_kernel_source()},
    };
    for (const Stencil& s : stencils) {
      SuiteJob j;
      j.name = s.name;
      j.hpl = [c, s, hpl_tesla] { return widen(s.hpl(c, hpl_tesla).output); };
      j.opencl = [c, s, tesla] { return widen(s.opencl(c, tesla).output); };
      j.serial = [c, s] { return widen(s.serial(c)); };
      j.abs_tol = 1e-5;
      j.rel_tol = 1e-5;
      j.source = s.source;
      jobs.push_back(std::move(j));
    }
  }
  for (SuiteJob& j : jobs) j.reference = j.serial();
  return jobs;
}

/// Runs an operation's two sides back to back, HPL first or OpenCL first.
template <typename Hpl, typename OpenCl>
void both_sides(bool hpl_first, Hpl&& hpl, OpenCl&& opencl) {
  if (hpl_first) {
    hpl();
    opencl();
  } else {
    opencl();
    hpl();
  }
}

/// Runs one job's HPL and OpenCL variants and checks both against the
/// serial reference.
void run_suite_job(const SuiteJob& job, bool hpl_first, Checker& check,
                   OpOutcome& out) {
  auto run = [&](SideTime& side, const char* span_name,
                 const std::function<std::vector<double>()>& variant) {
    std::vector<double> got;
    {
      SideTimer timer(side);
      Span span(span_name);
      got = variant();
    }
    check.compare(job.name, got, job.reference, job.abs_tol, job.rel_tol);
  };
  both_sides(
      hpl_first, [&] { run(out.hpl, "benchsuite.hpl", job.hpl); },
      [&] { run(out.opencl, "benchsuite.opencl", job.opencl); });
}

// --- patterns.hpp kernels and their OpenCL-style twins -----------------------

enum class Pat { Fill, Axpy, Scale, Add, Mul, ReduceSum, Dot };
constexpr Pat kAllPats[] = {Pat::Fill, Pat::Axpy,      Pat::Scale, Pat::Add,
                            Pat::Mul,  Pat::ReduceSum, Pat::Dot};

bool is_reduction(Pat p) { return p == Pat::ReduceSum || p == Pat::Dot; }
std::size_t index(Pat p) { return static_cast<std::size_t>(p); }

constexpr std::size_t kGroups = HPL::patterns_detail::kReduceGroups;
constexpr std::size_t kLocal = HPL::patterns_detail::kReduceLocal;

/// A grid-stride partial reduction of `term` over i in [0, n) into one
/// slot per group through a __local tree (the shape of
/// patterns_detail::reduce_kernel).
std::string reduction_source(const char* name, const char* inputs,
                             const char* term) {
  return std::string("__kernel void ") + name + "(" + inputs +
         ",\n    __global float* partials, uint n) {\n"
         "  __local float sdata[128];\n"
         "  size_t tid = get_local_id(0);\n"
         "  float sum = 0.0f;\n"
         "  size_t stride = get_global_size(0);\n"
         "  for (size_t i = get_global_id(0); i < n; i += stride) {\n"
         "    sum += " + term + ";\n"
         "  }\n"
         "  sdata[tid] = sum;\n"
         "  barrier(CLK_LOCAL_MEM_FENCE);\n"
         "  for (uint s = (uint)get_local_size(0) >> 1; s > 0u; s >>= 1) {\n"
         "    if (tid < s) { sdata[tid] += sdata[tid + s]; }\n"
         "    barrier(CLK_LOCAL_MEM_FENCE);\n"
         "  }\n"
         "  if (tid == 0) { partials[get_group_id(0)] = sdata[0]; }\n"
         "}\n";
}

/// A one-item-per-element map kernel.
std::string map_source(const char* name, const char* params,
                       const char* body) {
  return std::string("__kernel void ") + name + "(" + params +
         ") {\n  size_t i = get_global_id(0);\n  " + body + "\n}\n";
}

// Hand-written OpenCL C equivalents of the patterns.hpp kernels, with the
// same geometry (maps: one item per element; reductions: kGroups groups of
// kLocal items, grid-stride, host adds the partials).
std::string pattern_source(Pat p) {
  const char* in3 = "__global float* out, __global const float* a, "
                    "__global const float* b";
  switch (p) {
    case Pat::Fill:
      return map_source("pb_fill", "__global float* out, float v",
                        "out[i] = v;");
    case Pat::Axpy:
      return map_source("pb_axpy",
                        "__global float* y, __global const float* x, float a",
                        "y[i] = a * x[i] + y[i];");
    case Pat::Scale:
      return map_source("pb_scale", "__global float* d, float f",
                        "d[i] = d[i] * f;");
    case Pat::Add:
      return map_source("pb_add", in3, "out[i] = a[i] + b[i];");
    case Pat::Mul:
      return map_source("pb_mul", in3, "out[i] = a[i] * b[i];");
    case Pat::ReduceSum:
      return reduction_source("pb_reduce_sum", "__global const float* in",
                              "in[i]");
    case Pat::Dot:
      return reduction_source(
          "pb_dot", "__global const float* a, __global const float* b",
          "a[i] * b[i]");
  }
  return "";
}

const char* pattern_kernel_name(Pat p) {
  switch (p) {
    case Pat::Fill: return "pb_fill";
    case Pat::Axpy: return "pb_axpy";
    case Pat::Scale: return "pb_scale";
    case Pat::Add: return "pb_add";
    case Pat::Mul: return "pb_mul";
    case Pat::ReduceSum: return "pb_reduce_sum";
    case Pat::Dot: return "pb_dot";
  }
  return "";
}

template <typename Fn>
const void* fn_key(Fn* fn) {
  return reinterpret_cast<const void*>(fn);
}

/// The HPL kernel function behind a pattern (the kernel-cache key).
const void* pattern_hpl_key(Pat p) {
  namespace pd = HPL::patterns_detail;
  switch (p) {
    case Pat::Fill: return fn_key(&pd::fill_kernel<float>);
    case Pat::Axpy: return fn_key(&pd::axpy_kernel<float>);
    case Pat::Scale: return fn_key(&pd::scale_kernel<float>);
    case Pat::Add: return fn_key(&pd::add_kernel<float>);
    case Pat::Mul: return fn_key(&pd::mul_kernel<float>);
    case Pat::ReduceSum: return fn_key(&pd::reduce_kernel<float>);
    case Pat::Dot: return fn_key(&pd::dot_kernel<float>);
  }
  return nullptr;
}

/// One pattern application: the operands name slots of an array set
/// (out = a op b for maps; the reduction reads a, and b for dot).
struct Step {
  Pat pat = Pat::Fill;
  int out = 0;
  int a = 0;
  int b = 0;
  float scalar = 0;
  bool coexec = false;  // reductions only: split across Tesla + Quadro
};

/// Host expectation of a map step on float mirrors, in the kernels' order
/// of operations.
void mirror_map(const Step& s, std::vector<std::vector<float>>& m) {
  std::vector<float>& out = m[static_cast<std::size_t>(s.out)];
  const std::vector<float>& a = m[static_cast<std::size_t>(s.a)];
  const std::vector<float>& b = m[static_cast<std::size_t>(s.b)];
  for (std::size_t i = 0; i < out.size(); ++i) {
    switch (s.pat) {
      case Pat::Fill: out[i] = s.scalar; break;
      case Pat::Axpy: out[i] = s.scalar * a[i] + out[i]; break;
      case Pat::Scale: out[i] = out[i] * s.scalar; break;
      case Pat::Add: out[i] = a[i] + b[i]; break;
      case Pat::Mul: out[i] = a[i] * b[i]; break;
      default: break;
    }
  }
}

double mirror_reduce(const Step& s, const std::vector<std::vector<float>>& m) {
  const std::vector<float>& a = m[static_cast<std::size_t>(s.a)];
  const std::vector<float>& b = m[static_cast<std::size_t>(s.b)];
  double sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += s.pat == Pat::Dot ? static_cast<double>(a[i]) * b[i] : a[i];
  }
  return sum;
}

// Reductions of n positive floats summed in a different order than the
// double-precision host expectation.
constexpr double kReduceRelTol = 1e-4;
constexpr double kMapRelTol = 1e-5;
constexpr double kMapAbsTol = 1e-6;

CoexecTotals g_coexec;

void record_dispatch() {
  const hplrepro::coexec::DispatchResult d = hplrepro::coexec::last_dispatch();
  std::vector<std::size_t> groups(d.slot_seconds.size(), 0);
  for (const auto& chunk : d.chunks) {
    groups[static_cast<std::size_t>(chunk.slot)] += chunk.count;
  }
  double rate = 0;  // groups per simulated second, summed over busy slots
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (d.slot_seconds[i] > 0) {
      rate += static_cast<double>(groups[i]) / d.slot_seconds[i];
    }
  }
  g_coexec.evals += 1;
  g_coexec.chunks += d.chunks.size();
  if (rate > 0) {
    g_coexec.makespan_over_ideal_sum +=
        d.makespan() / (static_cast<double>(d.total) / rate);
  }
}

/// HPL side of one step on the arrays `arr` (all of one length), with
/// `partials` as the reduction scratch. Returns the reduction's value
/// (0 for maps). Maps are deferred evals; reductions force their partials.
double hpl_step(const Step& s, std::vector<HPL::Array<float, 1>>& arr,
                HPL::Array<float, 1>& partials,
                const std::vector<float>& partials_host, HPL::Device dev,
                const std::vector<HPL::Device>& coexec_devs,
                const char* eval_span) {
  namespace pd = HPL::patterns_detail;
  HPL::Array<float, 1>& out = arr[static_cast<std::size_t>(s.out)];
  HPL::Array<float, 1>& a = arr[static_cast<std::size_t>(s.a)];
  HPL::Array<float, 1>& b = arr[static_cast<std::size_t>(s.b)];
  if (!is_reduction(s.pat)) {
    Span span(eval_span);
    switch (s.pat) {
      case Pat::Fill: HPL::fill(out, s.scalar, dev); break;
      case Pat::Axpy: HPL::axpy(out, a, s.scalar, dev); break;
      case Pat::Scale: HPL::scale(out, s.scalar, dev); break;
      case Pat::Add: HPL::add(out, a, b, dev); break;
      case Pat::Mul: HPL::mul(out, a, b, dev); break;
      default: break;
    }
    return 0;
  }
  const auto n = static_cast<std::uint32_t>(a.length());
  {
    Span span(s.coexec ? "coexec.eval" : eval_span);
    auto launch = [&](auto&& ev, auto&... inputs) {
      ev.global(kGroups * kLocal).local(kLocal);
      if (s.coexec) {
        ev.devices(coexec_devs).policy(HPL::CoexecPolicy::Guided);
      } else {
        ev.device(dev);
      }
      ev(inputs..., partials, n);
    };
    if (s.pat == Pat::ReduceSum) {
      launch(HPL::eval(pd::reduce_kernel<float>), a);
    } else {
      launch(HPL::eval(pd::dot_kernel<float>), a, b);
    }
  }
  if (s.coexec && tracing()) record_dispatch();
  {
    Span span("hpl.force");
    (void)partials.get(0);
  }
  double sum = 0;
  for (const float p : partials_host) sum += p;
  return sum;
}

/// Makes the host copy of an HPL array current (a d2h read when a device
/// holds the newest data), under a force span.
void hpl_read(HPL::Array<float, 1>& array) {
  Span span("hpl.force");
  (void)array.get(0);
}

void cl_check(cl_int err, const char* what) {
  if (err != CL_SUCCESS) {
    throw std::runtime_error(std::string(what) + " failed: " +
                             std::to_string(err));
  }
}

/// A context and in-order queue on one device, for the OpenCL-style twins.
class ClSession {
public:
  explicit ClSession(const clsim::Device& device)
      : device_(clsim::cl_api_device(device)) {
    cl_int err = CL_SUCCESS;
    context_ = clCreateContext(nullptr, 1, &device_, nullptr, nullptr, &err);
    cl_check(err, "clCreateContext");
    queue_ = clCreateCommandQueue(context_, device_, 0, &err);
    cl_check(err, "clCreateCommandQueue");
  }
  ~ClSession() {
    clReleaseCommandQueue(queue_);
    clReleaseContext(context_);
  }
  ClSession(const ClSession&) = delete;
  ClSession& operator=(const ClSession&) = delete;

  cl_command_queue queue() const { return queue_; }

  cl_mem buffer(std::size_t bytes) {
    cl_int err = CL_SUCCESS;
    cl_mem mem = clCreateBuffer(context_, CL_MEM_READ_WRITE, bytes, nullptr,
                                &err);
    cl_check(err, "clCreateBuffer");
    return mem;
  }

  /// Builds the pattern's program and returns its kernel (the program is
  /// released once the kernel holds it).
  cl_kernel build(Pat p) {
    cl_int err = CL_SUCCESS;
    const std::string source = pattern_source(p);
    const char* src = source.c_str();
    cl_program program =
        clCreateProgramWithSource(context_, 1, &src, nullptr, &err);
    cl_check(err, "clCreateProgramWithSource");
    cl_check(clBuildProgram(program, 1, &device_, nullptr, nullptr, nullptr),
             "clBuildProgram");
    cl_kernel kernel = clCreateKernel(program, pattern_kernel_name(p), &err);
    cl_check(err, "clCreateKernel");
    clReleaseProgram(program);
    return kernel;
  }

private:
  cl_device_id device_;
  cl_context context_ = nullptr;
  cl_command_queue queue_ = nullptr;
};

/// OpenCL-style side of one step: `bufs` mirror the HPL arrays, `partials`
/// is a kGroups-float buffer. Maps are enqueued without waiting;
/// reductions read the partials back (blocking) and add them on the host.
double cl_step(const Step& s, cl_kernel kernel, ClSession& cl,
               const std::vector<cl_mem>& bufs, cl_mem partials,
               std::size_t n) {
  auto arg_mem = [&](cl_uint i, cl_mem m) {
    cl_check(clSetKernelArg(kernel, i, sizeof(cl_mem), &m), "clSetKernelArg");
  };
  cl_mem out = bufs[static_cast<std::size_t>(s.out)];
  cl_mem a = bufs[static_cast<std::size_t>(s.a)];
  cl_mem b = bufs[static_cast<std::size_t>(s.b)];
  const std::uint32_t n32 = static_cast<std::uint32_t>(n);
  std::size_t global = n;
  const std::size_t local = kLocal;
  const std::size_t* local_ptr = nullptr;
  switch (s.pat) {
    case Pat::Fill:
    case Pat::Scale:
      arg_mem(0, out);
      cl_check(clSetKernelArg(kernel, 1, sizeof(float), &s.scalar),
               "clSetKernelArg");
      break;
    case Pat::Axpy:
      arg_mem(0, out);
      arg_mem(1, a);
      cl_check(clSetKernelArg(kernel, 2, sizeof(float), &s.scalar),
               "clSetKernelArg");
      break;
    case Pat::Add:
    case Pat::Mul:
      arg_mem(0, out);
      arg_mem(1, a);
      arg_mem(2, b);
      break;
    case Pat::ReduceSum:
      arg_mem(0, a);
      arg_mem(1, partials);
      cl_check(clSetKernelArg(kernel, 2, sizeof(n32), &n32), "clSetKernelArg");
      global = kGroups * kLocal;
      local_ptr = &local;
      break;
    case Pat::Dot:
      arg_mem(0, a);
      arg_mem(1, b);
      arg_mem(2, partials);
      cl_check(clSetKernelArg(kernel, 3, sizeof(n32), &n32), "clSetKernelArg");
      global = kGroups * kLocal;
      local_ptr = &local;
      break;
  }
  cl_check(clEnqueueNDRangeKernel(cl.queue(), kernel, 1, nullptr, &global,
                                  local_ptr, 0, nullptr, nullptr),
           "clEnqueueNDRangeKernel");
  if (!is_reduction(s.pat)) return 0;
  float host[kGroups];
  cl_check(clEnqueueReadBuffer(cl.queue(), partials, CL_TRUE, 0, sizeof(host),
                               host, 0, nullptr, nullptr),
           "clEnqueueReadBuffer");
  double sum = 0;
  for (const float p : host) sum += p;
  return sum;
}

void cl_read(ClSession& cl, cl_mem buf, std::vector<float>& out) {
  cl_check(clEnqueueReadBuffer(cl.queue(), buf, CL_TRUE, 0,
                               out.size() * sizeof(float), out.data(), 0,
                               nullptr, nullptr),
           "clEnqueueReadBuffer");
}

void cl_write(ClSession& cl, cl_mem buf, const std::vector<float>& in) {
  cl_check(clEnqueueWriteBuffer(cl.queue(), buf, CL_TRUE, 0,
                                in.size() * sizeof(float), in.data(), 0,
                                nullptr, nullptr),
           "clEnqueueWriteBuffer");
}

void random_fill(SplitMix64& rng, std::vector<float>& v) {
  for (float& x : v) x = 0.5f + rng.next_float();
}

/// Generated source of an HPL pattern kernel, if it is in the kernel cache.
std::string hpl_generated_source(Pat p) {
  HPL::detail::CachedKernel* k =
      HPL::detail::Runtime::get().find_kernel(pattern_hpl_key(p));
  return k == nullptr ? std::string() : k->source;
}

// --- paper_suite -------------------------------------------------------------

/// Fig. 8 regime: the five paper benchmarks on simulated Tesla with warm
/// caches and repeated launches; one operation is one pass over all five,
/// each as HPL and OpenCL back to back, alternating which goes first.
class PaperSuite : public Workload {
public:
  PaperSuite(std::uint64_t seed, std::uint64_t corrupt_op)
      : seed_(seed), corrupt_op_(corrupt_op) {}

  void setup() override {
    jobs_ = suite_jobs(Size::Paper, seed_);
    OpOutcome warm;
    Checker check(false);
    for (const SuiteJob& job : jobs_) run_suite_job(job, true, check, warm);
    check.into(warm);
    if (warm.mismatches != 0) {
      throw std::runtime_error("warm-up pass failed: " + warm.first_error);
    }
  }

  OpOutcome run_op(std::uint64_t op) override {
    OpOutcome out;
    Checker check(op == corrupt_op_);
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      run_suite_job(jobs_[i], (op + i) % 2 == 0, check, out);
    }
    check.into(out);
    return out;
  }

  std::vector<std::string> kernel_sources() override {
    std::vector<std::string> out;
    for (const SuiteJob& job : jobs_) out.push_back(job.source);
    return out;
  }

private:
  std::uint64_t seed_;
  std::uint64_t corrupt_op_;
  std::vector<SuiteJob> jobs_;
};

// --- cold_build --------------------------------------------------------------

/// Fig. 6 regime: a seeded stream of first invocations. Each operation
/// purges the HPL kernel cache and runs kKernelsPerRound small kernels —
/// drawn from the benchsuite, stencil and pattern kernels — as HPL (capture,
/// codegen, build, run) and as OpenCL (build, run), alternating the order.
class ColdBuild : public Workload {
public:
  static constexpr std::size_t kKernelsPerRound = 3;
  static constexpr std::size_t kPatternLength = 1024;

  ColdBuild(std::uint64_t seed, std::uint64_t corrupt_op)
      : seed_(seed), corrupt_op_(corrupt_op), rng_(derive_seed(seed, 7)) {}

  void setup() override {
    jobs_ = suite_jobs(Size::Small, seed_);
    cl_ = std::make_unique<ClSession>(cl_device("Tesla"));
    tesla_ = hpl_device("Tesla");
    const std::size_t pool = jobs_.size() + std::size(kAllPats);
    deck_ = std::make_unique<Deck>(pool, rng_);
    OpOutcome warm;
    Checker check(false);
    for (std::size_t k = 0; k < pool; ++k) run_kernel(k, true, check, warm);
    check.into(warm);
    if (warm.mismatches != 0) {
      throw std::runtime_error("warm-up round failed: " + warm.first_error);
    }
    for (const Pat p : kAllPats) {
      pattern_hpl_sources_.push_back(hpl_generated_source(p));
    }
  }

  OpOutcome run_op(std::uint64_t op) override {
    OpOutcome out;
    Checker check(op == corrupt_op_);
    HPL::purge_kernel_cache();
    for (std::size_t i = 0; i < kKernelsPerRound; ++i) {
      run_kernel(deck_->next(), (op + i) % 2 == 0, check, out);
    }
    check.into(out);
    return out;
  }

  std::vector<std::string> kernel_sources() override {
    std::vector<std::string> out;
    for (const SuiteJob& job : jobs_) out.push_back(job.source);
    for (const Pat p : kAllPats) out.push_back(pattern_source(p));
    for (const std::string& s : pattern_hpl_sources_) {
      if (!s.empty()) out.push_back(s);
    }
    return out;
  }

private:
  void run_kernel(std::size_t k, bool hpl_first, Checker& check,
                  OpOutcome& out) {
    if (k < jobs_.size()) {
      run_suite_job(jobs_[k], hpl_first, check, out);
      return;
    }
    const Pat p = kAllPats[k - jobs_.size()];
    // Inputs for this invocation: x, y in [0.5, 1.5), scalar in [0.5, 1.5).
    std::vector<std::vector<float>> init(3, std::vector<float>(kPatternLength));
    for (auto& v : init) random_fill(rng_, v);
    const Step s = is_reduction(p)
                       ? Step{p, 0, 0, 1, 0, false}
                       : Step{p, 1, 0, 2, 0.5f + rng_.next_float(), false};
    std::vector<std::vector<float>> mirror = init;
    double want = 0;
    if (is_reduction(p)) {
      want = mirror_reduce(s, mirror);
    } else {
      mirror_map(s, mirror);
    }
    auto run_hpl = [&] {
      std::vector<std::vector<float>> host = init;
      std::vector<float> partials_host(kGroups);
      double got = 0;
      {
        SideTimer timer(out.hpl);
        std::vector<HPL::Array<float, 1>> arr;
        for (auto& v : host) arr.emplace_back(v.size(), v.data());
        HPL::Array<float, 1> partials(kGroups, partials_host.data());
        got = hpl_step(s, arr, partials, partials_host, tesla_, {},
                       "hpl.first_eval");
        if (!is_reduction(p)) hpl_read(arr[static_cast<std::size_t>(s.out)]);
      }
      if (is_reduction(p)) {
        check.scalar("hpl pattern", got, want, 0, kReduceRelTol);
      } else {
        check.compare("hpl pattern", host[1], widen(mirror[1]), kMapAbsTol,
                      kMapRelTol);
      }
    };
    auto run_opencl = [&] {
      std::vector<float> result(kPatternLength);
      double got = 0;
      {
        SideTimer timer(out.opencl);
        Span span("ref.opencl");
        cl_kernel kernel = cl_->build(p);
        std::vector<cl_mem> bufs;
        for (const auto& v : init) {
          bufs.push_back(cl_->buffer(v.size() * sizeof(float)));
          cl_write(*cl_, bufs.back(), v);
        }
        cl_mem partials = cl_->buffer(kGroups * sizeof(float));
        got = cl_step(s, kernel, *cl_, bufs, partials, kPatternLength);
        if (!is_reduction(p)) cl_read(*cl_, bufs[1], result);
        for (cl_mem m : bufs) clReleaseMemObject(m);
        clReleaseMemObject(partials);
        clReleaseKernel(kernel);
      }
      if (is_reduction(p)) {
        check.scalar("opencl pattern", got, want, 0, kReduceRelTol);
      } else {
        check.compare("opencl pattern", result, widen(mirror[1]), kMapAbsTol,
                      kMapRelTol);
      }
    };
    both_sides(hpl_first, run_hpl, run_opencl);
  }

  std::uint64_t seed_;
  std::uint64_t corrupt_op_;
  SplitMix64 rng_;
  std::vector<SuiteJob> jobs_;
  std::unique_ptr<Deck> deck_;  // over benchsuite jobs, then patterns
  std::unique_ptr<ClSession> cl_;
  HPL::Device tesla_;
  std::vector<std::string> pattern_hpl_sources_;
};

// --- eval_pipeline -----------------------------------------------------------

/// A chain shape: which patterns run on which array slots, and how the
/// chain ends. Slot 0 (x) is an input only refreshed by fill or a host
/// write, slot 1 (y) an accumulator that every chain starts by filling, so
/// values stay in a bounded range; slot 2 (z) is an output.
struct ChainShape {
  std::vector<Step> steps;  // scalars and coexec flags are drawn per chain
  bool h2d_ending = false;  // host-writes x, then runs `tail`
  std::vector<Step> tail;
  int read_slot = 1;  // array read back at the end
};

/// The fixed menu of chain shapes (independent of the run's seed, so every
/// run warms the same fused kernels): 24 shapes of 1-6 evals.
std::vector<ChainShape> chain_shapes() {
  SplitMix64 rng(0x5EED0C4A1Dull);
  const Step menu[] = {
      {Pat::Axpy, 1, 0, 0, 0, false}, {Pat::Scale, 1, 1, 1, 0, false},
      {Pat::Add, 2, 0, 1, 0, false},  {Pat::Mul, 2, 0, 1, 0, false},
      {Pat::ReduceSum, 0, 1, 1, 0, false}, {Pat::Dot, 0, 0, 1, 0, false},
      {Pat::Fill, 0, 0, 0, 0, false},
  };
  const Step tail_menu[] = {menu[0], menu[2], menu[3]};
  std::vector<ChainShape> shapes;
  for (int i = 0; i < 24; ++i) {
    ChainShape c;
    c.steps.push_back({Pat::Fill, 1, 1, 1, 0, false});
    const int length = 1 + i % 6;
    for (int k = 1; k < length; ++k) {
      c.steps.push_back(menu[rng.next_below(std::size(menu))]);
    }
    c.h2d_ending = i % 12 >= 6;
    if (c.h2d_ending) {
      c.tail.push_back(tail_menu[rng.next_below(std::size(tail_menu))]);
    }
    const Step& last = c.tail.empty() ? c.steps.back() : c.tail.back();
    c.read_slot = is_reduction(last.pat) ? 1 : last.out;
    shapes.push_back(std::move(c));
  }
  return shapes;
}

/// One closed-loop client issuing chains of patterns.hpp evals on arrays
/// of 1K-64K floats; each chain ends in a host read (d2h) or in a host
/// write of x followed by more evals (h2d). A seeded quarter of the
/// reductions co-execute across Tesla and Quadro under the guided policy.
/// The OpenCL-style twin runs the same chain on its own device buffers.
class EvalPipeline : public Workload {
public:
  static constexpr std::size_t kSizes[] = {1024, 4096, 16384, 65536};

  EvalPipeline(std::uint64_t seed, std::uint64_t corrupt_op)
      : corrupt_op_(corrupt_op), rng_(derive_seed(seed, 8)) {}

  ~EvalPipeline() override {
    for (SizeClass& c : classes_) {
      for (cl_mem m : c.bufs) clReleaseMemObject(m);
    }
    if (cl_partials_ != nullptr) clReleaseMemObject(cl_partials_);
    for (cl_kernel k : cl_kernels_) {
      if (k != nullptr) clReleaseKernel(k);
    }
  }

  void setup() override {
    shapes_ = chain_shapes();
    deck_ = std::make_unique<Deck>(shapes_.size() * std::size(kSizes), rng_);
    tesla_ = hpl_device("Tesla");
    coexec_devs_ = {tesla_, hpl_device("Quadro")};
    cl_ = std::make_unique<ClSession>(cl_device("Tesla"));
    for (const Pat p : kAllPats) cl_kernels_[index(p)] = cl_->build(p);
    cl_partials_ = cl_->buffer(kGroups * sizeof(float));
    partials_host_.assign(kGroups, 0.0f);
    partials_ = std::make_unique<HPL::Array<float, 1>>(kGroups,
                                                       partials_host_.data());
    for (const std::size_t n : kSizes) {
      SizeClass c;
      c.host.assign(3, std::vector<float>(n));
      for (auto& v : c.host) random_fill(rng_, v);
      c.mirror = c.host;
      for (auto& v : c.host) c.arrays.emplace_back(v.size(), v.data());
      for (const auto& v : c.host) {
        c.bufs.push_back(cl_->buffer(n * sizeof(float)));
        cl_write(*cl_, c.bufs.back(), v);
      }
      classes_.push_back(std::move(c));
    }
    // Warm every shape once, spread over the size classes: fills the HPL
    // kernel and fused-kernel caches, and co-executes every reduction so
    // the Quadro binaries and each class's device buffers exist before
    // measuring.
    for (std::size_t i = 0; i < shapes_.size(); ++i) {
      const OpOutcome o = run_chain(shapes_[i], classes_[i % classes_.size()],
                                    i % 2 == 0, /*coexec_all=*/true, false);
      if (o.mismatches != 0) {
        throw std::runtime_error("warm-up chain failed: " + o.first_error);
      }
    }
  }

  OpOutcome run_op(std::uint64_t op) override {
    const std::size_t pick = deck_->next();
    const ChainShape& shape = shapes_[pick % shapes_.size()];
    SizeClass& c = classes_[pick / shapes_.size()];
    return run_chain(shape, c, op % 2 == 0, false, op == corrupt_op_);
  }

  std::vector<std::string> kernel_sources() override {
    std::vector<std::string> out;
    for (const Pat p : kAllPats) {
      out.push_back(pattern_source(p));
      std::string generated = hpl_generated_source(p);
      if (!generated.empty()) out.push_back(std::move(generated));
    }
    return out;
  }

private:
  struct SizeClass {
    std::vector<std::vector<float>> host;    // HPL arrays' host storage
    std::vector<std::vector<float>> mirror;  // expected contents
    std::vector<HPL::Array<float, 1>> arrays;
    std::vector<cl_mem> bufs;  // the twin's device copies
  };

  /// Draws this chain's scalars and co-execution flags.
  std::vector<Step> instantiate(const std::vector<Step>& steps,
                                bool coexec_all) {
    std::vector<Step> out = steps;
    for (Step& s : out) {
      switch (s.pat) {
        case Pat::Fill: s.scalar = 0.5f + rng_.next_float(); break;
        case Pat::Axpy: s.scalar = rng_.next_float() - 0.5f; break;
        case Pat::Scale: s.scalar = 0.5f + rng_.next_float(); break;
        default: break;
      }
      if (is_reduction(s.pat)) {
        s.coexec = coexec_all || rng_.next_below(4) == 0;
      }
    }
    return out;
  }

  OpOutcome run_chain(const ChainShape& shape, SizeClass& c, bool hpl_first,
                      bool coexec_all, bool corrupt) {
    const std::vector<Step> steps = instantiate(shape.steps, coexec_all);
    const std::vector<Step> tail = instantiate(shape.tail, false);
    std::vector<float> new_x;
    if (shape.h2d_ending) {
      new_x.resize(c.host[0].size());
      random_fill(rng_, new_x);
    }
    const std::size_t n = c.host[0].size();
    const auto read = static_cast<std::size_t>(shape.read_slot);

    OpOutcome out;
    std::vector<double> hpl_sums;
    std::vector<double> cl_sums;
    std::vector<float> cl_result(n);
    auto run_hpl = [&] {
      SideTimer timer(out.hpl);
      for (const Step& s : steps) {
        const double v = hpl_step(s, c.arrays, *partials_, partials_host_,
                                  tesla_, coexec_devs_, "hpl.eval");
        if (is_reduction(s.pat)) hpl_sums.push_back(v);
      }
      if (shape.h2d_ending) {
        float* x;
        {
          Span span("hpl.force");
          x = c.arrays[0].data();
        }
        std::copy(new_x.begin(), new_x.end(), x);
        for (const Step& s : tail) {
          hpl_step(s, c.arrays, *partials_, partials_host_, tesla_,
                   coexec_devs_, "hpl.eval");
        }
      }
      hpl_read(c.arrays[read]);
    };
    auto run_opencl = [&] {
      SideTimer timer(out.opencl);
      Span span("ref.opencl");
      {
        for (const Step& s : steps) {
          const double v =
              cl_step(s, cl_kernels_[index(s.pat)], *cl_, c.bufs,
                      cl_partials_, n);
          if (is_reduction(s.pat)) cl_sums.push_back(v);
        }
        if (shape.h2d_ending) {
          cl_write(*cl_, c.bufs[0], new_x);
          for (const Step& s : tail) {
            cl_step(s, cl_kernels_[index(s.pat)], *cl_, c.bufs, cl_partials_,
                    n);
          }
        }
        cl_read(*cl_, c.bufs[read], cl_result);
      }
    };
    both_sides(hpl_first, run_hpl, run_opencl);

    // Replay the chain on the host mirrors and check both sides.
    Checker check(corrupt);
    std::size_t r = 0;
    for (const Step& s : steps) {
      if (is_reduction(s.pat)) {
        const double want = mirror_reduce(s, c.mirror);
        check.scalar("hpl reduction", hpl_sums[r], want, 0, kReduceRelTol);
        check.scalar("opencl reduction", cl_sums[r], want, 0, kReduceRelTol);
        ++r;
      } else {
        mirror_map(s, c.mirror);
      }
    }
    if (shape.h2d_ending) {
      c.mirror[0] = new_x;
      for (const Step& s : tail) mirror_map(s, c.mirror);
    }
    check.compare("hpl chain", c.host[read], widen(c.mirror[read]), kMapAbsTol,
                  kMapRelTol);
    check.compare("opencl chain", cl_result, widen(c.mirror[read]), kMapAbsTol,
                  kMapRelTol);
    check.into(out);
    return out;
  }

  std::uint64_t corrupt_op_;
  SplitMix64 rng_;
  std::vector<ChainShape> shapes_;
  std::unique_ptr<Deck> deck_;  // over (size class, shape) pairs
  HPL::Device tesla_;
  std::vector<HPL::Device> coexec_devs_;
  std::unique_ptr<ClSession> cl_;
  std::array<cl_kernel, std::size(kAllPats)> cl_kernels_{};
  cl_mem cl_partials_ = nullptr;
  std::vector<float> partials_host_;
  std::unique_ptr<HPL::Array<float, 1>> partials_;
  std::vector<SizeClass> classes_;
};

}  // namespace

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

SideTimer::SideTimer(SideTime& side)
    : side_(side), wall0_(wall_s()), cpu0_(process_cpu_s()) {}

SideTimer::~SideTimer() {
  side_.wall_s += wall_s() - wall0_;
  side_.cpu_s += process_cpu_s() - cpu0_;
}

const CoexecTotals& coexec_totals() { return g_coexec; }

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_suite", "cold_build",
                                              "eval_pipeline"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        std::uint64_t corrupt_op) {
  if (name == "paper_suite") {
    return std::make_unique<PaperSuite>(seed, corrupt_op);
  }
  if (name == "cold_build") {
    return std::make_unique<ColdBuild>(seed, corrupt_op);
  }
  if (name == "eval_pipeline") {
    return std::make_unique<EvalPipeline>(seed, corrupt_op);
  }
  return nullptr;
}

}  // namespace perfbench
