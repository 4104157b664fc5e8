// Ablation: HPL's kernel binary cache (paper §V-B: "HPL stores internally
// and reuses the binaries of the kernels it generates ... second and later
// invocations do not incur in overheads of analysis, backend code
// generation and compilation").
//
// We measure the real host-side cost of an eval with the cache disabled
// (purged before every call — i.e. what every invocation would cost
// without the design decision) against cached steady-state dispatch.

#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace HPL;

void saxpy(Array<float, 1> y, Array<float, 1> x, Float a) {
  y[idx] = a * x[idx] + y[idx];
}

void dot_chunk(Array<float, 1> v1, Array<float, 1> v2,
               Array<float, 1> partial) {
  Int i;
  Array<float, 1, Local> shared(32);
  shared[lidx] = v1[idx] * v2[idx];
  barrier(LOCAL);
  if_(lidx == 0) {
    Float sum = 0;
    for_(i = 0, i < 32, i++) {
      sum += shared[i];
    } endfor_
    partial[gidx] = sum;
  } endif_
}

template <typename Fn>
double time_per_eval_us(int iterations, Fn&& body) {
  // Host overhead only, measured like every paper figure. With fusion on,
  // eval() only records the launch: flush() launches (and, after a purge,
  // builds) each eval inside the window, and profile() waits for the
  // launches to settle before the window closes, so the simulation time
  // the formula subtracts belongs to launches the window contains.
  const hplrepro::benchsuite::Timings t =
      hplrepro::benchsuite::time_hpl_section([&] {
        for (int i = 0; i < iterations; ++i) {
          body();
          flush();
        }
        profile();
      });
  return t.host_seconds / iterations * 1e6;
}

}  // namespace

int main() {
  using namespace hplrepro::bench;
  print_header("Ablation: kernel binary cache",
               "the design decision behind paper §V-B's 'virtually "
               "identical' repeat-invocation runtimes");

  Array<float, 1> x(4096), y(4096), partial(128);
  for (int i = 0; i < 4096; ++i) x(i) = 1.0f;

  hplrepro::Table table({"kernel", "uncached eval (us)", "cached eval (us)",
                         "speedup"});

  {
    eval(saxpy)(y, x, 2.0f);  // warm both paths' data transfers
    const double uncached = time_per_eval_us(50, [&] {
      purge_kernel_cache();
      eval(saxpy)(y, x, 2.0f);
    });
    const double cached =
        time_per_eval_us(200, [&] { eval(saxpy)(y, x, 2.0f); });
    table.add_row({"saxpy", fmt(uncached), fmt(cached),
                   fmt_x(uncached / cached)});
  }
  {
    eval(dot_chunk).global(4096).local(32)(x, y, partial);
    const double uncached = time_per_eval_us(50, [&] {
      purge_kernel_cache();
      eval(dot_chunk).global(4096).local(32)(x, y, partial);
    });
    const double cached = time_per_eval_us(200, [&] {
      eval(dot_chunk).global(4096).local(32)(x, y, partial);
    });
    table.add_row({"dot product (barrier)", fmt(uncached), fmt(cached),
                   fmt_x(uncached / cached)});
  }

  table.print(std::cout);
  std::cout << "\nWithout the cache every invocation would pay capture + "
               "code generation + compilation; with it, dispatch is a "
               "couple of microseconds.\n";
  return 0;
}
