// eval() API behaviour: default domains, default device, scalar-argument
// forms, and the user-error diagnostics HPL raises.

#include <gtest/gtest.h>

#include <thread>

#include "hpl/HPL.h"

using namespace HPL;

namespace {

void fill_ids(Array<int, 1> out) { out[idx] = cast<std::int32_t>(idx); }

TEST(EvalApi, DefaultGlobalDomainIsFirstArgumentDims) {
  Array<int, 1> out(37);  // awkward size; no local divides it nicely but 1
  eval(fill_ids)(out);
  for (int i = 0; i < 37; ++i) EXPECT_EQ(out(i), i);
}

void fill_2d(Array<int, 2> out) {
  out[idx][idy] = cast<std::int32_t>(idx * 100 + idy);
}

TEST(EvalApi, DefaultGlobalDomainFor2D) {
  Array<int, 2> out(8, 6);
  eval(fill_2d)(out);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 6; ++j) {
      EXPECT_EQ(out(i, j), i * 100 + j);
    }
  }
}

void scale(Array<float, 1> data, Float factor) {
  data[idx] = data[idx] * factor;
}

TEST(EvalApi, ScalarArgumentForms) {
  Array<float, 1> data(16);
  for (int i = 0; i < 16; ++i) data(i) = 1.0f;

  Float wrapped;
  wrapped = 2.0f;
  eval(scale)(data, wrapped);        // HPL scalar object
  eval(scale)(data, 3.0f);           // plain float
  eval(scale)(data, 2);              // plain int, converted
  EXPECT_EQ(data(0), 12.0f);
}

void needs_global(Array<float, 1> out, Float v) { out[idx] = v; }

TEST(EvalApi, ExplicitDomainsOverrideDefaults) {
  Array<float, 1> out(100);
  for (int i = 0; i < 100; ++i) out(i) = -1.0f;
  // Only evaluate the first 10 elements. Coherence is tracked at
  // whole-array granularity (as in HPL/OpenCL): elements the kernel did
  // not write are undefined after the launch, so only [0, 10) is checked.
  eval(needs_global).global(10).local(5)(out, 7.0f);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out(i), 7.0f) << i;
}

TEST(EvalApi, DefaultDeviceIsAccelerator) {
  EXPECT_FALSE(Device::default_device().is_cpu());
  EXPECT_EQ(Device::default_device().name().find("Tesla"), 3u);  // "SimTesla ..."
}

void double_kernel(Array<double, 1> out) { out[idx] = 1.0; }

TEST(EvalApi, DoubleKernelRejectedOnQuadro) {
  // Eager-mode contract: the build error surfaces from eval() itself.
  // (With fusion on, deferred evals surface it at the forcing point — see
  // fusion_test.cpp.)
  ScopedFusionDisable fusion_off;
  reset_profile();
  Array<double, 1> out(8);
  EXPECT_THROW(eval(double_kernel).device(*Device::by_name("Quadro"))(out),
               hplrepro::Error);
  // A launch is a command that reached a queue: the rejected one records
  // no launch and no cache outcome, in profile() and the ledger rows alike.
  const auto snap = profile();
  EXPECT_EQ(snap.kernel_cache_hits + snap.kernel_cache_misses,
            snap.kernel_launches);
  std::uint64_t registry_launches = 0;
  for (const auto& k : kernel_profiles()) registry_launches += k.launches;
  EXPECT_EQ(registry_launches, snap.kernel_launches);
  // ... but runs on the Tesla and the CPU device.
  EXPECT_NO_THROW(eval(double_kernel).device(*Device::by_name("Tesla"))(out));
  EXPECT_NO_THROW(eval(double_kernel).device(Device::cpu_device())(out));
}

TEST(EvalApi, MismatchedLocalSizeThrows) {
  ScopedFusionDisable fusion_off;  // eager-mode contract: throws at eval()
  Array<float, 1> out(10);
  EXPECT_THROW(eval(needs_global).global(10).local(3)(out, 1.0f),
               hplrepro::Error);
}

// --- Host/kernel indexing discipline (paper §III-A) ---------------------------

TEST(EvalApi, BracketIndexingInHostCodeThrows) {
  Array<float, 1> data(4);
  EXPECT_THROW((void)(data[0] + data[1]), hplrepro::Error);
}

TEST(EvalApi, ControlKeywordsOutsideKernelThrow) {
  EXPECT_THROW(detail::begin_if_(Expr(1)), hplrepro::Error);
  EXPECT_THROW(barrier(LOCAL), hplrepro::Error);
}

void unbalanced_kernel(Array<float, 1> data) {
  if_(idx == 0) {
    data[idx] = 1.0f;
  }  // missing endif_
}

TEST(EvalApi, UnbalancedControlBlockDiagnosed) {
  Array<float, 1> data(4);
  purge_kernel_cache();
  try {
    eval(unbalanced_kernel)(data);
    FAIL() << "expected an error about a missing endif_";
  } catch (const hplrepro::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unclosed"), std::string::npos)
        << e.what();
  }
}

void writes_scalar_param(Array<float, 1> out, Float v) {
  v = 1.0f;  // scalar parameters are read-only (passed by value)
  out[idx] = v;
}

TEST(EvalApi, WritingScalarParameterDiagnosed) {
  Array<float, 1> out(4);
  purge_kernel_cache();
  EXPECT_THROW(eval(writes_scalar_param)(out, 2.0f), hplrepro::Error);
}

void writes_constant_param(Array<float, 1, Constant> table) {
  table[idx] = 0.0f;
}

TEST(EvalApi, WritingConstantMemoryDiagnosed) {
  Array<float, 1, Constant> table(4);
  purge_kernel_cache();
  EXPECT_THROW(eval(writes_constant_param)(table), hplrepro::Error);
}

TEST(EvalApi, PlatformHasThreeDevices) {
  EXPECT_EQ(Device::all().size(), 3u);
  EXPECT_TRUE(Device::cpu_device().is_cpu());
  EXPECT_FALSE(Device::by_name("Tesla")->supports_double() == false);
  EXPECT_FALSE(Device::by_name("Quadro")->supports_double());
}

void tag_value(Array<float, 1> out, Float v) { out[idx] = v; }

TEST(EvalApiRace, ConcurrentSameKernelEvalsKeepArgumentsPaired) {
  // Regression: two host threads eval()ing the SAME kernel share one
  // clsim::Kernel object per device. Without the per-built-kernel launch
  // mutex spanning bind + enqueue, thread B could overwrite thread A's
  // argument slots between A's set_arg and A's enqueue, launching A's
  // NDRange with B's buffer or scalar.
  ScopedFusionDisable fusion_off;  // exact launch counts below
  purge_kernel_cache();
  reset_profile();

  constexpr std::size_t kElems = 512;
  constexpr int kIters = 50;
  Array<float, 1> warm(kElems), a(kElems), b(kElems);
  eval(tag_value)(warm, 0.0f);  // build once so both threads race on binds

  std::thread t1([&] {
    for (int i = 0; i < kIters; ++i) eval(tag_value)(a, 1.0f);
  });
  std::thread t2([&] {
    for (int i = 0; i < kIters; ++i) eval(tag_value)(b, 2.0f);
  });
  t1.join();
  t2.join();

  for (std::size_t i = 0; i < kElems; ++i) {
    ASSERT_EQ(a.get(i), 1.0f) << "arg-slot mix-up at " << i;
    ASSERT_EQ(b.get(i), 2.0f) << "arg-slot mix-up at " << i;
  }
  const auto snap = profile();
  EXPECT_EQ(snap.kernel_launches, 2u * kIters + 1u);
  EXPECT_EQ(snap.kernel_cache_hits + snap.kernel_cache_misses,
            snap.kernel_launches);
  std::uint64_t registry_launches = 0;
  for (const auto& k : kernel_profiles()) registry_launches += k.launches;
  EXPECT_EQ(registry_launches, snap.kernel_launches);
}

void cold_shared(Array<float, 1> out) { out[idx] = 7.0f; }

TEST(EvalApiRace, ConcurrentColdFirstInvocationBuildsConsistently) {
  // Both threads hit an empty cache for the same kernel: capture happens
  // per thread (thread_local builders), but the kernel-source registry is
  // first-wins and build_for is serialised, so exactly one binary is
  // built per device and both launches complete correctly.
  ScopedFusionDisable fusion_off;  // exact launch counts below
  purge_kernel_cache();
  reset_profile();

  Array<float, 1> a(128), b(128);
  std::thread t1([&] { eval(cold_shared)(a); });
  std::thread t2([&] { eval(cold_shared)(b); });
  t1.join();
  t2.join();

  for (std::size_t i = 0; i < 128; ++i) {
    ASSERT_EQ(a.get(i), 7.0f);
    ASSERT_EQ(b.get(i), 7.0f);
  }
  const auto snap = profile();
  EXPECT_EQ(snap.kernel_launches, 2u);
  EXPECT_EQ(snap.kernel_cache_hits + snap.kernel_cache_misses, 2u);
  EXPECT_EQ(snap.kernels_built, 1u);
}

}  // namespace
