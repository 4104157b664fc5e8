// Trace/observability layer: a small eval sequence must produce valid
// Chrome trace JSON with one span per pipeline stage, tracing must be
// inert when disabled, and the profiler registry must reconcile exactly
// with the ProfileSnapshot counters.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "hpl/HPL.h"
#include "support/trace.hpp"

using namespace HPL;
namespace trace = hplrepro::trace;

namespace {

void reader(Array<float, 1> in, Array<float, 1> out) { out[idx] = in[idx]; }
void scale2(Array<float, 1> data, Float a) { data[idx] = a * data[idx]; }

// --- Minimal JSON validator (recursive descent, values discarded) --------

class JsonValidator {
public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

class TraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    trace::set_enabled(false);
    trace::reset();
    purge_kernel_cache();
    reset_profile();
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::reset();
  }
};

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  if (std::getenv("HPL_TRACE") == nullptr) {
    EXPECT_TRUE(trace::output_path().empty());
  }
  Array<float, 1> in(256), out(256);
  for (std::size_t i = 0; i < 256; ++i) in(i) = 1.0f;
  eval(reader)(in, out);
  eval(reader)(in, out);
  EXPECT_EQ(trace::event_count(), 0u);
}

TEST_F(TraceTest, DisabledTracingDoesNotPerturbCounters) {
  // The same deterministic workload must produce bit-identical simulated
  // counters with tracing off and on: observability is non-perturbing.
  auto run_workload = [] {
    purge_kernel_cache();
    reset_profile();
    Array<float, 1> data(512);
    for (std::size_t i = 0; i < 512; ++i) data(i) = 2.0f;
    eval(scale2)(data, 3.0f);
    eval(scale2)(data, 3.0f);
    (void)data(0);  // force read-back
    return profile();
  };

  trace::set_enabled(false);
  const ProfileSnapshot off = run_workload();
  trace::set_enabled(true);
  const ProfileSnapshot on = run_workload();
  trace::set_enabled(false);

  EXPECT_EQ(off.kernel_launches, on.kernel_launches);
  EXPECT_EQ(off.kernels_built, on.kernels_built);
  EXPECT_EQ(off.kernel_cache_hits, on.kernel_cache_hits);
  EXPECT_EQ(off.bytes_to_device, on.bytes_to_device);
  EXPECT_EQ(off.bytes_to_host, on.bytes_to_host);
  EXPECT_DOUBLE_EQ(off.kernel_sim_seconds, on.kernel_sim_seconds);
  EXPECT_DOUBLE_EQ(off.transfer_sim_seconds, on.transfer_sim_seconds);
}

TEST_F(TraceTest, ColdEvalEmitsOneSpanPerPipelineStage) {
  trace::set_enabled(true);

  Array<float, 1> in(256), out(256);
  for (std::size_t i = 0; i < 256; ++i) in(i) = 4.0f;
  eval(reader)(in, out);  // cold: capture+codegen+build+transfer+launch
  EXPECT_EQ(out(10), 4.0f);  // d2h read-back

  std::set<std::string> names;
  std::set<std::string> sim_tracks;
  for (const auto& ev : trace::snapshot()) {
    names.insert(ev.name);
    if (ev.simulated) sim_tracks.insert(ev.track);
    EXPECT_GE(ev.dur_us, 0.0) << ev.name;
  }
  EXPECT_TRUE(names.count("capture"));
  EXPECT_TRUE(names.count("codegen"));
  EXPECT_TRUE(names.count("build"));
  EXPECT_TRUE(names.count("marshal"));
  EXPECT_TRUE(names.count("transfer:h2d"));
  EXPECT_TRUE(names.count("transfer:d2h"));
  EXPECT_TRUE(names.count("launch"));
  // The simulated-device timeline track is present too.
  EXPECT_FALSE(sim_tracks.empty());
}

TEST_F(TraceTest, ChromeTraceExportIsValidJson) {
  trace::set_enabled(true);

  Array<float, 1> in(128), out(128);
  for (std::size_t i = 0; i < 128; ++i) in(i) = 1.5f;
  eval(reader)(in, out);
  eval(reader)(in, out);
  (void)out(0);

  const std::string path = "trace_test_out.json";
  std::remove(path.c_str());
  ASSERT_TRUE(trace::write_chrome_trace(path));

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();
  std::remove(path.c_str());

  EXPECT_TRUE(JsonValidator(text).valid()) << text.substr(0, 400);
  // Every event is a complete ("X") or metadata ("M") record — no
  // unbalanced B/E pairs by construction.
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"capture\""), std::string::npos);
  EXPECT_NE(text.find("\"launch\""), std::string::npos);
  EXPECT_EQ(text.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_EQ(text.find("\"ph\":\"E\""), std::string::npos);
}

TEST_F(TraceTest, ProfilerReportReconcilesWithSnapshot) {
  // The report must list the eager per-eval kernels by name ("hpl_kernel_"
  // rows); fused launches report under synthesized "hpl_fused_" names.
  ScopedFusionDisable fusion_off;
  Array<float, 1> in(256), out(256);
  for (std::size_t i = 0; i < 256; ++i) in(i) = 1.0f;
  eval(reader)(in, out);
  eval(reader)(in, out);
  Array<float, 1> data(256);
  eval(scale2)(data, 2.0f);
  EXPECT_EQ(out(0), 1.0f);  // a d2h read, so both directions are exercised

  const ProfileSnapshot snap = profile();
  double kernel_sum = 0;
  std::uint64_t launches = 0, hits = 0, builds = 0;
  for (const auto& k : kernel_profiles()) {
    kernel_sum += k.sim.total_s;
    launches += k.launches;
    hits += k.cache_hits;
    builds += k.builds;
  }
  EXPECT_NEAR(kernel_sum, snap.kernel_sim_seconds, 1e-9);
  EXPECT_EQ(launches, snap.kernel_launches);
  EXPECT_EQ(hits, snap.kernel_cache_hits);
  EXPECT_EQ(builds, snap.kernels_built);

  double transfer_sum = 0;
  std::uint64_t to_device = 0, to_host = 0;
  for (const auto& t : transfer_profiles()) {
    transfer_sum += t.sim_seconds;
    to_device += t.to_device_bytes;
    to_host += t.to_host_bytes;
  }
  EXPECT_NEAR(transfer_sum, snap.transfer_sim_seconds, 1e-9);
  EXPECT_GT(to_host, 0u);
  EXPECT_EQ(to_device, snap.bytes_to_device);
  EXPECT_EQ(to_host, snap.bytes_to_host);

  const std::string report = profiler_report();
  EXPECT_NE(report.find("HPL profiler report"), std::string::npos);
  EXPECT_NE(report.find("hpl_kernel_"), std::string::npos);
  EXPECT_NE(report.find("device kernels (simulated)"), std::string::npos);
}

TEST_F(TraceTest, ResetProfileClearsTheRegistry) {
  Array<float, 1> data(64);
  eval(scale2)(data, 2.0f);
  ASSERT_FALSE(kernel_profiles().empty());
  reset_profile();
  EXPECT_TRUE(kernel_profiles().empty());
  EXPECT_TRUE(transfer_profiles().empty());
}

}  // namespace
