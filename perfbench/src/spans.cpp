#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

struct SpanRecord {
  const char* name = "";  // string literal: layer.call
  double start_us = 0;
  double end_us = 0;
  std::int64_t parent = -1;  // index into g_spans, -1 = root
  std::uint64_t op = 0;      // operation id, 0 = outside any operation
};

std::vector<SpanRecord> g_spans;
std::int64_t g_parent = -1;
std::uint64_t g_op = 0;
std::atomic<bool> g_on{false};
std::thread::id g_owner;  // written before g_on is first set

bool recording() {
  return g_on.load(std::memory_order_acquire) &&
         std::this_thread::get_id() == g_owner;
}

/// Microseconds on the steady clock since the first call.
double now_us() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double, std::micro>(clock::now() - origin)
      .count();
}

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

}  // namespace

void set_tracing(bool on) {
  if (on && !g_on.load(std::memory_order_relaxed)) {
    g_owner = std::this_thread::get_id();
    g_spans.reserve(1 << 20);
  }
  g_on.store(on, std::memory_order_release);
}

bool tracing() { return g_on.load(std::memory_order_acquire); }

void set_current_op(std::uint64_t op) { g_op = op; }

Span::Span(const char* name) {
  if (!recording()) return;
  saved_parent_ = g_parent;
  index_ = static_cast<std::int64_t>(g_spans.size());
  g_spans.push_back({name, now_us(), -1.0, g_parent, g_op});
  g_parent = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  g_spans[static_cast<std::size_t>(index_)].end_us = now_us();
  g_parent = saved_parent_;
}

/// Summed duration of each span's direct children.
static std::vector<double> child_time_us() {
  std::vector<double> child_us(g_spans.size(), 0.0);
  for (const SpanRecord& s : g_spans) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  return child_us;
}

std::vector<LayerTime> layer_times(bool ops_only) {
  const std::vector<double> child_us = child_time_us();
  std::map<std::string, LayerTime> by_layer;
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    if (ops_only && s.op == 0) continue;
    const std::string layer = layer_of(s.name);
    LayerTime& t = by_layer[layer];
    t.layer = layer;
    t.self_us += (s.end_us - s.start_us) - child_us[i];
  }
  std::vector<LayerTime> out;
  for (auto& [name, t] : by_layer) out.push_back(t);
  return out;
}

NameTotal name_total(const char* name) {
  NameTotal t;
  for (const SpanRecord& s : g_spans) {
    if (std::strcmp(s.name, name) == 0) {
      t.sum_us += s.end_us - s.start_us;
      ++t.count;
    }
  }
  return t;
}

std::string validate_spans() {
  // Slack for rounding of the microsecond stamps.
  constexpr double kSlackUs = 1e-3;
  const std::vector<double> child_us = child_time_us();
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    if (child_us[i] > s.end_us - s.start_us + kSlackUs) {
      return std::string("children of span ") + s.name + " #" +
             std::to_string(i) + " outlast it";
    }
    if (s.end_us < s.start_us) {
      return std::string("span ") + s.name + " #" + std::to_string(i) +
             " is unclosed or ends before it starts";
    }
    if (s.parent >= 0) {
      const SpanRecord& p = g_spans[static_cast<std::size_t>(s.parent)];
      if (s.start_us < p.start_us || s.end_us > p.end_us) {
        return std::string("span ") + s.name + " #" + std::to_string(i) +
               " lies outside its parent " + p.name;
      }
      if (s.op != p.op) {
        return std::string("span ") + s.name + " #" + std::to_string(i) +
               " has another operation id than its parent";
      }
    }
  }
  return "";
}

bool write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%lld,\"op\":%llu}%s\n",
                 i, s.name, s.start_us, s.end_us,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 i + 1 < g_spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
