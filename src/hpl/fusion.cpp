/// \file fusion.cpp
/// The lazy eval DAG and the rewrite-rule fusion engine (see fusion.hpp).
///
/// The engine works on the *generated text* of captured kernels: a
/// "simple map" is a kernel whose body is exactly one statement of the
/// form `pW[SUB] = RHS;`, and a reduction consumer is recognised by its
/// canonical grid-stride loop header. Working at this level means every
/// rule's legality condition is checked against what will actually
/// execute, and the synthesized kernel goes through the same
/// codegen -> clc compile -> cache pipeline as any captured kernel.

#include "hpl/fusion.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>
#include <regex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hpl/codegen.hpp"
#include "support/metrics.hpp"

namespace HPL {
namespace detail {
namespace {

namespace clsim = hplrepro::clsim;

// --- Toggles -------------------------------------------------------------------

std::atomic<bool>& runtime_enabled() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

std::atomic<bool>& sabotage_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

// --- The DAG -------------------------------------------------------------------

struct Dag {
  std::mutex mutex;  // guards `nodes`
  std::vector<DagNode> nodes;
  /// Outermost: serializes whole flushes so one batch's launch order is
  /// never interleaved with another thread's batch.
  std::mutex flush_mutex;
  std::atomic<std::size_t> pending{0};
};

Dag& dag() {
  // Leaked: flushes can run during static destruction (~Runtime).
  static Dag* d = new Dag;
  return *d;
}

thread_local bool tl_in_flush = false;

// --- Text utilities ------------------------------------------------------------

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return std::string(s.substr(b, e - b));
}

/// Raw body lines (original indentation kept), trailing empties dropped.
std::vector<std::string> split_lines(const std::string& body) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos <= body.size()) {
    const std::size_t nl = body.find('\n', pos);
    if (nl == std::string::npos) {
      lines.push_back(body.substr(pos));
      break;
    }
    lines.push_back(body.substr(pos, nl - pos));
    pos = nl + 1;
  }
  while (!lines.empty() && trim(lines.back()).empty()) lines.pop_back();
  return lines;
}

/// Position of the ']' matching the '[' at `open`, or npos.
std::size_t match_bracket(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '[') ++depth;
    if (text[i] == ']' && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Rewrites every identifier through `rn`. Hidden dim-size arguments
/// (`p3_d1`) follow their array parameter's mapping.
std::string rename_idents(const std::string& text,
                          const std::map<std::string, std::string>& rn) {
  std::string out;
  out.reserve(text.size());
  std::size_t i = 0;
  while (i < text.size()) {
    if (!ident_start(text[i])) {
      out += text[i++];
      continue;
    }
    std::size_t j = i + 1;
    while (j < text.size() && ident_char(text[j])) ++j;
    const std::string id = text.substr(i, j - i);
    auto it = rn.find(id);
    if (it != rn.end()) {
      out += it->second;
    } else {
      bool mapped = false;
      const std::size_t dpos = id.rfind("_d");
      if (dpos != std::string::npos && dpos > 0 &&
          dpos + 2 < id.size()) {
        bool digits = true;
        for (std::size_t k = dpos + 2; k < id.size(); ++k) {
          digits = digits &&
                   std::isdigit(static_cast<unsigned char>(id[k])) != 0;
        }
        if (digits) {
          auto it2 = rn.find(id.substr(0, dpos));
          if (it2 != rn.end()) {
            out += it2->second + id.substr(dpos);
            mapped = true;
          }
        }
      }
      if (!mapped) out += id;
    }
    i = j;
  }
  return out;
}

/// Swaps the idx and idy identifiers (transpose sinking's sigma).
std::string swap_xy(const std::string& text) {
  static const std::map<std::string, std::string> sigma = {{"idx", "idy"},
                                                           {"idy", "idx"}};
  return rename_idents(text, sigma);
}

/// Parses a fused-namespace identifier "f<k>" to its slot, or -1.
int fused_slot(const std::string& id) {
  if (id.size() < 2 || id[0] != 'f') return -1;
  for (std::size_t k = 1; k < id.size(); ++k) {
    if (std::isdigit(static_cast<unsigned char>(id[k])) == 0) return -1;
  }
  return std::atoi(id.c_str() + 1);
}

/// Parses a capture-namespace identifier "p<k>" to its index, or -1.
int param_index_of(const std::string& id) {
  if (id.size() < 2 || id[0] != 'p') return -1;
  for (std::size_t k = 1; k < id.size(); ++k) {
    if (std::isdigit(static_cast<unsigned char>(id[k])) == 0) return -1;
  }
  return std::atoi(id.c_str() + 1);
}

/// One array-element access `name[sub]` found in a text fragment.
struct ElemAccess {
  std::size_t pos = 0;  // start of the identifier
  std::size_t end = 0;  // one past the closing ']'
  int slot = -1;        // parsed from the identifier
  std::string sub;      // subscript text
};

/// All `prefix<digits>[...]` accesses in `text`, left to right.
/// `prefix` is 'f' (fused namespace) or 'p' (capture namespace).
std::vector<ElemAccess> find_accesses(const std::string& text, char prefix) {
  std::vector<ElemAccess> out;
  std::size_t i = 0;
  while (i < text.size()) {
    if (!ident_start(text[i])) {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < text.size() && ident_char(text[j])) ++j;
    const std::string id = text.substr(i, j - i);
    const int slot = prefix == 'f' ? fused_slot(id) : param_index_of(id);
    if (slot >= 0 && j < text.size() && text[j] == '[') {
      const std::size_t close = match_bracket(text, j);
      if (close != std::string::npos) {
        out.push_back({i, close + 1, slot,
                       text.substr(j + 1, close - j - 1)});
        i = j + 1;  // allow nested accesses inside the subscript
        continue;
      }
    }
    i = j;
  }
  return out;
}

bool ranges_equal(const clsim::NDRange& a, const clsim::NDRange& b) {
  if (a.dims != b.dims) return false;
  for (int d = 0; d < a.dims; ++d) {
    if (a.sizes[d] != b.sizes[d]) return false;
  }
  return true;
}

bool locals_equal(const std::optional<clsim::NDRange>& a,
                  const std::optional<clsim::NDRange>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() || ranges_equal(*a, *b);
}

std::size_t range_total(const clsim::NDRange& r) {
  std::size_t total = 1;
  for (int d = 0; d < r.dims; ++d) total *= r.sizes[d];
  return total;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

// --- Pattern matchers ----------------------------------------------------------

/// A "simple map": a kernel whose whole body is `pW[SUB] = RHS;`.
struct MapStmt {
  int lhs_param = -1;
  std::string sub;  // subscript text, capture (p*) namespace
  std::string rhs;  // right-hand side, capture (p*) namespace
};

std::optional<MapStmt> parse_simple_map(const DagNode& node) {
  const CachedKernel& ck = *node.cached;
  if (ck.body.empty() || ck.params.size() != node.args.size()) {
    return std::nullopt;
  }
  std::vector<std::string> stmts;
  for (const auto& raw : split_lines(ck.body)) {
    std::string t = trim(raw);
    if (!t.empty()) stmts.push_back(std::move(t));
  }
  if (stmts.size() != 1) return std::nullopt;
  const std::string& line = stmts[0];
  if (line.back() != ';' || line.find('{') != std::string::npos ||
      line.find('}') != std::string::npos) {
    return std::nullopt;
  }
  // LHS: p<digits>[
  std::size_t j = 0;
  if (line[j] != 'p') return std::nullopt;
  std::size_t k = j + 1;
  while (k < line.size() && std::isdigit(static_cast<unsigned char>(line[k]))) {
    ++k;
  }
  if (k == j + 1 || k >= line.size() || line[k] != '[') return std::nullopt;
  const int lhs = std::atoi(line.c_str() + 1);
  const std::size_t close = match_bracket(line, k);
  if (close == std::string::npos) return std::nullopt;
  if (line.compare(close + 1, 3, " = ") != 0) return std::nullopt;
  MapStmt ms;
  ms.lhs_param = lhs;
  ms.sub = line.substr(k + 1, close - k - 1);
  ms.rhs = line.substr(close + 4, line.size() - close - 5);
  if (ms.rhs.find(';') != std::string::npos) return std::nullopt;
  // Sanity: the LHS is a written array parameter, and nothing else is
  // written (a one-statement map cannot write more, but the access flags
  // are the authoritative record).
  if (lhs < 0 || static_cast<std::size_t>(lhs) >= ck.params.size()) {
    return std::nullopt;
  }
  if (ck.params[static_cast<std::size_t>(lhs)].ndim < 1 ||
      node.args[static_cast<std::size_t>(lhs)].impl == nullptr ||
      !ck.params[static_cast<std::size_t>(lhs)].access.written) {
    return std::nullopt;
  }
  for (std::size_t p = 0; p < ck.params.size(); ++p) {
    if (p != static_cast<std::size_t>(lhs) && ck.params[p].access.written) {
      return std::nullopt;
    }
  }
  return ms;
}

/// The canonical grid-stride reduction consumer (patterns.hpp reduce/dot):
///   for (vN = ((uint)idx); (vN < pK); vN += ((uint)szx)) {
struct ReduceShape {
  std::vector<std::string> raw_lines;
  std::size_t loop_line = 0;
  std::size_t loop_end = 0;  // line index of the matching '}'
  std::string sub_var;       // vN
  int n_param = -1;          // pK: the element-count scalar
};

std::optional<ReduceShape> parse_reduce(const DagNode& node) {
  const CachedKernel& ck = *node.cached;
  if (ck.body.empty() || ck.params.size() != node.args.size()) {
    return std::nullopt;
  }
  static const std::regex loop_re(
      R"(^for \((v\d+) = \(\(uint\)idx\); \(\1 < (p\d+)\); \1 \+= \(\(uint\)szx\)\) \{$)");
  ReduceShape rs;
  rs.raw_lines = split_lines(ck.body);
  bool found = false;
  for (std::size_t i = 0; i < rs.raw_lines.size(); ++i) {
    std::smatch m;
    const std::string t = trim(rs.raw_lines[i]);
    if (std::regex_match(t, m, loop_re)) {
      if (found) return std::nullopt;  // two grid-stride loops: leave it be
      found = true;
      rs.loop_line = i;
      rs.sub_var = m[1].str();
      rs.n_param = param_index_of(m[2].str());
    }
  }
  if (!found || rs.n_param < 0 ||
      static_cast<std::size_t>(rs.n_param) >= ck.params.size()) {
    return std::nullopt;
  }
  // The loop bound must be a scalar parameter.
  if (ck.params[static_cast<std::size_t>(rs.n_param)].ndim != 0 ||
      node.args[static_cast<std::size_t>(rs.n_param)].impl != nullptr) {
    return std::nullopt;
  }
  // Find the matching close brace by depth counting over trimmed lines.
  int depth = 1;
  for (std::size_t i = rs.loop_line + 1; i < rs.raw_lines.size(); ++i) {
    const std::string t = trim(rs.raw_lines[i]);
    if (!t.empty() && t.back() == '{') ++depth;
    if (t == "}" && --depth == 0) {
      rs.loop_end = i;
      return rs;
    }
  }
  return std::nullopt;
}

// --- Group synthesis (map-map fusion + transpose sinking) ----------------------

/// What the group knows about an array it has (so far) written.
struct GroupWrite {
  std::string sub;   // store subscript, fused (f*) namespace
  std::string temp;  // the scalar temporary holding the stored value
  std::string rhs;   // producer RHS, fused namespace, pre-substitution
  bool recompute_ok = false;  // sigma-swap recompute is legal
};

struct Group {
  std::vector<std::size_t> members;  // indices into the flush batch
  DeviceEntry* dev = nullptr;
  clsim::NDRange global{};
  std::optional<clsim::NDRange> local;
  std::vector<ParamSig> params;  // fused params, names f<slot>
  std::vector<NodeArg> args;     // parallel to params
  std::map<const ArrayImpl*, std::size_t> slot;
  std::map<const ArrayImpl*, GroupWrite> writes;
  std::map<const ArrayImpl*, std::set<std::string>> reads;  // kept loads
  std::vector<std::string> stmts;  // fused body statements (trimmed)
  std::vector<std::pair<std::string, std::string>> predefined;
  int next_temp = 0;
  std::uint64_t bytes_saved = 0;
  std::uint64_t rules = 0;
};

struct RewriteTotals {
  std::uint64_t rules = 0;
  std::uint64_t bytes = 0;
};

void merge_predefined(
    std::vector<std::pair<std::string, std::string>>& into,
    const std::vector<std::pair<std::string, std::string>>& from) {
  for (const auto& pv : from) {
    bool present = false;
    for (const auto& have : into) present = present || have.first == pv.first;
    if (!present) into.push_back(pv);
  }
}

/// Injective canonical 2-D linearised subscript `(A) * fK_d1 + (B)` with
/// {A,B} == {idx,idy}; the only store shape transpose sinking accepts.
bool canonical_2d_sub(const std::string& sub) {
  static const std::regex re(
      R"(^\((idx|idy)\) \* f\d+_d1 \+ \((idx|idy)\)$)");
  std::smatch m;
  if (!std::regex_match(sub, m, re)) return false;
  return m[1].str() != m[2].str();
}

/// For recompute (transpose sinking), the producer RHS must only mention
/// fused parameters, idx/idy, and type names (cast spellings).
bool recompute_pure(const std::string& rhs, const std::vector<ParamSig>& params) {
  static const std::set<std::string> whitelist = {
      "idx",   "idy",  "uint",  "int",   "float", "double", "long",
      "ulong", "char", "uchar", "short", "ushort", "size_t"};
  std::size_t i = 0;
  while (i < rhs.size()) {
    if (!ident_start(rhs[i])) {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < rhs.size() && ident_char(rhs[j])) ++j;
    const std::string id = rhs.substr(i, j - i);
    i = j;
    if (whitelist.count(id) != 0) continue;
    const int slot = fused_slot(id);
    if (slot >= 0 && static_cast<std::size_t>(slot) < params.size()) continue;
    // hidden dim of a fused param?
    const std::size_t dpos = id.rfind("_d");
    if (dpos != std::string::npos &&
        fused_slot(id.substr(0, dpos)) >= 0) {
      continue;
    }
    return false;
  }
  return true;
}

/// Tries to merge `node` (a simple map) into the group. Transactional: on
/// failure the group is untouched and the caller closes it. An empty
/// group adopts the node's geometry and always succeeds.
bool try_append(Group& g, std::size_t node_idx, const DagNode& node,
                const MapStmt& ms) {
  const CachedKernel& ck = *node.cached;
  if (g.members.empty()) {
    g.dev = node.dev;
    g.global = node.global;
    g.local = node.local;
  } else if (node.dev != g.dev || !ranges_equal(node.global, g.global) ||
             !locals_equal(node.local, g.local)) {
    return false;
  }

  // Tentative fused parameter table + rename map for this node.
  auto params = g.params;
  auto args = g.args;
  auto slot = g.slot;
  std::map<std::string, std::string> rn;
  for (std::size_t j = 0; j < ck.params.size(); ++j) {
    std::size_t s;
    if (node.args[j].impl != nullptr) {
      const ArrayImpl* key = node.args[j].impl.get();
      auto it = slot.find(key);
      if (it != slot.end()) {
        s = it->second;
        if (params[s].type_name != ck.params[j].type_name ||
            params[s].ndim != ck.params[j].ndim) {
          return false;  // same impl at incompatible signatures
        }
        params[s].access.written =
            params[s].access.written || ck.params[j].access.written;
      } else {
        s = params.size();
        ParamSig ps = ck.params[j];
        ps.name = "f" + std::to_string(s);
        params.push_back(std::move(ps));
        args.push_back(node.args[j]);
        slot.emplace(key, s);
      }
    } else {
      s = params.size();
      ParamSig ps = ck.params[j];
      ps.name = "f" + std::to_string(s);
      params.push_back(std::move(ps));
      args.push_back(node.args[j]);
    }
    rn["p" + std::to_string(j)] = params[s].name;
  }

  const ArrayImpl* W =
      node.args[static_cast<std::size_t>(ms.lhs_param)].impl.get();
  const std::string lhs_name =
      rn.at("p" + std::to_string(ms.lhs_param));
  std::string sub = rename_idents(ms.sub, rn);
  std::string rhs = rename_idents(ms.rhs, rn);

  // The store subscript must not read any group-written array (keep the
  // rules simple: a scatter through a produced index stays unfused).
  for (const auto& acc : find_accesses(sub, 'f')) {
    const ArrayImpl* impl = args[static_cast<std::size_t>(acc.slot)].impl.get();
    if (impl != nullptr && g.writes.count(impl) != 0) return false;
  }

  // WAR/WAW hazards on the written array: earlier group statements may
  // only have touched W at this exact per-item site.
  {
    auto rit = g.reads.find(W);
    if (rit != g.reads.end() &&
        (rit->second.size() != 1 || rit->second.count(sub) == 0)) {
      return false;
    }
    auto wit = g.writes.find(W);
    if (wit != g.writes.end() && wit->second.sub != sub) return false;
  }

  // Fold group-written loads in the RHS into their temporaries (map-map
  // fusion) or sigma-swapped recomputes (transpose sinking). Repeat until
  // a full scan replaces nothing, so nested/introduced accesses settle.
  std::uint64_t delta_bytes = 0;
  std::uint64_t delta_rules = 0;
  bool replaced_any = false;
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& acc : find_accesses(rhs, 'f')) {
      if (static_cast<std::size_t>(acc.slot) >= args.size()) continue;
      const ArrayImpl* impl =
          args[static_cast<std::size_t>(acc.slot)].impl.get();
      if (impl == nullptr) continue;
      auto wit = g.writes.find(impl);
      if (wit == g.writes.end()) continue;
      const GroupWrite& w = wit->second;
      std::string repl;
      if (acc.sub == w.sub) {
        repl = w.temp;
      } else if (w.recompute_ok && swap_xy(w.sub) == acc.sub) {
        repl = "(" + swap_xy(w.rhs) + ")";
        delta_rules += 1;  // transpose sinking
      } else {
        return false;  // unmatched load of a produced array
      }
      delta_bytes += range_total(g.global) * impl->elem_size;
      rhs = rhs.substr(0, acc.pos) + repl + rhs.substr(acc.end);
      replaced_any = true;
      changed = true;
      break;  // rescan: positions shifted
    }
  }

  // Remaining loads stay in the fused kernel; record them (hazard state
  // for later appends) after checking the new write against them.
  std::map<const ArrayImpl*, std::set<std::string>> new_reads;
  for (const auto& acc : find_accesses(rhs, 'f')) {
    if (static_cast<std::size_t>(acc.slot) >= args.size()) continue;
    const ArrayImpl* impl = args[static_cast<std::size_t>(acc.slot)].impl.get();
    if (impl != nullptr) new_reads[impl].insert(acc.sub);
  }
  for (const auto& acc : find_accesses(sub, 'f')) {
    if (static_cast<std::size_t>(acc.slot) >= args.size()) continue;
    const ArrayImpl* impl = args[static_cast<std::size_t>(acc.slot)].impl.get();
    if (impl != nullptr) new_reads[impl].insert(acc.sub);
  }
  {
    auto it = new_reads.find(W);
    if (it != new_reads.end() &&
        (it->second.size() != 1 || it->second.count(sub) == 0)) {
      return false;  // this statement reads W at a site it doesn't rewrite
    }
  }

  // Transpose sinking legality for *future* consumers of this store: a
  // square 2-D range, the canonical injective store site, and an RHS free
  // of produced-array loads (so recomputing it elsewhere is pure).
  bool recompute_ok = false;
  if (!replaced_any && g.global.dims == 2 &&
      g.global.sizes[0] == g.global.sizes[1] && canonical_2d_sub(sub) &&
      recompute_pure(rhs, params)) {
    recompute_ok = true;
  }

  // Commit.
  g.params = std::move(params);
  g.args = std::move(args);
  g.slot = std::move(slot);
  for (auto& [impl, subs] : new_reads) {
    g.reads[impl].insert(subs.begin(), subs.end());
  }
  const std::string temp = "ft" + std::to_string(g.next_temp++);
  const std::string& type =
      g.params[g.slot.at(W)].type_name;
  std::string stored = rhs;
  if (sabotage_flag().load(std::memory_order_relaxed)) {
    // Deliberately wrong rewrite (differential self-test): off-by-one.
    stored = "(" + rhs + ") + ((" + type + ")1)";
  }
  g.stmts.push_back(type + " " + temp + " = " + stored + ";");
  g.stmts.push_back(lhs_name + "[" + sub + "] = " + temp + ";");
  g.writes[W] = GroupWrite{sub, temp, rhs, recompute_ok};
  merge_predefined(g.predefined, ck.predefined);
  g.members.push_back(node_idx);
  if (g.members.size() >= 2) delta_rules += 1;  // the map-map merge itself
  g.bytes_saved += delta_bytes;
  g.rules += delta_rules;
  return true;
}

/// Post-pass: recompute each array parameter's `read` flag from the final
/// body (a load folded into a temporary is no longer a read; the store
/// itself is not a read). Scalars keep read=true.
void finalize_read_flags(std::vector<ParamSig>& params,
                         const std::string& body) {
  for (auto& p : params) {
    if (p.ndim >= 1) p.access.read = false;
  }
  for (const auto& raw : split_lines(body)) {
    const std::string line = trim(raw);
    // Identify a store's base identifier so it is not counted as a read.
    std::size_t store_base_pos = std::string::npos;
    if (!line.empty() && ident_start(line[0])) {
      std::size_t j = 0;
      while (j < line.size() && ident_char(line[j])) ++j;
      if (j < line.size() && line[j] == '[') {
        const std::size_t close = match_bracket(line, j);
        if (close != std::string::npos &&
            line.compare(close + 1, 3, " = ") == 0) {
          store_base_pos = 0;
        }
      }
    }
    std::size_t i = 0;
    while (i < line.size()) {
      if (!ident_start(line[i])) {
        ++i;
        continue;
      }
      std::size_t j = i + 1;
      while (j < line.size() && ident_char(line[j])) ++j;
      const std::string id = line.substr(i, j - i);
      const int slot = fused_slot(id);
      if (slot >= 0 && static_cast<std::size_t>(slot) < params.size() &&
          params[static_cast<std::size_t>(slot)].ndim >= 1 &&
          i != store_base_pos) {
        params[static_cast<std::size_t>(slot)].access.read = true;
      }
      i = j;
    }
  }
}

std::string fused_cache_key(
    const std::vector<ParamSig>& params, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& predefined) {
  std::string key;
  for (const auto& p : params) {
    key += p.name + ":" + p.type_name + ":" + std::to_string(p.ndim) + ":" +
           std::to_string(static_cast<int>(p.flag)) + ":" +
           (p.access.read ? "r" : "-") + (p.access.written ? "w" : "-") + ";";
  }
  key += "|" + body + "|";
  for (const auto& pv : predefined) key += pv.first + "=" + pv.second + ";";
  return key;
}

CachedKernel* intern_fused(Runtime& rt, std::vector<ParamSig> params,
                           const std::string& body,
                           std::vector<std::pair<std::string, std::string>>
                               predefined) {
  finalize_read_flags(params, body);
  const std::string key = fused_cache_key(params, body, predefined);
  CachedKernel* ck = rt.find_fused_kernel(key);
  if (ck != nullptr) return ck;
  CachedKernel fresh;
  fresh.name = "hpl_fused_" + hex16(fnv1a(key));
  fresh.params = std::move(params);
  fresh.body = body;
  fresh.predefined = std::move(predefined);
  fresh.source = generate_kernel_source(fresh.name, fresh.params, fresh.body,
                                        fresh.predefined);
  return &rt.insert_fused_kernel(key, std::move(fresh));
}

/// Closes a group: one member passes through unchanged; two or more
/// become a single fused kernel.
void close_group(Runtime& rt, Group& g, std::vector<DagNode>& batch,
                 std::vector<DagNode>& out, RewriteTotals& totals) {
  if (g.members.empty()) return;
  if (g.members.size() == 1) {
    out.push_back(std::move(batch[g.members[0]]));
    g = Group{};
    return;
  }
  std::string body;
  for (const auto& s : g.stmts) body += "  " + s + "\n";
  CachedKernel* ck = intern_fused(rt, g.params, body, g.predefined);
  DagNode fused;
  fused.cached = ck;
  fused.dev = g.dev;
  fused.global = g.global;
  fused.local = g.local;
  fused.args = std::move(g.args);
  fused.record = batch[g.members[0]].record;
  out.push_back(std::move(fused));
  totals.rules += g.rules;
  totals.bytes += g.bytes_saved;
  g = Group{};
}

// --- Map-reduce fusion ---------------------------------------------------------

/// Tries to inline the whole group into `node`'s grid-stride loop. On
/// success `out_node` is the fused replacement for group+consumer and the
/// group is consumed; on failure everything is untouched.
bool try_fuse_reduce(Runtime& rt, Group& g,
                     const std::vector<DagNode>& batch, const DagNode& node,
                     const ReduceShape& rs, DagNode& out_node,
                     RewriteTotals& totals) {
  const CachedKernel& ck = *node.cached;
  if (node.dev != g.dev) return false;

  // The group must be idx-pure 1-D over exactly the reduction's domain.
  if (g.global.dims != 1) return false;
  for (const auto& [impl, w] : g.writes) {
    (void)impl;
    if (w.sub != "idx") return false;
  }
  for (const auto& pv : g.predefined) {
    if (pv.first != "idx") return false;
  }
  const ScalarValue& n_arg =
      node.args[static_cast<std::size_t>(rs.n_param)].scalar;
  const std::uint64_t n_value = n_arg.kind == ScalarValue::Kind::I64
                                    ? static_cast<std::uint64_t>(n_arg.i)
                                    : n_arg.u;
  if (n_value == 0 || range_total(g.global) != n_value) return false;

  // Classify the consumer's array parameters against the group.
  for (std::size_t j = 0; j < ck.params.size(); ++j) {
    const ArrayImpl* impl = node.args[j].impl.get();
    if (impl == nullptr) continue;
    const bool in_group = g.slot.count(impl) != 0;
    const bool group_written = g.writes.count(impl) != 0;
    if (ck.params[j].access.written && in_group) return false;
    if (!group_written) continue;
    // Every mention of this parameter must be a `pj[SUB]` load inside the
    // grid-stride loop (exactly the per-element consumption the group's
    // in-loop store precedes).
    const std::string pname = "p" + std::to_string(j);
    for (std::size_t li = 0; li < rs.raw_lines.size(); ++li) {
      const std::string& line = rs.raw_lines[li];
      std::size_t i = 0;
      while (i < line.size()) {
        if (!ident_start(line[i])) {
          ++i;
          continue;
        }
        std::size_t e = i + 1;
        while (e < line.size() && ident_char(line[e])) ++e;
        if (line.compare(i, e - i, pname) == 0) {
          if (li <= rs.loop_line || li >= rs.loop_end) return false;
          if (e >= line.size() || line[e] != '[') return false;
          const std::size_t close = match_bracket(line, e);
          if (close == std::string::npos ||
              line.substr(e + 1, close - e - 1) != rs.sub_var) {
            return false;
          }
          i = close + 1;
          continue;
        }
        i = e;
      }
    }
  }

  // Merge the consumer's parameters into the fused table.
  auto params = g.params;
  auto args = g.args;
  auto slot = g.slot;
  std::map<std::string, std::string> rn;
  for (std::size_t j = 0; j < ck.params.size(); ++j) {
    std::size_t s;
    if (node.args[j].impl != nullptr) {
      const ArrayImpl* key = node.args[j].impl.get();
      auto it = slot.find(key);
      if (it != slot.end()) {
        s = it->second;
        if (params[s].type_name != ck.params[j].type_name ||
            params[s].ndim != ck.params[j].ndim) {
          return false;
        }
        params[s].access.written =
            params[s].access.written || ck.params[j].access.written;
      } else {
        s = params.size();
        ParamSig ps = ck.params[j];
        ps.name = "f" + std::to_string(s);
        params.push_back(std::move(ps));
        args.push_back(node.args[j]);
        slot.emplace(key, s);
      }
    } else {
      s = params.size();
      ParamSig ps = ck.params[j];
      ps.name = "f" + std::to_string(s);
      params.push_back(std::move(ps));
      args.push_back(node.args[j]);
    }
    rn["p" + std::to_string(j)] = params[s].name;
  }

  // Rename the consumer body, splice the group's statements into the
  // loop (idx -> the loop's stride variable), and fold the now-local
  // loads into the group temporaries.
  std::map<std::string, std::string> group_temps;  // fused name -> temp
  for (const auto& [impl, w] : g.writes) {
    group_temps["f" + std::to_string(g.slot.at(impl))] = w.temp;
  }
  std::uint64_t reduce_bytes = 0;
  std::vector<std::string> lines;
  lines.reserve(rs.raw_lines.size() + g.stmts.size());
  const std::string loop_indent_s =
      rs.raw_lines[rs.loop_line].substr(
          0, rs.raw_lines[rs.loop_line].find_first_not_of(' '));
  for (std::size_t li = 0; li < rs.raw_lines.size(); ++li) {
    std::string line = rename_idents(rs.raw_lines[li], rn);
    if (li > rs.loop_line && li < rs.loop_end) {
      // Fold loads of group-written arrays at [SUB] into the temporaries.
      for (bool changed = true; changed;) {
        changed = false;
        for (const auto& acc : find_accesses(line, 'f')) {
          const std::string base = "f" + std::to_string(acc.slot);
          auto it = group_temps.find(base);
          if (it == group_temps.end() || acc.sub != rs.sub_var) continue;
          const ArrayImpl* impl = args[static_cast<std::size_t>(acc.slot)]
                                      .impl.get();
          reduce_bytes += n_value * impl->elem_size;
          line = line.substr(0, acc.pos) + it->second + line.substr(acc.end);
          changed = true;
          break;
        }
      }
    }
    lines.push_back(std::move(line));
    if (li == rs.loop_line) {
      std::map<std::string, std::string> to_sub{{"idx", rs.sub_var}};
      for (const auto& s : g.stmts) {
        lines.push_back(loop_indent_s + "  " + rename_idents(s, to_sub));
      }
    }
  }
  std::string body;
  for (const auto& l : lines) body += l + "\n";

  auto predefined = ck.predefined;
  merge_predefined(predefined, g.predefined);
  CachedKernel* fused_ck =
      intern_fused(rt, std::move(params), body, std::move(predefined));

  out_node = DagNode{};
  out_node.cached = fused_ck;
  out_node.dev = node.dev;
  out_node.global = node.global;
  out_node.local = node.local;
  out_node.args = std::move(args);
  out_node.record = batch[g.members[0]].record;
  totals.rules += g.rules + g.members.size();  // one rule per map inlined
  totals.bytes += g.bytes_saved + reduce_bytes;
  g = Group{};
  return true;
}

// --- Dead-temporary elimination ------------------------------------------------

/// Store subscript normalised across capture namespaces: the LHS param
/// becomes "@W"; any other parameter mention disqualifies (its name would
/// not be comparable between producer and consumer).
std::optional<std::string> normalize_own_sub(const std::string& sub,
                                             int lhs_param) {
  const std::string own = "p" + std::to_string(lhs_param);
  std::string out;
  std::size_t i = 0;
  while (i < sub.size()) {
    if (!ident_start(sub[i])) {
      out += sub[i++];
      continue;
    }
    std::size_t j = i + 1;
    while (j < sub.size() && ident_char(sub[j])) ++j;
    const std::string id = sub.substr(i, j - i);
    if (id == own) {
      out += "@W";
    } else if (id.compare(0, own.size(), own) == 0 &&
               id.size() > own.size() && id[own.size()] == '_') {
      out += "@W" + id.substr(own.size());
    } else if (param_index_of(id) >= 0 ||
               (id[0] == 'p' && id.find("_d") != std::string::npos)) {
      return std::nullopt;  // foreign parameter: not comparable
    } else {
      out += id;  // predefined variable (idx, idy, ...)
    }
    i = j;
  }
  return out;
}

/// Does the consumer statement read `W` anywhere (RHS or subscript)?
bool stmt_reads_impl(const DagNode& node, const MapStmt& ms,
                     const ArrayImpl* W) {
  const std::string text = ms.sub + " " + ms.rhs;
  for (const auto& acc : find_accesses(text, 'p')) {
    if (static_cast<std::size_t>(acc.slot) < node.args.size() &&
        node.args[static_cast<std::size_t>(acc.slot)].impl.get() == W) {
      return true;
    }
  }
  // A bare mention (no subscript) cannot read elements, but be
  // conservative: any identifier bound to W counts.
  std::size_t i = 0;
  while (i < text.size()) {
    if (!ident_start(text[i])) {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < text.size() && ident_char(text[j])) ++j;
    const int idx = param_index_of(text.substr(i, j - i));
    if (idx >= 0 && static_cast<std::size_t>(idx) < node.args.size() &&
        node.args[static_cast<std::size_t>(idx)].impl.get() == W) {
      return true;
    }
    i = j;
  }
  return false;
}

std::uint64_t map_traffic_bytes(const DagNode& node, const MapStmt& ms) {
  const std::size_t total = range_total(node.global);
  const ArrayImpl* W =
      node.args[static_cast<std::size_t>(ms.lhs_param)].impl.get();
  std::uint64_t bytes = total * W->elem_size;  // the store
  for (const auto& acc : find_accesses(ms.rhs, 'p')) {
    if (static_cast<std::size_t>(acc.slot) >= node.args.size()) continue;
    const ArrayImpl* impl =
        node.args[static_cast<std::size_t>(acc.slot)].impl.get();
    if (impl != nullptr) bytes += total * impl->elem_size;
  }
  return bytes;
}

/// Drops maps whose output the immediately-following map fully overwrites
/// (same array, same store site, same range) without reading it.
void dead_temp_pass(std::vector<DagNode>& batch, RewriteTotals& totals) {
  std::size_t i = 0;
  while (i + 1 < batch.size()) {
    const auto mp = parse_simple_map(batch[i]);
    const auto mc = parse_simple_map(batch[i + 1]);
    bool drop = false;
    if (mp.has_value() && mc.has_value()) {
      const DagNode& P = batch[i];
      const DagNode& C = batch[i + 1];
      const ArrayImpl* W =
          P.args[static_cast<std::size_t>(mp->lhs_param)].impl.get();
      if (C.args[static_cast<std::size_t>(mc->lhs_param)].impl.get() == W &&
          P.dev == C.dev && ranges_equal(P.global, C.global)) {
        const auto sp = normalize_own_sub(mp->sub, mp->lhs_param);
        const auto sc = normalize_own_sub(mc->sub, mc->lhs_param);
        if (sp.has_value() && sc.has_value() && *sp == *sc &&
            !stmt_reads_impl(C, *mc, W)) {
          drop = true;
        }
      }
    }
    if (drop) {
      totals.rules += 1;
      totals.bytes += map_traffic_bytes(batch[i], *mp);
      batch.erase(batch.begin() +
                  static_cast<std::vector<DagNode>::difference_type>(i));
      if (i > 0) --i;  // the drop may have created a new adjacency behind
    } else {
      ++i;
    }
  }
}

// --- The rewrite driver --------------------------------------------------------

void rewrite_batch(Runtime& rt, std::vector<DagNode>& batch,
                   std::vector<DagNode>& out, RewriteTotals& totals) {
  dead_temp_pass(batch, totals);
  Group g;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    DagNode& node = batch[i];
    const auto ms = parse_simple_map(node);
    if (ms.has_value()) {
      if (try_append(g, i, node, *ms)) continue;
      close_group(rt, g, batch, out, totals);
      if (!try_append(g, i, node, *ms)) {
        out.push_back(std::move(node));  // cannot even self-start (paranoia)
      }
      continue;
    }
    if (!g.members.empty()) {
      const auto rs = parse_reduce(node);
      if (rs.has_value()) {
        DagNode fused;
        if (try_fuse_reduce(rt, g, batch, node, *rs, fused, totals)) {
          out.push_back(std::move(fused));
          continue;
        }
      }
    }
    close_group(rt, g, batch, out, totals);
    out.push_back(std::move(node));
  }
  close_group(rt, g, batch, out, totals);
}

}  // namespace

// --- Public/driver entry points ------------------------------------------------

void record_node(DagNode node) {
  Dag& d = dag();
  std::lock_guard<std::mutex> lock(d.mutex);
  d.nodes.push_back(std::move(node));
  d.pending.store(d.nodes.size(), std::memory_order_release);
}

void flush_dag() {
  Dag& d = dag();
  if (d.pending.load(std::memory_order_acquire) == 0) return;
  if (tl_in_flush) return;  // forcing point reached from inside a launch
  std::lock_guard<std::mutex> flush_lock(d.flush_mutex);
  std::vector<DagNode> batch;
  {
    std::lock_guard<std::mutex> lock(d.mutex);
    batch.swap(d.nodes);
    d.pending.store(0, std::memory_order_release);
  }
  if (batch.empty()) return;
  tl_in_flush = true;
  struct FlushGuard {
    ~FlushGuard() { tl_in_flush = false; }
  } guard;

  Runtime& rt = Runtime::get();
  const std::size_t unfused = batch.size();
  RewriteTotals totals;
  std::vector<DagNode> final_nodes;
  final_nodes.reserve(batch.size());
  rewrite_batch(rt, batch, final_nodes, totals);

  {
    namespace metrics = hplrepro::metrics;
    static auto& flushes = metrics::counter("fusion.dag_flushes");
    static auto& unfused_c = metrics::counter("fusion.unfused_launches");
    static auto& actual_c = metrics::counter("fusion.actual_launches");
    static auto& saved_c = metrics::counter("fusion.launches_saved");
    static auto& rules_c = metrics::counter("fusion.rules_applied");
    static auto& bytes_c = metrics::counter("fusion.bytes_traffic_saved");
    flushes.add(1);
    unfused_c.add(unfused);
    actual_c.add(final_nodes.size());
    saved_c.add(unfused - final_nodes.size());
    rules_c.add(totals.rules);
    bytes_c.add(totals.bytes);
  }

  // Launch everything; like the async queue, the first error surfaces
  // after the whole batch has been submitted (the user-side effects of
  // the later evals already happened when they were recorded).
  std::exception_ptr first_error;
  for (auto& node : final_nodes) {
    try {
      launch_node(rt, node);
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

void apply_fusion_build_option(bool enabled) { set_fusion_enabled(enabled); }

void set_fusion_sabotage_for_test(bool on) {
  sabotage_flag().store(on, std::memory_order_relaxed);
}

}  // namespace detail

void flush() { detail::flush_dag(); }

void set_fusion_enabled(bool enabled) {
  // Flush first so the toggle is a clean seam: nodes recorded before it
  // fuse (or not) under the old setting; later evals see the new one.
  detail::flush_dag();
  detail::runtime_enabled().store(enabled, std::memory_order_relaxed);
}

bool fusion_enabled() {
  return detail::runtime_enabled().load(std::memory_order_relaxed);
}

}  // namespace HPL
