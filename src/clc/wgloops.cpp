#include "clc/wgloops.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <unordered_map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "clc/builtins.hpp"

namespace hplrepro::clc {

namespace {

bool op_between(RegOp op, RegOp lo, RegOp hi) {
  return static_cast<int>(op) >= static_cast<int>(lo) &&
         static_cast<int>(op) <= static_cast<int>(hi);
}

/// Which operand field a register use sits in. Call and BuiltinFn read a
/// contiguous register range, which renaming cannot rewrite.
enum class Slot : std::uint8_t { A, B, C, Range };

/// Calls `use(slot, reg)` for every register the instruction reads.
/// Mirrors the operand conventions documented on RegInstr (bytecode.hpp)
/// and the dispatch cases in vm.cpp.
template <class UseFn>
void for_each_use(const Module& module, const RegInstr& in, UseFn use) {
  const RegOp op = in.op;
  if (op == RegOp::PrivPtr || op == RegOp::Br || op == RegOp::RetVoid) {
    return;
  }
  if (op == RegOp::Mov || op == RegOp::WorkItem || op == RegOp::BrIf ||
      op == RegOp::Ret || op == RegOp::Barrier ||
      op_between(op, RegOp::LoadI8, RegOp::LoadF64) ||
      op_between(op, RegOp::NegI, RegOp::D2F)) {
    use(Slot::A, in.a);
    return;
  }
  if (op == RegOp::PtrAdd ||
      op_between(op, RegOp::StoreI8, RegOp::StoreF64) ||
      op_between(op, RegOp::LIdxI8, RegOp::LIdxF64) ||
      op_between(op, RegOp::AddI, RegOp::GeD)) {
    use(Slot::A, in.a);
    use(Slot::B, in.b);
    return;
  }
  if (op_between(op, RegOp::SIdxI8, RegOp::SIdxF64) ||
      op_between(op, RegOp::MadI, RegOp::MadD)) {
    use(Slot::A, in.a);
    use(Slot::B, in.b);
    use(Slot::C, in.c);
    return;
  }
  if (op == RegOp::Call) {
    const RegFunction& callee =
        module.reg_functions[static_cast<std::size_t>(in.aux)];
    for (std::size_t i = 0; i < callee.num_params; ++i) {
      use(Slot::Range, static_cast<std::uint16_t>(in.a + i));
    }
    return;
  }
  if (op == RegOp::BuiltinFn) {
    for (int i = 0; i < in.b; ++i) {
      use(Slot::Range, static_cast<std::uint16_t>(in.a + i));
    }
    return;
  }
}

/// The register the instruction writes, or -1.
int def_reg(const RegInstr& in) {
  const RegOp op = in.op;
  if (op == RegOp::Mov || op == RegOp::PrivPtr || op == RegOp::PtrAdd ||
      op == RegOp::WorkItem ||
      op == RegOp::BuiltinFn ||
      op_between(op, RegOp::LoadI8, RegOp::LoadF64) ||
      op_between(op, RegOp::LIdxI8, RegOp::LIdxF64) ||
      op_between(op, RegOp::AddI, RegOp::GeD) ||
      op_between(op, RegOp::NegI, RegOp::D2F) ||
      op_between(op, RegOp::MadI, RegOp::MadD)) {
    return in.dst;
  }
  if (op == RegOp::Call && in.b != 0) {
    return in.dst;
  }
  return -1;
}

/// May the instruction run once per group instead of once per item, given
/// group-uniform operands? Pure and non-trapping only: ALU ops, compares,
/// moves, address arithmetic, Mad and conversions (which saturate, see
/// fold.hpp), and the work-item queries whose answer is the same for the
/// whole group. Never memory, calls, barriers, PrivPtr or the item ids.
bool hoistable_op(const RegInstr& in) {
  const RegOp op = in.op;
  if (op == RegOp::WorkItem) {
    switch (static_cast<Builtin>(in.aux)) {
      case Builtin::GetWorkDim:
      case Builtin::GetGroupId:
      case Builtin::GetGlobalSize:
      case Builtin::GetLocalSize:
      case Builtin::GetNumGroups:
        return true;
      default:
        return false;
    }
  }
  return op == RegOp::Mov || op == RegOp::PtrAdd ||
         op_between(op, RegOp::AddI, RegOp::GeD) ||
         op_between(op, RegOp::NegI, RegOp::D2F) ||
         op_between(op, RegOp::MadI, RegOp::MadD);
}

bool is_terminator(RegOp op) {
  return op == RegOp::Br || op == RegOp::BrIf || op == RegOp::Ret ||
         op == RegOp::RetVoid || op == RegOp::Barrier;
}

/// Does this function's own code contain a barrier instruction?
bool has_direct_barrier(const RegFunction& fn) {
  for (const RegInstr& in : fn.code) {
    if (in.op == RegOp::Barrier) return true;
  }
  return false;
}

/// True iff any function transitively callable from `root` (excluding the
/// root itself) contains a barrier. The work-item loop runs calls entirely
/// inside one region, so a barrier inside a callee cannot be a region
/// split point.
bool callee_has_barrier(const Module& module, std::size_t root) {
  std::vector<char> visited(module.reg_functions.size(), 0);
  std::vector<std::size_t> stack{root};
  visited[root] = 1;
  bool first = true;
  while (!stack.empty()) {
    const std::size_t f = stack.back();
    stack.pop_back();
    const RegFunction& fn = module.reg_functions[f];
    if (!first && has_direct_barrier(fn)) return true;
    first = false;
    for (const RegInstr& in : fn.code) {
      if (in.op != RegOp::Call) continue;
      const auto callee = static_cast<std::size_t>(in.aux);
      if (callee >= module.reg_functions.size()) return true;  // malformed
      if (!visited[callee]) {
        visited[callee] = 1;
        if (has_direct_barrier(module.reg_functions[callee])) return true;
        stack.push_back(callee);
      }
    }
  }
  return false;
}

/// Fixed-width bit rows (one register set per block) in one allocation:
/// the analysis runs on every compile, so it avoids per-set vectors.
class BitRows {
public:
  BitRows(std::size_t rows, std::size_t bits)
      : words_((bits + 63) / 64), data_(rows * words_, 0) {}
  std::size_t words() const { return words_; }
  std::uint64_t* row(std::size_t r) { return data_.data() + r * words_; }
  const std::uint64_t* row(std::size_t r) const {
    return data_.data() + r * words_;
  }
  void set(std::size_t r, std::size_t bit) {
    row(r)[bit / 64] |= 1ull << (bit % 64);
  }
  bool test(std::size_t r, std::size_t bit) const {
    return (row(r)[bit / 64] >> (bit % 64)) & 1u;
  }

private:
  std::size_t words_;
  std::vector<std::uint64_t> data_;
};

/// Block structure shared by the original kernel and its wg copy (hoisting
/// moves instructions but keeps every block, terminator and edge).
struct Cfg {
  std::size_t nblocks = 0;
  /// Up to two successors per block; a barrier block's only successor is
  /// its resume block.
  std::vector<std::uint32_t> succ_to;  // 2 per block
  std::vector<std::uint8_t> succ_n;
  std::vector<char> barrier_end;  // block ends in Barrier
  /// Region entries: block 0, then every barrier resume block.
  std::vector<std::uint32_t> entries;
  std::vector<std::int32_t> entry_index;  // per block, -1 if not an entry
  /// Per entry: the blocks its region reaches without crossing a barrier.
  std::vector<std::vector<std::uint32_t>> region_blocks;

  std::span<const std::uint32_t> succ(std::size_t b) const {
    return {succ_to.data() + 2 * b, succ_n[b]};
  }
};

/// Half-open instruction range of block b.
std::pair<std::uint32_t, std::uint32_t> block_range(const RegFunction& fn,
                                                    std::size_t b) {
  const std::uint32_t end = b + 1 < fn.blocks.size()
                                ? fn.blocks[b + 1].start
                                : static_cast<std::uint32_t>(fn.code.size());
  return {fn.blocks[b].start, end};
}

/// Builds the Cfg from the explicit terminators lower_module emits (every
/// block ends in Br/BrIf/Ret/RetVoid/Barrier). Returns a reason when the
/// kernel must stay on the per-item path, nullptr on success.
const char* build_cfg(const RegFunction& fn, Cfg& cfg) {
  const std::size_t nblocks = fn.blocks.size();
  cfg.nblocks = nblocks;
  cfg.succ_to.assign(2 * nblocks, 0);
  cfg.succ_n.assign(nblocks, 0);
  cfg.barrier_end.assign(nblocks, 0);
  if (fn.blocks[0].start != 0) return "malformed blocks";
  for (std::size_t b = 0; b < nblocks; ++b) {
    const auto [begin, end] = block_range(fn, b);
    if (end <= begin || end > fn.code.size()) return "malformed blocks";
    const RegInstr& term = fn.code[end - 1];
    if (!is_terminator(term.op)) return "malformed blocks";
    std::uint32_t* to = cfg.succ_to.data() + 2 * b;
    switch (term.op) {
      case RegOp::Barrier:
        cfg.barrier_end[b] = 1;
        [[fallthrough]];
      case RegOp::Br:
        to[0] = static_cast<std::uint32_t>(term.aux);
        cfg.succ_n[b] = 1;
        break;
      case RegOp::BrIf:
        to[0] = term.dst;
        to[1] = static_cast<std::uint32_t>(term.aux);
        cfg.succ_n[b] = 2;
        break;
      default:  // Ret / RetVoid
        break;
    }
    for (const std::uint32_t s : cfg.succ(b)) {
      if (s >= nblocks) return "malformed blocks";
    }
    // The VM treats pending block 0 as "fresh item" (restore from the
    // argument image); lower_module never resumes at the entry block, so
    // a kernel that somehow does is left on the per-item path.
    if (cfg.barrier_end[b] && to[0] == 0) return "resume at entry";
  }

  cfg.entry_index.assign(nblocks, -1);
  const auto add_entry = [&](std::uint32_t b) {
    if (cfg.entry_index[b] >= 0) return;
    cfg.entry_index[b] = static_cast<std::int32_t>(cfg.entries.size());
    cfg.entries.push_back(b);
  };
  add_entry(0);
  for (std::size_t b = 0; b < nblocks; ++b) {
    if (cfg.barrier_end[b]) add_entry(cfg.succ(b)[0]);
  }

  std::vector<char> visited(nblocks);
  std::vector<std::uint32_t> stack;
  for (const std::uint32_t entry : cfg.entries) {
    std::vector<std::uint32_t> blocks;
    std::fill(visited.begin(), visited.end(), char{0});
    stack.assign(1, entry);
    visited[entry] = 1;
    while (!stack.empty()) {
      const std::uint32_t b = stack.back();
      stack.pop_back();
      blocks.push_back(b);
      if (cfg.barrier_end[b]) continue;  // the region ends at the barrier
      for (const std::uint32_t s : cfg.succ(b)) {
        if (!visited[s]) {
          visited[s] = 1;
          stack.push_back(s);
        }
      }
    }
    cfg.region_blocks.push_back(std::move(blocks));
  }
  return nullptr;
}

/// Region heads of entry e, in execution order: blocks every item runs
/// exactly once per phase of the region. The entry heads the chain unless
/// the region branches back to it; each further head is the unconditional
/// Br target of the previous one, with no other predecessor in the region.
/// Loops inside a region therefore end the chain.
std::vector<std::uint32_t> region_heads(const RegFunction& fn, const Cfg& cfg,
                                        std::size_t e,
                                        std::vector<std::uint32_t>& preds) {
  std::fill(preds.begin(), preds.end(), 0u);
  for (const std::uint32_t b : cfg.region_blocks[e]) {
    if (cfg.barrier_end[b]) continue;
    for (const std::uint32_t s : cfg.succ(b)) ++preds[s];
  }
  std::vector<std::uint32_t> heads;
  std::uint32_t b = cfg.entries[e];
  if (preds[b] != 0) return heads;
  for (;;) {
    heads.push_back(b);
    const RegInstr& term = fn.code[block_range(fn, b).second - 1];
    if (term.op != RegOp::Br) break;
    const auto next = static_cast<std::uint32_t>(term.aux);
    if (preds[next] != 1) break;
    b = next;
  }
  return heads;
}

/// Per-block live-in sets of `fn`'s registers: backward dataflow to a
/// fixpoint,
///   live_out[b] = U live_in[s],  live_in[b] = use[b] | (live_out[b] - def[b]).
struct Liveness {
  std::size_t nregs;
  BitRows live_in;

  Liveness(const Module& module, const RegFunction& fn, const Cfg& cfg)
      : nregs(fn.num_regs), live_in(cfg.nblocks, fn.num_regs) {
    const std::size_t words = live_in.words();
    BitRows def(cfg.nblocks, nregs);
    // use = registers read before any write in the block (forward scan).
    BitRows use(cfg.nblocks, nregs);
    for (std::size_t b = 0; b < cfg.nblocks; ++b) {
      const auto [begin, end] = block_range(fn, b);
      for (std::uint32_t i = begin; i < end; ++i) {
        const RegInstr& in = fn.code[i];
        for_each_use(module, in, [&](Slot, std::uint16_t r) {
          if (r < nregs && !def.test(b, r)) use.set(b, r);
        });
        const int d = def_reg(in);
        if (d >= 0 && static_cast<std::size_t>(d) < nregs) {
          def.set(b, static_cast<std::size_t>(d));
        }
      }
    }
    std::vector<std::uint64_t> out(words);
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t b = cfg.nblocks; b-- > 0;) {
        std::fill(out.begin(), out.end(), 0ull);
        for (const std::uint32_t s : cfg.succ(b)) {
          for (std::size_t w = 0; w < words; ++w) out[w] |= live_in.row(s)[w];
        }
        std::uint64_t* in = live_in.row(b);
        for (std::size_t w = 0; w < words; ++w) {
          const std::uint64_t next =
              in[w] | use.row(b)[w] | (out[w] & ~def.row(b)[w]);
          if (next != in[w]) changed = true;
          in[w] = next;
        }
      }
    }
  }

  bool live_out(const Cfg& cfg, std::size_t b, std::size_t r) const {
    for (const std::uint32_t s : cfg.succ(b)) {
      if (live_in.test(s, r)) return true;
    }
    return false;
  }
};

/// The uniformity analysis: decides which instructions move out of the
/// work-item loop into the region prologues, and which results need a
/// fresh register. See DESIGN.md §4b for the rules.
class Hoister {
public:
  Hoister(const Module& module, const RegFunction& fn, const Cfg& cfg,
          const Liveness& live)
      : module_(module), fn_(fn), cfg_(cfg), live_(live), nregs_(fn.num_regs) {
    std::vector<std::uint32_t> preds(cfg.nblocks);
    heads_.reserve(cfg.entries.size());
    for (std::size_t e = 0; e < cfg.entries.size(); ++e) {
      heads_.push_back(region_heads(fn, cfg, e, preds));
    }
  }

  /// Runs the analysis and builds the wg copy of the kernel into `info`.
  void run(WgInfo& info) {
    select();
    emit(info);
  }

private:
  // Starts from every hoistable instruction in a block that is a head of
  // every region containing it, then drops candidates until the rules
  // hold (the set only shrinks, so this terminates):
  //  * each operand is uniform: its register has only hoisted writers
  //    ("kept" registers keep their number), or the block's latest write
  //    to it before the instruction is hoisted;
  //  * a hoisted result whose register also has unhoisted writers moves
  //    to a fresh register, so it must die inside its block (overwritten,
  //    or not live out) and only renamable operand fields may read it;
  //  * within a region's heads, no unhoisted instruction reads a kept
  //    register before a hoisted write to it (the prologue runs first).
  void select() {
    std::vector<std::uint32_t> regions_of(cfg_.nblocks, 0);
    std::vector<std::uint32_t> heads_of(cfg_.nblocks, 0);
    for (std::size_t e = 0; e < cfg_.entries.size(); ++e) {
      for (const std::uint32_t b : cfg_.region_blocks[e]) ++regions_of[b];
      for (const std::uint32_t b : heads_[e]) ++heads_of[b];
    }
    hoisted_.assign(fn_.code.size(), 0);
    kept_.assign(nregs_, 1);
    // Each renamed result takes a register number past num_regs.
    if (nregs_ + fn_.code.size() > 0xFFFF) return;
    for (std::size_t b = 0; b < cfg_.nblocks; ++b) {
      if (heads_of[b] == 0 || heads_of[b] != regions_of[b]) continue;
      const auto [begin, end] = block_range(fn_, b);
      bool any = false;
      for (std::uint32_t i = begin; i < end; ++i) {
        const int d = def_reg(fn_.code[i]);
        if (d >= 0 && static_cast<std::size_t>(d) < nregs_ &&
            hoistable_op(fn_.code[i])) {
          hoisted_[i] = 1;
          any = true;
        }
      }
      if (any) candidate_blocks_.push_back(static_cast<std::uint32_t>(b));
    }
    if (candidate_blocks_.empty()) return;

    last_def_.assign(nregs_, -1);
    bool changed = true;
    while (changed) {
      std::fill(kept_.begin(), kept_.end(), char{1});
      for (std::uint32_t i = 0; i < fn_.code.size(); ++i) {
        const int d = def_reg(fn_.code[i]);
        if (d >= 0 && static_cast<std::size_t>(d) < nregs_ && !hoisted_[i]) {
          kept_[static_cast<std::size_t>(d)] = 0;
        }
      }
      changed = false;
      for (const std::uint32_t b : candidate_blocks_) {
        if (drop_in_block(b)) changed = true;
      }
      if (!changed) changed = drop_premature_writes();
    }
  }

  /// The block's latest hoisted write to r before the scan position whose
  /// result will be renamed, or -1.
  std::int64_t renamed_source(std::uint16_t r) const {
    const std::int32_t j = last_def_[r];
    return j >= 0 && hoisted_[static_cast<std::size_t>(j)] && !kept_[r] ? j
                                                                        : -1;
  }

  bool drop_in_block(std::uint32_t b) {
    bool dropped = false;
    std::fill(last_def_.begin(), last_def_.end(), -1);
    const auto [begin, end] = block_range(fn_, b);
    for (std::uint32_t i = begin; i < end; ++i) {
      const RegInstr& in = fn_.code[i];
      for_each_use(module_, in, [&](Slot slot, std::uint16_t r) {
        if (r >= nregs_) return;
        if (hoisted_[i]) {
          const std::int32_t j = last_def_[r];
          const bool uniform =
              kept_[r] || (j >= 0 && hoisted_[static_cast<std::size_t>(j)]);
          if (!uniform) {
            hoisted_[i] = 0;
            dropped = true;
          }
        } else if (slot == Slot::Range) {
          const std::int64_t j = renamed_source(r);
          if (j >= 0) {
            hoisted_[static_cast<std::size_t>(j)] = 0;
            dropped = true;
          }
        }
      });
      const int d = def_reg(in);
      if (d >= 0 && static_cast<std::size_t>(d) < nregs_) {
        last_def_[static_cast<std::size_t>(d)] = static_cast<std::int32_t>(i);
      }
    }
    // A renamed result must not outlive its block.
    for (std::size_t r = 0; r < nregs_; ++r) {
      const std::int64_t j = renamed_source(static_cast<std::uint16_t>(r));
      if (j >= 0 && live_.live_out(cfg_, b, r)) {
        hoisted_[static_cast<std::size_t>(j)] = 0;
        dropped = true;
      }
    }
    return dropped;
  }

  bool drop_premature_writes() {
    bool dropped = false;
    std::vector<char> read(nregs_);
    for (const std::vector<std::uint32_t>& heads : heads_) {
      std::fill(read.begin(), read.end(), char{0});
      for (const std::uint32_t b : heads) {
        const auto [begin, end] = block_range(fn_, b);
        for (std::uint32_t i = begin; i < end; ++i) {
          if (hoisted_[i]) {
            const std::uint16_t r = fn_.code[i].dst;
            if (kept_[r] && read[r]) {
              hoisted_[i] = 0;
              dropped = true;
            }
            continue;
          }
          for_each_use(module_, fn_.code[i], [&](Slot, std::uint16_t r) {
            if (r < nregs_) read[r] = 1;
          });
        }
      }
    }
    return dropped;
  }

  void emit(WgInfo& info) {
    // Fresh registers for renamed results, and their uses rewritten; both
    // stay within one block.
    std::vector<RegInstr> code = fn_.code;
    std::size_t next = nregs_;
    std::vector<std::int32_t> fresh(nregs_, -1);
    for (const std::uint32_t b : candidate_blocks_) {
      std::fill(fresh.begin(), fresh.end(), -1);
      const auto [begin, end] = block_range(fn_, b);
      for (std::uint32_t i = begin; i < end; ++i) {
        RegInstr& in = code[i];
        const auto rename = [&](std::uint16_t& reg) {
          if (reg < nregs_ && fresh[reg] >= 0) {
            reg = static_cast<std::uint16_t>(fresh[reg]);
          }
        };
        for_each_use(module_, fn_.code[i], [&](Slot slot, std::uint16_t) {
          switch (slot) {
            case Slot::A: rename(in.a); break;
            case Slot::B: rename(in.b); break;
            case Slot::C: rename(in.c); break;
            case Slot::Range: break;  // never reads a renamed result
          }
        });
        const int d = def_reg(fn_.code[i]);
        if (d < 0 || static_cast<std::size_t>(d) >= nregs_) continue;
        const auto r = static_cast<std::size_t>(d);
        if (hoisted_[i] && !kept_[r]) {
          fresh[r] = static_cast<std::int32_t>(next);
          in.dst = static_cast<std::uint16_t>(next++);
        } else {
          fresh[r] = -1;
        }
      }
    }

    RegFunction& w = info.fn;
    w.num_regs = static_cast<std::uint16_t>(next);
    w.num_params = fn_.num_params;
    w.private_bytes = fn_.private_bytes;
    w.blocks = fn_.blocks;
    w.code.reserve(fn_.code.size());
    for (std::size_t b = 0; b < cfg_.nblocks; ++b) {
      w.blocks[b].start = static_cast<std::uint32_t>(w.code.size());
      const auto [begin, end] = block_range(fn_, b);
      for (std::uint32_t i = begin; i < end; ++i) {
        if (hoisted_[i]) {
          ++info.hoisted;
        } else {
          w.code.push_back(code[i]);
        }
      }
    }

    info.prologue_start.assign(cfg_.entries.size(), -1);
    for (std::size_t e = 0; e < cfg_.entries.size(); ++e) {
      const auto start = static_cast<std::int32_t>(info.prologues.size());
      for (const std::uint32_t b : heads_[e]) {
        const auto [begin, end] = block_range(fn_, b);
        for (std::uint32_t i = begin; i < end; ++i) {
          if (hoisted_[i]) info.prologues.push_back(code[i]);
        }
      }
      if (static_cast<std::int32_t>(info.prologues.size()) == start) continue;
      RegInstr br;
      br.op = RegOp::Br;
      br.aux = static_cast<std::int32_t>(cfg_.entries[e]);
      info.prologues.push_back(br);
      info.prologue_start[e] = start;
    }
  }

  const Module& module_;
  const RegFunction& fn_;
  const Cfg& cfg_;
  const Liveness& live_;  // of the original code
  const std::size_t nregs_;
  std::vector<std::vector<std::uint32_t>> heads_;  // per region entry
  std::vector<std::uint32_t> candidate_blocks_;    // heads of every region

  std::vector<char> hoisted_;         // per instruction
  std::vector<char> kept_;            // per register: no unhoisted writer
  std::vector<std::int32_t> last_def_;  // per register, during a block scan
};

/// The per-item spill set and the per-entry restore/save lists of the wg
/// copy, from the liveness of the original code. The two agree on every
/// register the wg copy still writes: hoisting removes only reads of
/// uniform registers and of renamed results in their own block, and a
/// renamed result never lives past its block. Registers past the original
/// count are renamed results, which only the prologues write.
void compute_spill_lists(const Cfg& cfg, const Liveness& live, WgInfo& info) {
  const RegFunction& fn = info.fn;
  const std::size_t nregs = live.nregs;
  const std::size_t words = live.live_in.words();

  // Registers no block instruction writes hold the same value for every
  // item of a group: kernel arguments (parameters occupy registers
  // 0..num_params-1), the constant pool, never-assigned zeros and the
  // values only the prologues compute. The VM installs or computes them
  // once per group; they need no spill slots.
  std::vector<char> uniform(nregs, 1);
  BitRows def(cfg.nblocks, nregs);  // per block, of the wg copy
  for (std::size_t b = 0; b < cfg.nblocks; ++b) {
    const auto [begin, end] = block_range(fn, b);
    for (std::uint32_t i = begin; i < end; ++i) {
      const int d = def_reg(fn.code[i]);
      if (d >= 0 && static_cast<std::size_t>(d) < nregs) {
        uniform[static_cast<std::size_t>(d)] = 0;
        def.set(b, static_cast<std::size_t>(d));
      }
    }
  }

  // The spill set is the union of the registers live at any region entry
  // — restored per item at region entry, saved at every barrier.
  std::vector<std::uint16_t> column(nregs, 0);
  for (std::size_t r = 0; r < nregs; ++r) {
    if (uniform[r]) continue;
    for (const std::uint32_t entry : cfg.entries) {
      if (live.live_in.test(entry, r)) {
        column[r] = static_cast<std::uint16_t>(info.live_regs.size());
        info.live_regs.push_back(static_cast<std::uint16_t>(r));
        break;
      }
    }
  }

  // What a barrier resuming at entry A must save: registers *defined* in
  // some region that reaches such a barrier (credit each region's defs to
  // every resume block its barriers target). Region 0 contributes
  // everything it keeps live as well, because its items' spill rows are
  // still unwritten (entry 0 restores from the argument image instead).
  BitRows save_set(cfg.entries.size(), nregs);
  std::vector<std::uint64_t> defs(words);
  for (std::size_t e = 0; e < cfg.entries.size(); ++e) {
    std::fill(defs.begin(), defs.end(), 0ull);
    for (const std::uint32_t b : cfg.region_blocks[e]) {
      for (std::size_t w = 0; w < words; ++w) defs[w] |= def.row(b)[w];
    }
    if (cfg.entries[e] == 0) {
      for (std::size_t w = 0; w < words; ++w) defs[w] |= live.live_in.row(0)[w];
    }
    for (const std::uint32_t b : cfg.region_blocks[e]) {
      if (!cfg.barrier_end[b]) continue;
      std::uint64_t* save = save_set.row(
          static_cast<std::size_t>(cfg.entry_index[cfg.succ(b)[0]]));
      for (std::size_t w = 0; w < words; ++w) save[w] |= defs[w];
    }
  }

  // Emit the (register, column) lists: restore = the item-varying
  // registers live into the entry; save = the subset a resuming barrier
  // must write back.
  for (std::size_t e = 0; e < cfg.entries.size(); ++e) {
    const std::uint32_t b = cfg.entries[e];
    std::vector<std::pair<std::uint16_t, std::uint16_t>> restore;
    std::vector<std::pair<std::uint16_t, std::uint16_t>> save;
    for (std::size_t r = 0; r < nregs; ++r) {
      if (!live.live_in.test(b, r) || uniform[r]) continue;
      restore.emplace_back(static_cast<std::uint16_t>(r), column[r]);
      if (save_set.test(e, r)) {
        save.emplace_back(static_cast<std::uint16_t>(r), column[r]);
      }
    }
    info.entry_lists.push_back(std::move(restore));
    info.save_lists.push_back(std::move(save));
  }
}

// --- The lanes rule -----------------------------------------------------------

bool is_memory_op(RegOp op) {
  return op_between(op, RegOp::LoadI8, RegOp::SIdxF64);
}

bool is_store_op(RegOp op) {
  return op_between(op, RegOp::StoreI8, RegOp::StoreF64) ||
         op_between(op, RegOp::SIdxI8, RegOp::SIdxF64);
}

/// Bytes a memory instruction accesses.
std::int64_t access_size(RegOp op) {
  switch (op) {
    case RegOp::LoadI8: case RegOp::LoadU8: case RegOp::StoreI8:
    case RegOp::LIdxI8: case RegOp::LIdxU8: case RegOp::SIdxI8:
      return 1;
    case RegOp::LoadI16: case RegOp::LoadU16: case RegOp::StoreI16:
    case RegOp::LIdxI16: case RegOp::LIdxU16: case RegOp::SIdxI16:
      return 2;
    case RegOp::LoadI64: case RegOp::LoadF64: case RegOp::StoreI64:
    case RegOp::StoreF64: case RegOp::LIdxI64: case RegOp::LIdxF64:
    case RegOp::SIdxI64: case RegOp::SIdxF64:
      return 8;
    default:
      return 4;
  }
}

/// Per function: does it, or anything it calls, contain a memory
/// instruction?
std::vector<char> functions_touching_memory(const Module& module) {
  const std::size_t n = module.reg_functions.size();
  std::vector<char> touches(n, 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t f = 0; f < n; ++f) {
      if (touches[f]) continue;
      for (const RegInstr& in : module.reg_functions[f].code) {
        const bool via_call =
            in.op == RegOp::Call &&
            (static_cast<std::size_t>(in.aux) >= n ||
             touches[static_cast<std::size_t>(in.aux)]);
        if (is_memory_op(in.op) || via_call) {
          touches[f] = 1;
          changed = true;
          break;
        }
      }
    }
  }
  return touches;
}

/// Abstract value of a register at one point of a region. Uniform values
/// are region-invariant: the same for every item and at every point of
/// the region where the register holds them. Lane values are injective
/// across the items of a lane group, whose dim-0 ids are consecutive
/// (WorkGroupVM::prepare checks the launch): the dim-0 global or local id
/// plus or minus uniform values, through integer conversions, or a
/// grid-stride family of such a base (below). `vn` value-numbers both, so
/// equal numbers are equal values for one item.
struct LaneVal {
  enum Kind : std::uint8_t { Varying, Uniform, Lane, Ptr };
  static constexpr std::uint32_t kNoRoot = 0xFFFFFFFFu;
  static constexpr std::uint32_t kPrivate = 0xFFFFFFFEu;

  Kind kind = Varying;
  /// Lane: which id it derives from (Builtin::GetGlobalId/GetLocalId).
  std::uint8_t id = 0;
  /// Uniform: the root register whose value this is, if any. Ptr: the
  /// root the pointer points into (kPrivate for the item's own arena).
  std::uint32_t root = kNoRoot;
  /// Uniform, Lane: the value number. Ptr: the value number of its
  /// lane-injective element index, 0 when the offset is anything else.
  std::uint32_t vn = 0;
  std::int32_t stride = 0;  // Ptr with an index: bytes per element

  bool operator==(const LaneVal&) const = default;
};

/// Decides WgInfo::lanes for every region of a kernel's wg copy: a
/// forward dataflow over each region's blocks classifies every register as
/// uniform, lane-injective or varying, and the region's memory
/// instructions are then checked against the rule (DESIGN.md §4b).
///
/// Grid-stride loops: adding the launch's dim-0 size of the id's kind
/// (get_global_size(0) to a global-id base, get_local_size(0) to a
/// local-id base) keeps a lane value in the family {base + k * size}.
/// Distinct ids of one launch differ by less than that size, so the
/// families of two items never meet; the family is one index for the
/// rule, closed under that addition and the base's own conversion.
class LaneRule {
public:
  LaneRule(const Module& module, const RegFunction& orig, const Cfg& cfg,
           const std::vector<char>& touches_memory, WgInfo& info)
      : module_(module),
        orig_(orig),
        fn_(info.fn),
        cfg_(cfg),
        touches_memory_(touches_memory),
        info_(info),
        nregs_(info.fn.num_regs),
        written_(nregs_, 0),
        base_leaf_(nregs_) {
    for (const RegInstr& in : fn_.code) {
      const int d = def_reg(in);
      if (d >= 0 && static_cast<std::size_t>(d) < nregs_) {
        written_[static_cast<std::size_t>(d)] = 1;
      }
    }
    // Registers no block instruction writes hold one value for the whole
    // phase: the arguments and the constant pool (both roots when used
    // as addresses), prologue results and never-assigned zeros.
    for (std::size_t r = 0; r < nregs_; ++r) {
      if (written_[r]) continue;
      LaneVal& v = base_leaf_[r];
      v.kind = LaneVal::Uniform;
      v.vn = number(kRegLeaf, static_cast<std::int64_t>(r));
      const bool param = r < orig_.num_params;
      const bool pool = r >= orig_.const_base() && r < orig_.num_regs;
      if (param || pool) v.root = static_cast<std::uint32_t>(r);
    }
  }

  void run() {
    const std::size_t entries = cfg_.entries.size();
    info_.lanes.assign(entries, 0);
    info_.scalar_reason.assign(entries, nullptr);
    info_.lane_roots.assign(entries, {});
    for (std::size_t e = 0; e < entries; ++e) {
      std::vector<WgInfo::LaneRoot> roots;
      const char* reason = check_region(e, roots);
      if (reason == nullptr) {
        info_.lanes[e] = 1;
        info_.lane_roots[e] = std::move(roots);
      } else {
        info_.scalar_reason[e] = reason;
      }
    }
  }

private:
  struct Access {
    std::uint32_t root;
    std::uint32_t index;  // 0: not a lane-injective index
    bool store;
  };
  using Key = std::array<std::int64_t, 5>;
  // Value-number keys: an opcode (RegOp) and operand numbers, or one of
  // these leaves and markers.
  static constexpr std::int64_t kRegLeaf = -1;     // (register)
  static constexpr std::int64_t kIdLeaf = -2;      // (builtin id)
  static constexpr std::int64_t kIndexSig = -3;    // (index, stride, size)
  static constexpr std::int64_t kFamily = -4;      // (base, step)
  static constexpr std::int64_t kDimZero = -5;     // a dimension operand of 0

  std::uint32_t number(std::int64_t op, std::int64_t x, std::int64_t y = 0,
                       std::int64_t z = 0, std::int64_t w = 0) {
    const Key key{op, x, y, z, w};
    const auto [it, added] = numbers_.try_emplace(
        key, static_cast<std::uint32_t>(keys_.size() + 1));
    if (added) keys_.push_back(key);
    return it->second;
  }

  const Key& key_of(std::uint32_t vn) const { return keys_[vn - 1]; }

  const LaneVal& value(const std::vector<LaneVal>& state,
                       std::uint16_t r) const {
    static const LaneVal kVarying{};
    if (r >= nregs_) return kVarying;
    if (!written_[r]) return leaf_[r];
    return r < state.size() ? state[r] : kVarying;
  }

  /// A pool register holding 0 (the dimension operand of get_*_id(0)).
  bool is_zero_const(std::uint16_t r) const {
    return !written_[r] && r >= orig_.const_base() && r < orig_.num_regs &&
           orig_.consts[r - orig_.const_base()].u64 == 0;
  }

  /// Is uniform value `vn` the dim-0 size that strides a family of ids of
  /// kind `id`, possibly converted?
  bool is_step(std::uint32_t vn, std::uint8_t id) const {
    const Key& k = key_of(vn);
    const auto op = static_cast<RegOp>(k[0]);
    if (k[0] >= 0 && (op_between(op, RegOp::Sext8, RegOp::Zext32) &&
                      op != RegOp::Zext1)) {
      return is_step(static_cast<std::uint32_t>(k[1]), id);
    }
    const auto size = static_cast<std::int64_t>(
        static_cast<Builtin>(id) == Builtin::GetGlobalId
            ? Builtin::GetGlobalSize
            : Builtin::GetLocalSize);
    return k[0] == static_cast<std::int64_t>(RegOp::WorkItem) &&
           k[1] == size && k[2] == kDimZero;
  }

  /// The family a lane value `x` plus uniform `step` belongs to, or 0.
  std::uint32_t family_after_step(const LaneVal& x, const LaneVal& step) {
    if (!is_step(step.vn, x.id)) return 0;
    const Key& k = key_of(x.vn);
    if (k[0] == kFamily) {
      return k[2] == step.vn ? x.vn : 0;
    }
    return number(kFamily, x.vn, step.vn);
  }

  /// Lane-value merge at a join: a base and its grid-stride family are
  /// the family.
  bool merge_lanes(const LaneVal& a, const LaneVal& b, LaneVal& out) const {
    if (a.kind != LaneVal::Lane || b.kind != LaneVal::Lane || a.id != b.id) {
      return false;
    }
    const auto in_family = [&](const LaneVal& family, const LaneVal& v) {
      const Key& k = key_of(family.vn);
      return k[0] == kFamily && static_cast<std::uint32_t>(k[1]) == v.vn;
    };
    if (in_family(a, b)) {
      out = a;
      return true;
    }
    if (in_family(b, a)) {
      out = b;
      return true;
    }
    return false;
  }

  LaneVal pointer_plus(const LaneVal& base, const LaneVal& index,
                       std::int64_t stride, std::int64_t op) {
    // Element sizes are small; anything else is not a lane index.
    const bool small = stride > 0 && stride <= 0x7FFFFFFF;
    LaneVal out;
    if (base.kind == LaneVal::Uniform && base.root != LaneVal::kNoRoot) {
      out.kind = LaneVal::Ptr;
      out.root = base.root;
      if (index.kind == LaneVal::Lane && small) {
        out.vn = index.vn;
        out.stride = static_cast<std::int32_t>(stride);
      }
    } else if (base.kind == LaneVal::Ptr) {
      out.kind = LaneVal::Ptr;
      out.root = base.root;
    } else if (base.kind == LaneVal::Uniform &&
               index.kind == LaneVal::Uniform) {
      out.kind = LaneVal::Uniform;
      out.vn = number(op, base.vn, index.vn, stride);
    }
    return out;
  }

  LaneVal def_value(const RegInstr& in, const std::vector<LaneVal>& state) {
    const RegOp op = in.op;
    const auto code = static_cast<std::int64_t>(op);
    const LaneVal& a = value(state, in.a);
    LaneVal out;
    switch (op) {
      case RegOp::Mov:
        return a;
      case RegOp::PrivPtr:
        out.kind = LaneVal::Ptr;
        out.root = LaneVal::kPrivate;
        return out;
      case RegOp::PtrAdd:
        return pointer_plus(a, value(state, in.b), in.imm, code);
      case RegOp::WorkItem: {
        const auto id = static_cast<Builtin>(in.aux);
        if ((id == Builtin::GetGlobalId || id == Builtin::GetLocalId) &&
            is_zero_const(in.a)) {
          out.kind = LaneVal::Lane;
          out.id = static_cast<std::uint8_t>(in.aux);
          out.vn = number(kIdLeaf, in.aux);
        } else if (hoistable_op(in) && a.kind == LaneVal::Uniform) {
          out.kind = LaneVal::Uniform;
          out.vn = number(code, in.aux, is_zero_const(in.a) ? kDimZero : a.vn);
        }
        return out;
      }
      case RegOp::AddI:
      case RegOp::SubI: {
        const LaneVal& b = value(state, in.b);
        const bool add = op == RegOp::AddI;
        const LaneVal* lane = nullptr;
        const LaneVal* uniform = nullptr;
        if (a.kind == LaneVal::Lane && b.kind == LaneVal::Uniform) {
          lane = &a;
          uniform = &b;
        } else if (add && a.kind == LaneVal::Uniform &&
                   b.kind == LaneVal::Lane) {
          lane = &b;
          uniform = &a;
        }
        if (lane != nullptr) {
          out.kind = LaneVal::Lane;
          out.id = lane->id;
          out.vn = add ? family_after_step(*lane, *uniform) : 0;
          if (out.vn == 0) out.vn = number(code, lane->vn, uniform->vn);
        } else if (a.kind == LaneVal::Uniform && b.kind == LaneVal::Uniform) {
          out.kind = LaneVal::Uniform;
          out.vn = add ? number(code, std::min(a.vn, b.vn),
                                std::max(a.vn, b.vn))
                       : number(code, a.vn, b.vn);
        }
        return out;
      }
      case RegOp::Sext8: case RegOp::Sext16: case RegOp::Sext32:
      case RegOp::Zext8: case RegOp::Zext16: case RegOp::Zext32:
        // Eight consecutive ids stay distinct modulo 2^8 and above.
        if (a.kind == LaneVal::Lane || a.kind == LaneVal::Uniform) {
          out = a;
          out.root = LaneVal::kNoRoot;
          const Key& k = key_of(a.vn);
          // A family whose base already went through this conversion is
          // closed under it.
          const bool closed = k[0] == kFamily &&
                              key_of(static_cast<std::uint32_t>(k[1]))[0] ==
                                  code;
          if (!closed) out.vn = number(code, a.vn);
        }
        return out;
      default:
        break;
    }
    if (!hoistable_op(in)) return out;
    // Any other pure op of uniform operands is uniform.
    std::int64_t vns[3] = {0, 0, 0};
    bool uniform = true;
    for_each_use(module_, in, [&](Slot slot, std::uint16_t r) {
      const LaneVal& v = value(state, r);
      if (v.kind != LaneVal::Uniform || slot == Slot::Range) {
        uniform = false;
        return;
      }
      vns[static_cast<int>(slot)] = v.vn;
    });
    if (uniform) {
      out.kind = LaneVal::Uniform;
      out.vn = number(code, vns[0], vns[1], vns[2], in.aux ^ in.imm);
    }
    return out;
  }

  void transfer(const RegInstr& in, std::vector<LaneVal>& state) {
    const int d = def_reg(in);
    if (d < 0 || static_cast<std::size_t>(d) >= nregs_) return;
    state[static_cast<std::size_t>(d)] = def_value(in, state);
  }

  /// Where a memory instruction points, as a LaneVal (Ptr, a rooted
  /// Uniform, or untracked).
  LaneVal address(const RegInstr& in, const std::vector<LaneVal>& state) {
    const LaneVal& base = value(state, in.a);
    if (op_between(in.op, RegOp::LIdxI8, RegOp::SIdxF64)) {
      return pointer_plus(base, value(state, in.b), in.imm,
                          static_cast<std::int64_t>(RegOp::PtrAdd));
    }
    return base;
  }

  /// The uniform values region e starts with: base_leaf_, with the
  /// registers its prologue computes evaluated from that prologue.
  void enter_region(std::size_t e) {
    leaf_ = base_leaf_;
    const std::int32_t start = info_.prologue_start[e];
    if (start < 0) return;
    std::vector<LaneVal> none;
    for (std::size_t i = static_cast<std::size_t>(start);
         info_.prologues[i].op != RegOp::Br; ++i) {
      const RegInstr& in = info_.prologues[i];
      leaf_[in.dst] = def_value(in, none);
    }
  }

  /// Runs the dataflow over region e and returns the first rule the
  /// region breaks, or nullptr with its argument roots in `roots`.
  const char* check_region(std::size_t e,
                           std::vector<WgInfo::LaneRoot>& roots) {
    const std::vector<std::uint32_t>& blocks = cfg_.region_blocks[e];
    // A region that stores nothing, and calls nothing that might, cannot
    // race: only accesses to stored roots are constrained.
    bool may_store = false;
    for (const std::uint32_t b : blocks) {
      const auto [begin, end] = block_range(fn_, b);
      for (std::uint32_t i = begin; i < end && !may_store; ++i) {
        const RegInstr& in = fn_.code[i];
        may_store = is_store_op(in.op) ||
                    (in.op == RegOp::Call &&
                     touches_memory_[static_cast<std::size_t>(in.aux)]);
      }
    }
    if (!may_store) return nullptr;
    enter_region(e);
    std::vector<std::int32_t> slot(cfg_.nblocks, -1);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      slot[blocks[i]] = static_cast<std::int32_t>(i);
    }
    std::vector<std::vector<LaneVal>> entry_state(blocks.size());
    entry_state[0].assign(nregs_, LaneVal{});  // blocks[0] is the entry
    std::vector<std::uint32_t> work{cfg_.entries[e]};
    std::vector<LaneVal> state;
    while (!work.empty()) {
      const std::uint32_t b = work.back();
      work.pop_back();
      state = entry_state[static_cast<std::size_t>(slot[b])];
      const auto [begin, end] = block_range(fn_, b);
      for (std::uint32_t i = begin; i < end; ++i) transfer(fn_.code[i], state);
      if (cfg_.barrier_end[b]) continue;
      for (const std::uint32_t s : cfg_.succ(b)) {
        std::vector<LaneVal>& into =
            entry_state[static_cast<std::size_t>(slot[s])];
        if (into.empty()) {
          into = state;
          work.push_back(s);
          continue;
        }
        bool changed = false;
        for (std::size_t r = 0; r < nregs_; ++r) {
          if (into[r] == state[r] || into[r].kind == LaneVal::Varying) {
            continue;
          }
          LaneVal merged;
          if (!merge_lanes(into[r], state[r], merged)) merged = LaneVal{};
          if (merged != into[r]) {
            into[r] = merged;
            changed = true;
          }
        }
        if (changed) work.push_back(s);
      }
    }

    // Classify the region's memory instructions and calls.
    std::vector<Access> accesses;
    bool memory_call = false;
    bool untracked_store = false;
    bool untracked_load = false;
    bool scattered_store = false;
    for (const std::uint32_t b : blocks) {
      state = entry_state[static_cast<std::size_t>(slot[b])];
      const auto [begin, end] = block_range(fn_, b);
      for (std::uint32_t i = begin; i < end; ++i) {
        const RegInstr& in = fn_.code[i];
        if (in.op == RegOp::Call &&
            touches_memory_[static_cast<std::size_t>(in.aux)]) {
          memory_call = true;
        }
        if (is_memory_op(in.op)) {
          const bool store = is_store_op(in.op);
          const LaneVal addr = address(in, state);
          const bool rooted =
              addr.kind == LaneVal::Ptr ||
              (addr.kind == LaneVal::Uniform && addr.root != LaneVal::kNoRoot);
          if (!rooted) {
            (store ? untracked_store : untracked_load) = true;
          } else if (addr.root != LaneVal::kPrivate) {
            // Elements at distinct indices must not overlap.
            const bool injective = addr.kind == LaneVal::Ptr && addr.vn != 0 &&
                                   addr.stride >= access_size(in.op);
            const std::uint32_t index =
                injective ? number(kIndexSig, addr.vn, addr.stride,
                                   access_size(in.op))
                          : 0;
            if (store && index == 0) scattered_store = true;
            accesses.push_back({addr.root, index, store});
          }
        }
        transfer(in, state);
      }
    }

    // The rules, in the order the build log reports the first one broken.
    if (memory_call) return "call to a helper that accesses memory";
    if (untracked_store) return "store through an untracked pointer";
    if (scattered_store) return "store not at a lane-injective index";
    // Every access to a stored root uses the store's index.
    for (const Access& st : accesses) {
      if (!st.store) continue;
      for (const Access& other : accesses) {
        if (other.root == st.root && other.index != st.index) {
          return "access to a stored buffer at another index";
        }
      }
    }
    const bool any_store =
        std::any_of(accesses.begin(), accesses.end(),
                    [](const Access& acc) { return acc.store; });
    if (untracked_load && any_store) {
      return "load through an untracked pointer beside a store";
    }

    // The argument roots, for the launch-time alias check.
    for (const Access& acc : accesses) {
      if (acc.root >= orig_.num_params) continue;
      auto it = std::find_if(roots.begin(), roots.end(),
                             [&](const WgInfo::LaneRoot& r) {
                               return r.param == acc.root;
                             });
      if (it == roots.end()) {
        roots.push_back({static_cast<std::uint16_t>(acc.root), acc.store,
                         acc.index});
        continue;
      }
      it->stored = it->stored || acc.store;
      if (it->index != acc.index) it->index = 0;
    }
    return nullptr;
  }

  const Module& module_;
  const RegFunction& orig_;  // owns the constant pool and parameters
  const RegFunction& fn_;    // the wg copy
  const Cfg& cfg_;
  const std::vector<char>& touches_memory_;
  WgInfo& info_;
  const std::size_t nregs_;
  std::vector<char> written_;  // per register: a block instruction writes it
  // Per unwritten register: its uniform value, in any region and in the
  // region being checked.
  std::vector<LaneVal> base_leaf_;
  std::vector<LaneVal> leaf_;
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = 0;
      for (const std::int64_t v : k) {
        h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001B3ull;
      }
      return static_cast<std::size_t>(h ^ (h >> 29));
    }
  };
  std::unordered_map<Key, std::uint32_t, KeyHash> numbers_;
  std::vector<Key> keys_;  // by value number - 1
};

WgInfo analyze_kernel(const Module& module, std::size_t index,
                      const std::vector<char>& touches_memory) {
  WgInfo info;
  const RegFunction& fn = module.reg_functions[index];
  if (fn.blocks.empty() || fn.code.empty()) {
    info.ineligible_reason = "malformed blocks";
    return info;
  }
  if (callee_has_barrier(module, index)) {
    info.ineligible_reason = "barrier in callee";
    return info;
  }
  // Defensive: a barrier the front end did not record means the executor
  // would take the fast path and trap; keep per-item semantics for it.
  if (has_direct_barrier(fn) && !module.functions[index].uses_barrier) {
    info.ineligible_reason = "unrecorded barrier";
    return info;
  }
  Cfg cfg;
  if (const char* reason = build_cfg(fn, cfg)) {
    info.ineligible_reason = reason;
    return info;
  }

  info.eligible = true;
  info.region_count = static_cast<std::uint32_t>(
      1 + std::count(cfg.barrier_end.begin(), cfg.barrier_end.end(), 1));
  info.entry_index = cfg.entry_index;
  const Liveness live(module, fn, cfg);
  Hoister(module, fn, cfg, live).run(info);
  compute_spill_lists(cfg, live, info);
  LaneRule(module, fn, cfg, touches_memory, info).run();
  return info;
}

}  // namespace

std::string analyze_wg_loops(Module& module) {
  if (!module.has_reg_form()) return {};
  module.wg_info.clear();
  module.wg_info.reserve(module.functions.size());
  std::string log;
  const std::vector<char> touches_memory = functions_touching_memory(module);
  for (std::size_t i = 0; i < module.functions.size(); ++i) {
    if (!module.functions[i].is_kernel) {
      module.wg_info.emplace_back();  // helpers run inside a region
      continue;
    }
    const WgInfo& info =
        module.wg_info.emplace_back(analyze_kernel(module, i, touches_memory));
    if (!log.empty()) log += '\n';
    log += "wg-loops: kernel '" + module.functions[i].name + "': ";
    if (info.eligible) {
      log += std::to_string(info.region_count) + " region(s), hoisted " +
             std::to_string(info.hoisted) + " of " +
             std::to_string(module.reg_functions[i].code.size()) +
             " instructions, lanes in " +
             std::to_string(std::count(info.lanes.begin(), info.lanes.end(),
                                       1)) +
             " of " + std::to_string(info.lanes.size()) + " regions";
      std::string reasons;
      for (std::size_t e = 0; e < info.lanes.size(); ++e) {
        if (info.lanes[e]) continue;
        reasons += reasons.empty() ? " (" : "; ";
        reasons += "region " + std::to_string(e) + ": " +
                   info.scalar_reason[e];
      }
      if (!reasons.empty()) log += reasons + ")";
    } else {
      log += std::string("ineligible (") + info.ineligible_reason + ")";
    }
  }
  return log;
}

}  // namespace hplrepro::clc
