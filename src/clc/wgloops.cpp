#include "clc/wgloops.hpp"

#include <algorithm>
#include <cstddef>
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

WgInfo analyze_kernel(const Module& module, std::size_t index) {
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
  return info;
}

}  // namespace

std::string analyze_wg_loops(Module& module) {
  if (!module.has_reg_form()) return {};
  module.wg_info.clear();
  module.wg_info.reserve(module.functions.size());
  std::string log;
  for (std::size_t i = 0; i < module.functions.size(); ++i) {
    if (!module.functions[i].is_kernel) {
      module.wg_info.emplace_back();  // helpers run inside a region
      continue;
    }
    const WgInfo& info =
        module.wg_info.emplace_back(analyze_kernel(module, i));
    if (!log.empty()) log += '\n';
    log += "wg-loops: kernel '" + module.functions[i].name + "': ";
    if (info.eligible) {
      log += std::to_string(info.region_count) + " region(s), hoisted " +
             std::to_string(info.hoisted) + " of " +
             std::to_string(module.reg_functions[i].code.size()) +
             " instructions";
    } else {
      log += std::string("ineligible (") + info.ineligible_reason + ")";
    }
  }
  return log;
}

}  // namespace hplrepro::clc
