#include "clc/wgloops.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace hplrepro::clc {

namespace {

bool op_between(RegOp op, RegOp lo, RegOp hi) {
  return static_cast<int>(op) >= static_cast<int>(lo) &&
         static_cast<int>(op) <= static_cast<int>(hi);
}

/// Calls `use` for every register the instruction reads. Mirrors the
/// operand conventions documented on RegInstr (bytecode.hpp) and the
/// dispatch cases in vm.cpp.
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
    use(in.a);
    return;
  }
  if (op == RegOp::PtrAdd ||
      op_between(op, RegOp::StoreI8, RegOp::StoreF64) ||
      op_between(op, RegOp::LIdxI8, RegOp::LIdxF64) ||
      op_between(op, RegOp::AddI, RegOp::GeD)) {
    use(in.a);
    use(in.b);
    return;
  }
  if (op_between(op, RegOp::SIdxI8, RegOp::SIdxF64) ||
      op_between(op, RegOp::MadI, RegOp::MadD)) {
    use(in.a);
    use(in.b);
    use(in.c);
    return;
  }
  if (op == RegOp::Call) {
    const RegFunction& callee =
        module.reg_functions[static_cast<std::size_t>(in.aux)];
    for (std::size_t i = 0; i < callee.num_params; ++i) {
      use(static_cast<std::uint16_t>(in.a + i));
    }
    return;
  }
  if (op == RegOp::BuiltinFn) {
    for (int i = 0; i < in.b; ++i) {
      use(static_cast<std::uint16_t>(in.a + i));
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

/// Dense per-block register set.
struct RegSet {
  std::vector<std::uint64_t> words;

  explicit RegSet(std::size_t nregs) : words((nregs + 63) / 64, 0) {}
  void set(std::size_t r) { words[r / 64] |= 1ull << (r % 64); }
  void clear(std::size_t r) { words[r / 64] &= ~(1ull << (r % 64)); }
  bool test(std::size_t r) const {
    return (words[r / 64] >> (r % 64)) & 1u;
  }
  /// this |= (other & ~mask); returns true if this changed.
  bool or_minus(const RegSet& other, const RegSet& mask) {
    bool changed = false;
    for (std::size_t w = 0; w < words.size(); ++w) {
      const std::uint64_t add = other.words[w] & ~mask.words[w];
      if (add & ~words[w]) changed = true;
      words[w] |= add;
    }
    return changed;
  }
  bool or_with(const RegSet& other) {
    bool changed = false;
    for (std::size_t w = 0; w < words.size(); ++w) {
      if (other.words[w] & ~words[w]) changed = true;
      words[w] |= other.words[w];
    }
    return changed;
  }
};

WgInfo analyze_kernel(const Module& module, std::size_t index) {
  WgInfo info;
  const RegFunction& fn = module.reg_functions[index];
  if (fn.blocks.empty() || fn.code.empty()) return info;
  if (callee_has_barrier(module, index)) return info;
  // Defensive: a barrier the front end did not record means the executor
  // would take the fast path and trap; keep per-item semantics for it.
  if (has_direct_barrier(fn) && !module.functions[index].uses_barrier) {
    return info;
  }

  const std::size_t nblocks = fn.blocks.size();
  const std::size_t nregs = fn.num_regs;

  // Block instruction ranges and successors from the explicit terminators
  // lower_module emits (every block ends in Br/BrIf/Ret/RetVoid/Barrier).
  std::vector<std::vector<std::uint32_t>> succ(nblocks);
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::uint32_t begin = fn.blocks[b].start;
    const std::uint32_t end = b + 1 < nblocks
                                  ? fn.blocks[b + 1].start
                                  : static_cast<std::uint32_t>(fn.code.size());
    if (end <= begin || end > fn.code.size()) return info;  // malformed
    const RegInstr& term = fn.code[end - 1];
    if (!is_terminator(term.op)) return info;  // malformed
    switch (term.op) {
      case RegOp::Br:
      case RegOp::Barrier:
        succ[b].push_back(static_cast<std::uint32_t>(term.aux));
        break;
      case RegOp::BrIf:
        succ[b].push_back(term.dst);
        succ[b].push_back(static_cast<std::uint32_t>(term.aux));
        break;
      default:  // Ret / RetVoid
        break;
    }
    for (const std::uint32_t s : succ[b]) {
      if (s >= nblocks) return info;  // malformed
    }
  }

  // Per-block use (read before any write, forward scan) and def sets.
  std::vector<RegSet> use_set(nblocks, RegSet(nregs));
  std::vector<RegSet> def_set(nblocks, RegSet(nregs));
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::uint32_t begin = fn.blocks[b].start;
    const std::uint32_t end = b + 1 < nblocks
                                  ? fn.blocks[b + 1].start
                                  : static_cast<std::uint32_t>(fn.code.size());
    for (std::uint32_t i = begin; i < end; ++i) {
      const RegInstr& in = fn.code[i];
      for_each_use(module, in, [&](std::uint16_t r) {
        if (r < nregs && !def_set[b].test(r)) use_set[b].set(r);
      });
      const int d = def_reg(in);
      if (d >= 0 && static_cast<std::size_t>(d) < nregs) {
        def_set[b].set(static_cast<std::size_t>(d));
      }
    }
  }

  // Backward worklist liveness to a fixpoint:
  //   live_out[b] = U live_in[s],  live_in[b] = use[b] | (live_out[b] - def[b])
  std::vector<RegSet> live_in(nblocks, RegSet(nregs));
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t bi = nblocks; bi-- > 0;) {
      RegSet out(nregs);
      for (const std::uint32_t s : succ[bi]) out.or_with(live_in[s]);
      if (live_in[bi].or_minus(out, def_set[bi])) changed = true;
      if (live_in[bi].or_with(use_set[bi])) changed = true;
    }
  }

  // Region entries: block 0 (kernel entry, also each item's first region)
  // plus every barrier's resume block. The spill set is the union of the
  // registers live at any of them — restored per item at region entry,
  // saved at every barrier.
  RegSet live_union(nregs);
  live_union.or_with(live_in[0]);
  std::uint32_t regions = 1;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::uint32_t end = b + 1 < nblocks
                                  ? fn.blocks[b + 1].start
                                  : static_cast<std::uint32_t>(fn.code.size());
    const RegInstr& term = fn.code[end - 1];
    if (term.op == RegOp::Barrier) {
      // The VM treats pending block 0 as "fresh item" (restore from the
      // argument image); lower_module never resumes at the entry block, so
      // a kernel that somehow does is left on the per-item path.
      if (term.aux == 0) return info;
      ++regions;
      live_union.or_with(live_in[static_cast<std::size_t>(term.aux)]);
    }
  }

  info.eligible = true;
  info.region_count = regions;

  // Registers no instruction ever writes hold the same value for every
  // item all launch long — kernel arguments (parameters occupy registers
  // 0..num_params-1), the constant pool and never-assigned zeros. The VM
  // installs them once per group; they need no spill slots.
  RegSet uniform(nregs);
  for (std::size_t r = 0; r < nregs; ++r) uniform.set(r);
  for (const RegInstr& in : fn.code) {
    const int d = def_reg(in);
    if (d >= 0 && static_cast<std::size_t>(d) < nregs) {
      uniform.clear(static_cast<std::size_t>(d));
    }
  }

  std::vector<std::uint16_t> column(nregs, 0);
  for (std::size_t r = 0; r < nregs; ++r) {
    if (live_union.test(r) && !uniform.test(r)) {
      column[r] = static_cast<std::uint16_t>(info.live_regs.size());
      info.live_regs.push_back(static_cast<std::uint16_t>(r));
    }
  }

  const auto block_end = [&](std::size_t b) {
    return b + 1 < nblocks ? fn.blocks[b + 1].start
                           : static_cast<std::uint32_t>(fn.code.size());
  };
  const auto is_barrier_block = [&](std::size_t b) {
    return fn.code[block_end(b) - 1].op == RegOp::Barrier;
  };

  // Region entries: block 0 plus every barrier resume block.
  info.entry_index.assign(nblocks, -1);
  std::vector<std::size_t> entries;
  const auto add_entry = [&](std::size_t b) {
    if (info.entry_index[b] >= 0) return;
    info.entry_index[b] = static_cast<std::int32_t>(entries.size());
    entries.push_back(b);
  };
  add_entry(0);
  for (std::size_t b = 0; b < nblocks; ++b) {
    if (is_barrier_block(b)) {
      add_entry(static_cast<std::size_t>(fn.code[block_end(b) - 1].aux));
    }
  }

  // What a barrier resuming at entry A must save: registers *defined* in
  // some region that reaches such a barrier (walk each region — blocks
  // reachable from its entry without crossing a barrier — and credit its
  // defs to every resume block its barriers target). Region 0 contributes
  // everything it keeps live as well, because its items' spill rows are
  // still unwritten (entry 0 restores from the argument image instead).
  std::vector<RegSet> save_set(entries.size(), RegSet(nregs));
  for (const std::size_t entry : entries) {
    RegSet defs(nregs);
    std::vector<std::size_t> resumes;
    std::vector<char> visited(nblocks, 0);
    std::vector<std::size_t> stack{entry};
    visited[entry] = 1;
    while (!stack.empty()) {
      const std::size_t b = stack.back();
      stack.pop_back();
      defs.or_with(def_set[b]);
      if (is_barrier_block(b)) {
        resumes.push_back(
            static_cast<std::size_t>(fn.code[block_end(b) - 1].aux));
        continue;  // the region ends at the barrier
      }
      for (const std::uint32_t s : succ[b]) {
        if (!visited[s]) {
          visited[s] = 1;
          stack.push_back(s);
        }
      }
    }
    if (entry == 0) defs.or_with(live_in[0]);
    for (const std::size_t a : resumes) {
      save_set[static_cast<std::size_t>(info.entry_index[a])].or_with(defs);
    }
  }

  // Emit the (register, column) lists: restore = the item-varying
  // registers live into the entry; save = the subset a resuming barrier
  // must write back.
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const std::size_t b = entries[e];
    std::vector<std::pair<std::uint16_t, std::uint16_t>> restore;
    std::vector<std::pair<std::uint16_t, std::uint16_t>> save;
    for (std::size_t r = 0; r < nregs; ++r) {
      if (!live_in[b].test(r) || uniform.test(r)) continue;
      restore.emplace_back(static_cast<std::uint16_t>(r), column[r]);
      if (save_set[e].test(r)) {
        save.emplace_back(static_cast<std::uint16_t>(r), column[r]);
      }
    }
    info.entry_lists.push_back(std::move(restore));
    info.save_lists.push_back(std::move(save));
  }
  return info;
}

}  // namespace

void analyze_wg_loops(Module& module) {
  if (!module.has_reg_form()) return;
  module.wg_info.clear();
  module.wg_info.reserve(module.functions.size());
  for (std::size_t i = 0; i < module.functions.size(); ++i) {
    if (module.functions[i].is_kernel) {
      module.wg_info.push_back(analyze_kernel(module, i));
    } else {
      module.wg_info.emplace_back();  // helpers run inside a region
    }
  }
}

}  // namespace hplrepro::clc
