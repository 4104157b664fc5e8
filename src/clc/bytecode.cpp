#include "clc/bytecode.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>

#include "clc/builtins.hpp"
#include "support/error.hpp"

namespace hplrepro::clc {

const char* op_name(Op op) {
  switch (op) {
    case Op::Nop: return "nop";
    case Op::PushI: return "push.i";
    case Op::PushF: return "push.f";
    case Op::PushD: return "push.d";
    case Op::Dup: return "dup";
    case Op::Pop: return "pop";
    case Op::Swap: return "swap";
    case Op::LoadSlot: return "load.slot";
    case Op::StoreSlot: return "store.slot";
    case Op::PtrAdd: return "ptr.add";
    case Op::LocalPtr: return "ptr.local";
    case Op::PrivatePtr: return "ptr.private";
    case Op::LoadI8: return "load.i8";
    case Op::LoadU8: return "load.u8";
    case Op::LoadI16: return "load.i16";
    case Op::LoadU16: return "load.u16";
    case Op::LoadI32: return "load.i32";
    case Op::LoadU32: return "load.u32";
    case Op::LoadI64: return "load.i64";
    case Op::LoadF32: return "load.f32";
    case Op::LoadF64: return "load.f64";
    case Op::StoreI8: return "store.i8";
    case Op::StoreI16: return "store.i16";
    case Op::StoreI32: return "store.i32";
    case Op::StoreI64: return "store.i64";
    case Op::StoreF32: return "store.f32";
    case Op::StoreF64: return "store.f64";
    case Op::AddI: return "add.i";
    case Op::SubI: return "sub.i";
    case Op::MulI: return "mul.i";
    case Op::DivI: return "div.i";
    case Op::DivU: return "div.u";
    case Op::RemI: return "rem.i";
    case Op::RemU: return "rem.u";
    case Op::NegI: return "neg.i";
    case Op::AndI: return "and.i";
    case Op::OrI: return "or.i";
    case Op::XorI: return "xor.i";
    case Op::ShlI: return "shl.i";
    case Op::ShrI: return "shr.i";
    case Op::ShrU: return "shr.u";
    case Op::NotI: return "not.i";
    case Op::Sext8: return "sext.8";
    case Op::Sext16: return "sext.16";
    case Op::Sext32: return "sext.32";
    case Op::Zext8: return "zext.8";
    case Op::Zext16: return "zext.16";
    case Op::Zext32: return "zext.32";
    case Op::Zext1: return "zext.1";
    case Op::AddF: return "add.f";
    case Op::SubF: return "sub.f";
    case Op::MulF: return "mul.f";
    case Op::DivF: return "div.f";
    case Op::NegF: return "neg.f";
    case Op::AddD: return "add.d";
    case Op::SubD: return "sub.d";
    case Op::MulD: return "mul.d";
    case Op::DivD: return "div.d";
    case Op::NegD: return "neg.d";
    case Op::EqI: return "eq.i";
    case Op::NeI: return "ne.i";
    case Op::LtI: return "lt.i";
    case Op::LeI: return "le.i";
    case Op::GtI: return "gt.i";
    case Op::GeI: return "ge.i";
    case Op::LtU: return "lt.u";
    case Op::LeU: return "le.u";
    case Op::GtU: return "gt.u";
    case Op::GeU: return "ge.u";
    case Op::EqF: return "eq.f";
    case Op::NeF: return "ne.f";
    case Op::LtF: return "lt.f";
    case Op::LeF: return "le.f";
    case Op::GtF: return "gt.f";
    case Op::GeF: return "ge.f";
    case Op::EqD: return "eq.d";
    case Op::NeD: return "ne.d";
    case Op::LtD: return "lt.d";
    case Op::LeD: return "le.d";
    case Op::GtD: return "gt.d";
    case Op::GeD: return "ge.d";
    case Op::LNot: return "lnot";
    case Op::Bool: return "bool";
    case Op::I2F: return "cvt.i2f";
    case Op::I2D: return "cvt.i2d";
    case Op::U2F: return "cvt.u2f";
    case Op::U2D: return "cvt.u2d";
    case Op::F2I: return "cvt.f2i";
    case Op::D2I: return "cvt.d2i";
    case Op::F2U: return "cvt.f2u";
    case Op::D2U: return "cvt.d2u";
    case Op::F2D: return "cvt.f2d";
    case Op::D2F: return "cvt.d2f";
    case Op::Jmp: return "jmp";
    case Op::JmpIfZero: return "jz";
    case Op::JmpIfNonZero: return "jnz";
    case Op::Call: return "call";
    case Op::Ret: return "ret";
    case Op::RetVoid: return "ret.void";
    case Op::BarrierOp: return "barrier";
    case Op::BuiltinOp: return "builtin";
    case Op::WorkItemFn: return "workitem";
    case Op::LIdxI8: return "lidx.i8";
    case Op::LIdxU8: return "lidx.u8";
    case Op::LIdxI16: return "lidx.i16";
    case Op::LIdxU16: return "lidx.u16";
    case Op::LIdxI32: return "lidx.i32";
    case Op::LIdxU32: return "lidx.u32";
    case Op::LIdxI64: return "lidx.i64";
    case Op::LIdxF32: return "lidx.f32";
    case Op::LIdxF64: return "lidx.f64";
    case Op::SIdxI8: return "sidx.i8";
    case Op::SIdxI16: return "sidx.i16";
    case Op::SIdxI32: return "sidx.i32";
    case Op::SIdxI64: return "sidx.i64";
    case Op::SIdxF32: return "sidx.f32";
    case Op::SIdxF64: return "sidx.f64";
    case Op::MadI: return "mad.i";
    case Op::MadF: return "mad.f";
    case Op::MadD: return "mad.d";
  }
  return "?";
}

std::string disassemble(const CompiledFunction& fn) {
  std::ostringstream oss;
  oss << (fn.is_kernel ? "kernel " : "function ") << fn.name << " (slots="
      << fn.num_slots << ", private=" << fn.private_bytes
      << "B, local=" << fn.local_bytes << "B)\n";
  for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
    const Instr& in = fn.code[pc];
    oss << "  " << pc << ": " << op_name(in.op);
    switch (in.op) {
      case Op::PushI:
      case Op::LocalPtr:
      case Op::PrivatePtr:
        oss << ' ' << in.imm;
        break;
      case Op::PushF:
      case Op::PushD:
        oss << " <bits:" << in.imm << '>';
        break;
      case Op::LoadSlot:
      case Op::StoreSlot:
      case Op::PtrAdd:
      case Op::Jmp:
      case Op::JmpIfZero:
      case Op::JmpIfNonZero:
      case Op::Call:
      case Op::BuiltinOp:
      case Op::WorkItemFn:
      case Op::LIdxI8:
      case Op::LIdxU8:
      case Op::LIdxI16:
      case Op::LIdxU16:
      case Op::LIdxI32:
      case Op::LIdxU32:
      case Op::LIdxI64:
      case Op::LIdxF32:
      case Op::LIdxF64:
      case Op::SIdxI8:
      case Op::SIdxI16:
      case Op::SIdxI32:
      case Op::SIdxI64:
      case Op::SIdxF32:
      case Op::SIdxF64:
      case Op::MadI:
      case Op::MadF:
      case Op::MadD:
        oss << ' ' << in.a;
        break;
      default:
        break;
    }
    oss << '\n';
  }
  return oss.str();
}

OpClass op_class_of(Op op) {
  switch (op) {
    case Op::AddI: case Op::SubI: case Op::MulI: case Op::DivI: case Op::DivU:
    case Op::RemI: case Op::RemU: case Op::NegI: case Op::AndI: case Op::OrI:
    case Op::XorI: case Op::ShlI: case Op::ShrI: case Op::ShrU: case Op::NotI:
    case Op::EqI: case Op::NeI: case Op::LtI: case Op::LeI: case Op::GtI:
    case Op::GeI: case Op::LtU: case Op::LeU: case Op::GtU: case Op::GeU:
    case Op::PtrAdd:
      return OpClass::IntAlu;
    case Op::AddF: case Op::SubF: case Op::MulF: case Op::DivF: case Op::NegF:
    case Op::EqF: case Op::NeF: case Op::LtF: case Op::LeF: case Op::GtF:
    case Op::GeF:
      return OpClass::FloatAlu;
    case Op::AddD: case Op::SubD: case Op::MulD: case Op::DivD: case Op::NegD:
    case Op::EqD: case Op::NeD: case Op::LtD: case Op::LeD: case Op::GtD:
    case Op::GeD:
      return OpClass::DoubleAlu;
    case Op::MadI:
      return OpClass::IntAlu;
    case Op::MadF:
      return OpClass::FloatAlu;
    case Op::MadD:
      return OpClass::DoubleAlu;
    case Op::LoadI8: case Op::LoadU8: case Op::LoadI16: case Op::LoadU16:
    case Op::LoadI32: case Op::LoadU32: case Op::LoadI64: case Op::LoadF32:
    case Op::LoadF64: case Op::StoreI8: case Op::StoreI16: case Op::StoreI32:
    case Op::StoreI64: case Op::StoreF32: case Op::StoreF64:
    case Op::LIdxI8: case Op::LIdxU8: case Op::LIdxI16: case Op::LIdxU16:
    case Op::LIdxI32: case Op::LIdxU32: case Op::LIdxI64: case Op::LIdxF32:
    case Op::LIdxF64: case Op::SIdxI8: case Op::SIdxI16: case Op::SIdxI32:
    case Op::SIdxI64: case Op::SIdxF32: case Op::SIdxF64:
      return OpClass::GlobalMem;  // refined at run time by address space
    default:
      return OpClass::Control;
  }
}

const char* reg_op_name(RegOp op) {
  switch (op) {
#define HPLREPRO_REG_NAME(name) \
  case RegOp::name:             \
    return #name;
    HPLREPRO_REG_OPS(HPLREPRO_REG_NAME)
#undef HPLREPRO_REG_NAME
  }
  return "?";
}

std::string disassemble_reg(const RegFunction& fn) {
  std::ostringstream oss;
  oss << "regfn (regs=" << fn.num_regs << ", params=" << fn.num_params
      << ", private=" << fn.private_bytes << "B)\n";
  for (std::size_t k = 0; k < fn.consts.size(); ++k) {
    oss << " const r" << fn.const_base() + k << " = " << fn.consts[k].i64
        << '\n';
  }
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    const RegBlock& blk = fn.blocks[b];
    oss << " block " << b << " @" << blk.start << " (fuel=" << blk.fuel
        << ")\n";
    const std::uint32_t end = b + 1 < fn.blocks.size()
                                  ? fn.blocks[b + 1].start
                                  : static_cast<std::uint32_t>(fn.code.size());
    for (std::uint32_t i = blk.start; i < end; ++i) {
      const RegInstr& in = fn.code[i];
      oss << "  " << i << ": " << reg_op_name(in.op) << " d=" << in.dst
          << " a=" << in.a << " b=" << in.b << " c=" << in.c
          << " aux=" << in.aux << " imm=" << in.imm << '\n';
    }
  }
  return oss.str();
}

// --- Lowering: stack form -> register form ----------------------------------

namespace {

bool is_jump_op(Op op) {
  return op == Op::Jmp || op == Op::JmpIfZero || op == Op::JmpIfNonZero;
}
bool is_terminator_op(Op op) {
  return is_jump_op(op) || op == Op::Ret || op == Op::RetVoid ||
         op == Op::BarrierOp;
}
bool in_range(Op op, Op lo, Op hi) { return op >= lo && op <= hi; }

/// True for register ops whose only effect is writing `dst` from their
/// sources: not Call/BuiltinFn (`dst` also names the argument window),
/// stores (no `dst`) or terminators (`dst` is a block id or unused).
bool writes_dst_only(RegOp op) {
  switch (op) {
    case RegOp::Call: case RegOp::BuiltinFn:
    case RegOp::Br: case RegOp::BrIf: case RegOp::Ret: case RegOp::RetVoid:
    case RegOp::Barrier:
    case RegOp::StoreI8: case RegOp::StoreI16: case RegOp::StoreI32:
    case RegOp::StoreI64: case RegOp::StoreF32: case RegOp::StoreF64:
    case RegOp::SIdxI8: case RegOp::SIdxI16: case RegOp::SIdxI32:
    case RegOp::SIdxI64: case RegOp::SIdxF32: case RegOp::SIdxF64:
      return false;
    default:
      return true;
  }
}

/// Net operand-stack effect of one stack instruction: values popped and
/// pushed. Mirrors the VM's semantics op by op.
struct StackEffect {
  int pops = 0;
  int pushes = 0;
};

StackEffect stack_effect_of(const Instr& in, const Module& module,
                            const std::vector<char>& returns_value) {
  switch (in.op) {
    case Op::Nop: return {0, 0};
    case Op::PushI: case Op::PushF: case Op::PushD:
    case Op::LoadSlot: case Op::LocalPtr: case Op::PrivatePtr:
      return {0, 1};
    case Op::Dup: return {1, 2};
    case Op::Swap: return {2, 2};
    case Op::Pop: case Op::StoreSlot: return {1, 0};
    case Op::PtrAdd: return {2, 1};
    case Op::Jmp: return {0, 0};
    case Op::JmpIfZero: case Op::JmpIfNonZero: return {1, 0};
    case Op::Call: {
      const auto& callee = module.functions[static_cast<std::size_t>(in.a)];
      const int nargs = static_cast<int>(callee.params.size());
      return {nargs, returns_value[static_cast<std::size_t>(in.a)] ? 1 : 0};
    }
    case Op::Ret: return {1, 0};
    case Op::RetVoid: return {0, 0};
    case Op::BarrierOp: return {1, 0};
    case Op::WorkItemFn: return {1, 1};
    case Op::BuiltinOp:
      return {builtin_info(static_cast<Builtin>(in.a)).arity, 1};
    case Op::MadI: case Op::MadF: case Op::MadD: return {3, 1};
    default:
      if (in_range(in.op, Op::LoadI8, Op::LoadF64)) return {1, 1};
      if (in_range(in.op, Op::StoreI8, Op::StoreF64)) return {2, 0};
      if (in_range(in.op, Op::LIdxI8, Op::LIdxF64)) return {2, 1};
      if (in_range(in.op, Op::SIdxI8, Op::SIdxF64)) return {3, 0};
      switch (in.op) {
        case Op::NegI: case Op::NotI: case Op::NegF: case Op::NegD:
        case Op::LNot: case Op::Bool:
        case Op::Sext8: case Op::Sext16: case Op::Sext32:
        case Op::Zext8: case Op::Zext16: case Op::Zext32: case Op::Zext1:
        case Op::I2F: case Op::I2D: case Op::U2F: case Op::U2D:
        case Op::F2I: case Op::D2I: case Op::F2U: case Op::D2U:
        case Op::F2D: case Op::D2F:
          return {1, 1};
        default:
          // Everything else is a binary ALU/compare op.
          return {2, 1};
      }
  }
}

/// Maps a stack opcode with a direct register counterpart (same semantics,
/// operands in registers) to its RegOp. Ops needing special handling
/// (stack shuffling, control flow, calls...) are dispatched explicitly in
/// the lowering loop and never reach this table.
RegOp direct_reg_op(Op op) {
  switch (op) {
#define HPLREPRO_DIRECT(name) \
  case Op::name:              \
    return RegOp::name;
    HPLREPRO_DIRECT(LoadI8) HPLREPRO_DIRECT(LoadU8) HPLREPRO_DIRECT(LoadI16)
    HPLREPRO_DIRECT(LoadU16) HPLREPRO_DIRECT(LoadI32) HPLREPRO_DIRECT(LoadU32)
    HPLREPRO_DIRECT(LoadI64) HPLREPRO_DIRECT(LoadF32) HPLREPRO_DIRECT(LoadF64)
    HPLREPRO_DIRECT(StoreI8) HPLREPRO_DIRECT(StoreI16)
    HPLREPRO_DIRECT(StoreI32) HPLREPRO_DIRECT(StoreI64)
    HPLREPRO_DIRECT(StoreF32) HPLREPRO_DIRECT(StoreF64)
    HPLREPRO_DIRECT(LIdxI8) HPLREPRO_DIRECT(LIdxU8) HPLREPRO_DIRECT(LIdxI16)
    HPLREPRO_DIRECT(LIdxU16) HPLREPRO_DIRECT(LIdxI32) HPLREPRO_DIRECT(LIdxU32)
    HPLREPRO_DIRECT(LIdxI64) HPLREPRO_DIRECT(LIdxF32) HPLREPRO_DIRECT(LIdxF64)
    HPLREPRO_DIRECT(SIdxI8) HPLREPRO_DIRECT(SIdxI16) HPLREPRO_DIRECT(SIdxI32)
    HPLREPRO_DIRECT(SIdxI64) HPLREPRO_DIRECT(SIdxF32)
    HPLREPRO_DIRECT(SIdxF64)
    HPLREPRO_DIRECT(AddI) HPLREPRO_DIRECT(SubI) HPLREPRO_DIRECT(MulI)
    HPLREPRO_DIRECT(DivI) HPLREPRO_DIRECT(DivU) HPLREPRO_DIRECT(RemI)
    HPLREPRO_DIRECT(RemU) HPLREPRO_DIRECT(AndI) HPLREPRO_DIRECT(OrI)
    HPLREPRO_DIRECT(XorI) HPLREPRO_DIRECT(ShlI) HPLREPRO_DIRECT(ShrI)
    HPLREPRO_DIRECT(ShrU)
    HPLREPRO_DIRECT(AddF) HPLREPRO_DIRECT(SubF) HPLREPRO_DIRECT(MulF)
    HPLREPRO_DIRECT(DivF) HPLREPRO_DIRECT(AddD) HPLREPRO_DIRECT(SubD)
    HPLREPRO_DIRECT(MulD) HPLREPRO_DIRECT(DivD)
    HPLREPRO_DIRECT(EqI) HPLREPRO_DIRECT(NeI) HPLREPRO_DIRECT(LtI)
    HPLREPRO_DIRECT(LeI) HPLREPRO_DIRECT(GtI) HPLREPRO_DIRECT(GeI)
    HPLREPRO_DIRECT(LtU) HPLREPRO_DIRECT(LeU) HPLREPRO_DIRECT(GtU)
    HPLREPRO_DIRECT(GeU)
    HPLREPRO_DIRECT(EqF) HPLREPRO_DIRECT(NeF) HPLREPRO_DIRECT(LtF)
    HPLREPRO_DIRECT(LeF) HPLREPRO_DIRECT(GtF) HPLREPRO_DIRECT(GeF)
    HPLREPRO_DIRECT(EqD) HPLREPRO_DIRECT(NeD) HPLREPRO_DIRECT(LtD)
    HPLREPRO_DIRECT(LeD) HPLREPRO_DIRECT(GtD) HPLREPRO_DIRECT(GeD)
    HPLREPRO_DIRECT(NegI) HPLREPRO_DIRECT(NotI) HPLREPRO_DIRECT(NegF)
    HPLREPRO_DIRECT(NegD) HPLREPRO_DIRECT(LNot) HPLREPRO_DIRECT(Bool)
    HPLREPRO_DIRECT(Sext8) HPLREPRO_DIRECT(Sext16) HPLREPRO_DIRECT(Sext32)
    HPLREPRO_DIRECT(Zext8) HPLREPRO_DIRECT(Zext16) HPLREPRO_DIRECT(Zext32)
    HPLREPRO_DIRECT(Zext1)
    HPLREPRO_DIRECT(I2F) HPLREPRO_DIRECT(I2D) HPLREPRO_DIRECT(U2F)
    HPLREPRO_DIRECT(U2D) HPLREPRO_DIRECT(F2I) HPLREPRO_DIRECT(D2I)
    HPLREPRO_DIRECT(F2U) HPLREPRO_DIRECT(D2U) HPLREPRO_DIRECT(F2D)
    HPLREPRO_DIRECT(D2F)
    HPLREPRO_DIRECT(MadI) HPLREPRO_DIRECT(MadF) HPLREPRO_DIRECT(MadD)
#undef HPLREPRO_DIRECT
    default:
      throw InternalError("direct_reg_op: not a direct opcode");
  }
}

/// Lowers one function. Throws LowerFailure (below) on shapes the stack
/// simulation cannot express; the caller then falls back to the stack
/// interpreter for the whole module.
struct LowerFailure {
  std::string why;
};

class FunctionLowerer {
public:
  /// `mem_slots` is the module-wide memory-slot counter: every memory
  /// instruction this function emits takes the next slot.
  FunctionLowerer(const Module& module, int fn_index,
                  const std::vector<char>& returns_value,
                  std::uint32_t& mem_slots)
      : module_(module),
        fn_(module.functions[static_cast<std::size_t>(fn_index)]),
        returns_value_(returns_value),
        mem_slots_(mem_slots),
        num_slots_(fn_.num_slots) {}

  RegFunction lower() {
    find_leaders();
    number_blocks();
    infer_depths();
    out_.num_params = static_cast<std::uint16_t>(fn_.params.size());
    out_.private_bytes = fn_.private_bytes;
    emit_blocks();
    const std::size_t num_regs = static_cast<std::size_t>(num_slots_) +
                                 max_depth_ + 1 + out_.consts.size();
    if (num_regs > 0xFFFF) fail("function needs too many registers");
    out_.num_regs = static_cast<std::uint16_t>(num_regs);
    return std::move(out_);
  }

private:
  [[noreturn]] void fail(const std::string& why) const {
    throw LowerFailure{fn_.name + ": " + why};
  }

  // --- Block structure ------------------------------------------------------

  void find_leaders() {
    const std::size_t n = fn_.code.size();
    leaders_.assign(n + 1, 0);
    leaders_[0] = 1;
    leaders_[n] = 1;  // synthetic exit block (jump-to-end / fall-off-end)
    for (std::size_t pc = 0; pc < n; ++pc) {
      const Instr& in = fn_.code[pc];
      if (is_jump_op(in.op)) {
        const auto target = static_cast<std::size_t>(in.a);
        if (target > n) fail("jump target out of range");
        leaders_[target] = 1;
      }
      if (is_terminator_op(in.op) && pc + 1 <= n) leaders_[pc + 1] = 1;
    }
  }

  void number_blocks() {
    const std::size_t n = fn_.code.size();
    block_of_pc_.assign(n + 1, -1);
    int id = -1;
    for (std::size_t pc = 0; pc <= n; ++pc) {
      if (leaders_[pc]) {
        ++id;
        block_starts_.push_back(pc);
      }
      block_of_pc_[pc] = id;
    }
    num_blocks_ = id + 1;
    exit_block_ = block_of_pc_[n];
    if (num_blocks_ > 0xFFFF) fail("function has too many basic blocks");
  }

  /// End pc (exclusive) of block `b` in the stack code.
  std::size_t block_end(int b) const {
    return b + 1 < num_blocks_ ? block_starts_[static_cast<std::size_t>(b) + 1]
                               : fn_.code.size();
  }

  // Worklist dataflow: operand-stack depth at each block entry. The stack
  // machine is statically typed per path, and codegen only merges paths at
  // equal depth (e.g. `&&`/`||` join at depth 1), so a conflicting depth
  // means code we cannot lower.
  void infer_depths() {
    depth_in_.assign(static_cast<std::size_t>(num_blocks_), -1);
    depth_in_[0] = 0;
    std::deque<int> work{0};
    auto join = [&](int block, int depth) {
      if (block == exit_block_) return;  // exit ignores leftover depth
      int& have = depth_in_[static_cast<std::size_t>(block)];
      if (have < 0) {
        have = depth;
        work.push_back(block);
      } else if (have != depth) {
        fail("operand-stack depth mismatch at block join");
      }
    };
    while (!work.empty()) {
      const int b = work.front();
      work.pop_front();
      int depth = depth_in_[static_cast<std::size_t>(b)];
      max_depth_ = std::max(max_depth_, depth);
      const std::size_t end = block_end(b);
      bool terminated = false;
      for (std::size_t pc = block_starts_[static_cast<std::size_t>(b)];
           pc < end; ++pc) {
        const Instr& in = fn_.code[pc];
        const StackEffect eff = stack_effect_of(in, module_, returns_value_);
        if (depth < eff.pops) fail("operand-stack underflow");
        depth += eff.pushes - eff.pops;
        max_depth_ = std::max(max_depth_, depth + eff.pops);
        switch (in.op) {
          case Op::Jmp:
            join(block_of_pc_[static_cast<std::size_t>(in.a)], depth);
            terminated = true;
            break;
          case Op::JmpIfZero:
          case Op::JmpIfNonZero:
            join(block_of_pc_[static_cast<std::size_t>(in.a)], depth);
            join(block_of_pc_[pc + 1], depth);
            terminated = true;
            break;
          case Op::Ret:
          case Op::RetVoid:
            terminated = true;
            break;
          case Op::BarrierOp:
            join(block_of_pc_[pc + 1], depth);
            terminated = true;
            break;
          default:
            break;
        }
        if (terminated) break;
      }
      if (!terminated) {
        // Fallthrough into the next leader (or off the end of the code).
        join(block_of_pc_[end], depth);
      }
    }
  }

  // --- Emission -------------------------------------------------------------
  //
  // During emission the abstract operand stack is a vector of register
  // descriptors, one per stack position p. Invariant: st_[p] is either an
  // alias — a slot register (< num_slots: position p aliases that slot,
  // saving the LoadSlot copy) or a constant-pool register (> scratch():
  // position p holds a literal, saving the materializing copy) — or
  // position p's own "home" register (num_slots + p). Home registers are
  // positional, so materializing the stack (before branches/calls) only
  // ever copies aliases into home registers — no parallel-copy cycles can
  // arise. Pool registers are never written, so an alias to one stays
  // valid until its position is popped.

  std::uint16_t home(int pos) const {
    return static_cast<std::uint16_t>(num_slots_ + pos);
  }
  std::uint16_t scratch() const {
    return static_cast<std::uint16_t>(num_slots_ + max_depth_);
  }
  bool is_alias(std::uint16_t r) const {
    return r < static_cast<std::uint16_t>(num_slots_) || r > scratch();
  }

  /// Pushes an alias of the pool register holding `bits`, adding it to the
  /// pool on first use.
  void push_const(std::int64_t bits) {
    auto [it, added] = const_regs_.try_emplace(
        bits, static_cast<std::uint16_t>(scratch() + 1 + out_.consts.size()));
    if (added) {
      Value v{};
      v.i64 = bits;
      out_.consts.push_back(v);
    }
    st_.push_back(it->second);
  }

  /// Store retargeting: StoreSlot of a value the block's last instruction
  /// just computed into a home register rewrites that instruction to write
  /// the slot directly, saving the Mov. Every retargetable instruction
  /// reads its sources before writing `dst`, so `x = x + 1` stays correct.
  /// The caller guarantees no stack position aliases the slot any more.
  bool retarget_store(std::uint16_t src, std::uint16_t slot) {
    if (is_alias(src) || out_.code.size() <= block_code_start_) return false;
    RegInstr& last = out_.code.back();
    if (last.dst != src || !writes_dst_only(last.op)) return false;
    last.dst = slot;
    return true;
  }

  void emit(RegOp op, std::uint16_t dst = 0, std::uint16_t a = 0,
            std::uint16_t b = 0, std::uint16_t c = 0, std::int32_t aux = 0,
            std::int64_t imm = 0) {
    out_.code.push_back(RegInstr{op, dst, a, b, c, aux, imm});
  }

  void mov(std::uint16_t dst, std::uint16_t src) {
    if (dst != src) emit(RegOp::Mov, dst, src);
  }

  int depth() const { return static_cast<int>(st_.size()); }

  std::uint16_t pop_src() {
    const std::uint16_t r = st_.back();
    st_.pop_back();
    return r;
  }

  /// Copies every slot-aliasing position into its home register. After
  /// this the stack is position-addressable (branch joins, call argument
  /// windows).
  void materialize_all() {
    for (int p = 0; p < depth(); ++p) {
      if (st_[static_cast<std::size_t>(p)] != home(p)) {
        mov(home(p), st_[static_cast<std::size_t>(p)]);
        st_[static_cast<std::size_t>(p)] = home(p);
      }
    }
  }

  /// The coalescing-tracker slot of the next memory instruction.
  std::int32_t next_mem_slot() {
    return static_cast<std::int32_t>(mem_slots_++);
  }

  std::int32_t branch_block(std::size_t target_pc) const {
    return block_of_pc_[target_pc];
  }

  void emit_blocks() {
    out_.blocks.assign(static_cast<std::size_t>(num_blocks_), RegBlock{});
    for (int b = 0; b < num_blocks_; ++b) {
      RegBlock& blk = out_.blocks[static_cast<std::size_t>(b)];
      blk.start = static_cast<std::uint32_t>(out_.code.size());
      if (b == exit_block_) {
        // Synthetic exit: fell off the end of a void function.
        emit(RegOp::RetVoid);
        continue;
      }
      if (depth_in_[static_cast<std::size_t>(b)] < 0) {
        // Unreachable block: nothing can branch here (branches only come
        // from reachable code); keep an empty placeholder.
        emit(RegOp::RetVoid);
        continue;
      }
      emit_block(b, blk);
    }
  }

  void emit_block(int b, RegBlock& blk) {
    st_.clear();
    block_code_start_ = out_.code.size();
    for (int p = 0; p < depth_in_[static_cast<std::size_t>(b)]; ++p) {
      st_.push_back(home(p));
    }
    const std::size_t end = block_end(b);
    bool terminated = false;
    for (std::size_t pc = block_starts_[static_cast<std::size_t>(b)];
         pc < end && !terminated; ++pc) {
      const Instr& in = fn_.code[pc];
      account(in, blk);
      terminated = lower_instr(in, pc);
    }
    if (!terminated) {
      // Explicit fallthrough branch: every block entry passes through
      // the VM's block-entry accounting, so it stays uniform.
      materialize_all();
      emit(RegOp::Br, 0, 0, 0, 0, branch_block(end));
    }
  }

  /// Adds one stack instruction to the block's histogram, replicating the
  /// stack interpreter's counting exactly: one bump from the static
  /// OpClass (memory ops fall into Control there), an extra bump for
  /// BuiltinOp's operand class, fused_ops for superinstructions.
  void account(const Instr& in, RegBlock& blk) {
    blk.fuel += 1;
    switch (op_class_of(in.op)) {
      case OpClass::IntAlu: ++blk.int_ops; break;
      case OpClass::FloatAlu: ++blk.float_ops; break;
      case OpClass::DoubleAlu: ++blk.double_ops; break;
      default: ++blk.control_ops; break;
    }
    if (in.op == Op::BuiltinOp) {
      if (is_transcendental(static_cast<Builtin>(in.a))) {
        ++blk.special_ops;
      } else if (in.imm == 1) {
        ++blk.float_ops;
      } else if (in.imm == 2) {
        ++blk.double_ops;
      } else {
        ++blk.int_ops;
      }
    }
    if (in_range(in.op, Op::LIdxI8, Op::SIdxF64) || in.op == Op::MadI ||
        in.op == Op::MadF || in.op == Op::MadD) {
      ++blk.fused_ops;
    }
  }

  /// Lowers one stack instruction; returns true if it terminated the block.
  bool lower_instr(const Instr& in, std::size_t pc) {
    switch (in.op) {
      case Op::Nop:
        return false;

      case Op::PushI:
      case Op::PushD:
        push_const(in.imm);
        return false;
      case Op::PushF:
        // Low 32 bits are the float's bits; upper bytes zero (never read).
        push_const(static_cast<std::int64_t>(
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(in.imm))));
        return false;
      case Op::LocalPtr:
        push_const(static_cast<std::int64_t>(make_pointer(
            PtrSpace::Local, 0, static_cast<std::uint64_t>(in.imm))));
        return false;
      case Op::PrivatePtr: {
        const std::uint16_t dst = home(depth());
        emit(RegOp::PrivPtr, dst, 0, 0, 0, 0, in.imm);
        st_.push_back(dst);
        return false;
      }

      case Op::Dup: {
        const std::uint16_t src = st_.back();
        if (is_alias(src)) {
          st_.push_back(src);  // both positions alias the slot/constant
        } else {
          const std::uint16_t dst = home(depth());
          mov(dst, src);
          st_.push_back(dst);
        }
        return false;
      }
      case Op::Pop:
        st_.pop_back();
        return false;
      case Op::Swap: {
        const int d = depth();
        std::uint16_t& x = st_[static_cast<std::size_t>(d) - 2];
        std::uint16_t& y = st_[static_cast<std::size_t>(d) - 1];
        const bool x_home = !is_alias(x);
        const bool y_home = !is_alias(y);
        if (x_home && y_home) {
          mov(scratch(), x);
          mov(x, y);
          mov(y, scratch());
        } else if (x_home) {
          mov(home(d - 1), x);  // x's value moves up to position d-1
          const std::uint16_t old_y = y;
          y = home(d - 1);
          x = old_y;
        } else if (y_home) {
          mov(home(d - 2), y);  // y's value moves down to position d-2
          const std::uint16_t old_x = x;
          x = home(d - 2);
          y = old_x;
        } else {
          std::swap(x, y);  // both are aliases: pure renaming
        }
        return false;
      }

      case Op::LoadSlot: {
        st_.push_back(static_cast<std::uint16_t>(in.a));
        return false;
      }
      case Op::StoreSlot: {
        const std::uint16_t slot = static_cast<std::uint16_t>(in.a);
        const std::uint16_t src = pop_src();
        // Positions still aliasing this slot keep its current value.
        bool aliased = false;
        for (int p = 0; p < depth(); ++p) {
          if (st_[static_cast<std::size_t>(p)] == slot) {
            mov(home(p), slot);
            st_[static_cast<std::size_t>(p)] = home(p);
            aliased = true;
          }
        }
        if (aliased || !retarget_store(src, slot)) mov(slot, src);
        return false;
      }

      case Op::PtrAdd: {
        const std::uint16_t index = pop_src();
        const std::uint16_t ptr = pop_src();
        const std::uint16_t dst = home(depth());
        emit(RegOp::PtrAdd, dst, ptr, index, 0, 0, in.a);
        st_.push_back(dst);
        return false;
      }

      case Op::Jmp:
        materialize_all();
        emit(RegOp::Br, 0, 0, 0, 0,
             branch_block(static_cast<std::size_t>(in.a)));
        return true;
      case Op::JmpIfZero: {
        const std::uint16_t cond = pop_src();
        materialize_all();  // writes only home regs below the condition
        emit(RegOp::BrIf,
             static_cast<std::uint16_t>(branch_block(pc + 1)), cond, 0, 0,
             branch_block(static_cast<std::size_t>(in.a)));
        return true;
      }
      case Op::JmpIfNonZero: {
        const std::uint16_t cond = pop_src();
        materialize_all();
        emit(RegOp::BrIf,
             static_cast<std::uint16_t>(
                 branch_block(static_cast<std::size_t>(in.a))),
             cond, 0, 0, branch_block(pc + 1));
        return true;
      }

      case Op::Call: {
        const auto& callee = module_.functions[static_cast<std::size_t>(in.a)];
        const int nargs = static_cast<int>(callee.params.size());
        materialize_all();  // args land contiguous at home(d-nargs..d-1)
        for (int i = 0; i < nargs; ++i) st_.pop_back();
        const std::uint16_t base = home(depth());
        const bool rets = returns_value_[static_cast<std::size_t>(in.a)] != 0;
        emit(RegOp::Call, base, base, rets ? 1 : 0, 0, in.a);
        if (rets) st_.push_back(base);
        return false;
      }
      case Op::Ret: {
        const std::uint16_t src = pop_src();
        emit(RegOp::Ret, 0, src);
        return true;
      }
      case Op::RetVoid:
        emit(RegOp::RetVoid);
        return true;

      case Op::BarrierOp: {
        const std::uint16_t flags = pop_src();
        materialize_all();
        emit(RegOp::Barrier, 0, flags, 0, 0, branch_block(pc + 1));
        return true;
      }

      case Op::WorkItemFn: {
        const std::uint16_t dim = pop_src();
        const std::uint16_t dst = home(depth());
        emit(RegOp::WorkItem, dst, dim, 0, 0, in.a);
        st_.push_back(dst);
        return false;
      }

      case Op::BuiltinOp: {
        const auto id = static_cast<Builtin>(in.a);
        const int arity = builtin_info(id).arity;
        const int d = depth();
        // Arguments must be contiguous registers: materialize them.
        for (int i = 0; i < arity; ++i) {
          const int p = d - arity + i;
          if (st_[static_cast<std::size_t>(p)] != home(p)) {
            mov(home(p), st_[static_cast<std::size_t>(p)]);
            st_[static_cast<std::size_t>(p)] = home(p);
          }
        }
        for (int i = 0; i < arity; ++i) st_.pop_back();
        const std::uint16_t base = home(depth());
        emit(RegOp::BuiltinFn, base, base, static_cast<std::uint16_t>(arity),
             static_cast<std::uint16_t>(in.imm), in.a);
        st_.push_back(base);
        return false;
      }

      case Op::MadI:
      case Op::MadF:
      case Op::MadD: {
        // a=0: stack is x, y, z (z on top), result (x*y)+z.
        // a=1: stack is z, x, y (y on top), result z+(x*y).
        std::uint16_t x, y, z;
        if (in.a == 0) {
          z = pop_src();
          y = pop_src();
          x = pop_src();
        } else {
          y = pop_src();
          x = pop_src();
          z = pop_src();
        }
        const std::uint16_t dst = home(depth());
        emit(direct_reg_op(in.op), dst, x, y, z, in.a);
        st_.push_back(dst);
        return false;
      }

      default: {
        const StackEffect eff = stack_effect_of(in, module_, returns_value_);
        if (in_range(in.op, Op::LoadI8, Op::LoadF64)) {
          const std::uint16_t ptr = pop_src();
          const std::uint16_t dst = home(depth());
          emit(direct_reg_op(in.op), dst, ptr, 0, 0, next_mem_slot());
          st_.push_back(dst);
        } else if (in_range(in.op, Op::StoreI8, Op::StoreF64)) {
          const std::uint16_t value = pop_src();
          const std::uint16_t ptr = pop_src();
          emit(direct_reg_op(in.op), 0, ptr, value, 0, next_mem_slot());
        } else if (in_range(in.op, Op::LIdxI8, Op::LIdxF64)) {
          const std::uint16_t index = pop_src();
          const std::uint16_t ptr = pop_src();
          const std::uint16_t dst = home(depth());
          emit(direct_reg_op(in.op), dst, ptr, index, 0, next_mem_slot(),
               in.a);
          st_.push_back(dst);
        } else if (in_range(in.op, Op::SIdxI8, Op::SIdxF64)) {
          const std::uint16_t value = pop_src();
          const std::uint16_t index = pop_src();
          const std::uint16_t ptr = pop_src();
          emit(direct_reg_op(in.op), 0, ptr, index, value, next_mem_slot(),
               in.a);
        } else if (eff.pops == 2 && eff.pushes == 1) {
          const std::uint16_t rhs = pop_src();
          const std::uint16_t lhs = pop_src();
          const std::uint16_t dst = home(depth());
          emit(direct_reg_op(in.op), dst, lhs, rhs);
          st_.push_back(dst);
        } else if (eff.pops == 1 && eff.pushes == 1) {
          const std::uint16_t src = pop_src();
          const std::uint16_t dst = home(depth());
          emit(direct_reg_op(in.op), dst, src);
          st_.push_back(dst);
        } else {
          fail("unhandled opcode in lowering");
        }
        return false;
      }
    }
  }

  const Module& module_;
  const CompiledFunction& fn_;
  const std::vector<char>& returns_value_;
  std::uint32_t& mem_slots_;
  RegFunction out_;
  std::vector<char> leaders_;
  std::vector<int> block_of_pc_;
  std::vector<std::size_t> block_starts_;
  std::vector<int> depth_in_;
  std::vector<std::uint16_t> st_;
  std::map<std::int64_t, std::uint16_t> const_regs_;  // bits -> pool register
  std::size_t block_code_start_ = 0;  // first out_.code index of this block
  int num_blocks_ = 0;
  int exit_block_ = 0;
  int num_slots_ = 0;
  int max_depth_ = 0;
};

}  // namespace

std::string lower_module(Module& module) {
  // Whether each function leaves a value on the stack when called (scan
  // for Op::Ret; functions are single-exit per kind, matching the VM's
  // Call/Ret protocol).
  std::vector<char> returns_value(module.functions.size(), 0);
  for (std::size_t i = 0; i < module.functions.size(); ++i) {
    for (const Instr& in : module.functions[i].code) {
      if (in.op == Op::Ret) {
        returns_value[i] = 1;
        break;
      }
    }
  }

  module.reg_functions.clear();
  module.mem_slots = 0;
  try {
    for (std::size_t i = 0; i < module.functions.size(); ++i) {
      FunctionLowerer lowerer(module, static_cast<int>(i), returns_value,
                              module.mem_slots);
      module.reg_functions.push_back(lowerer.lower());
    }
  } catch (const LowerFailure& failure) {
    module.reg_functions.clear();
    module.mem_slots = 0;
    return "note: register lowering failed (" + failure.why +
           "); falling back to the stack interpreter";
  }
  return "";
}

}  // namespace hplrepro::clc
