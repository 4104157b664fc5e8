#include "clc/vm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <exception>
#include <type_traits>

#include "clc/builtins.hpp"
#include "clc/fold.hpp"

namespace hplrepro::clc {

namespace {

// op_class_of is shared with the lowering pass (bytecode.cpp) so the
// block-level accounting of the register interpreter matches this loop's
// per-instruction counting exactly.
struct OpClassTable {
  OpClass cls[256];
  OpClassTable() {
    for (int i = 0; i < 256; ++i) cls[i] = OpClass::Control;
    for (int i = 0; i < kOpCount; ++i) {
      cls[i] = op_class_of(static_cast<Op>(i));
    }
  }
};
const OpClassTable kOpClass;

// checked_trunc_i64 / checked_trunc_u64 live in fold.hpp so the optimizer
// folds float->int conversions with exactly the VM's semantics.

// Integer abs() negates through uint64_t like NegI, so abs(LONG_MIN) wraps
// to LONG_MIN's bits (2^63 as the ulong OpenCL returns) instead of
// overflowing.
std::uint64_t abs_wrapping(std::int64_t v) {
  const auto bits = static_cast<std::uint64_t>(v);
  return v < 0 ? 0 - bits : bits;
}

double apply_math_builtin_d(Builtin id, const double* a) {
  switch (id) {
    case Builtin::Sqrt: return std::sqrt(a[0]);
    case Builtin::Rsqrt: return 1.0 / std::sqrt(a[0]);
    case Builtin::Fabs: return std::fabs(a[0]);
    case Builtin::Exp: return std::exp(a[0]);
    case Builtin::Exp2: return std::exp2(a[0]);
    case Builtin::Log: return std::log(a[0]);
    case Builtin::Log2: return std::log2(a[0]);
    case Builtin::Log10: return std::log10(a[0]);
    case Builtin::Sin: return std::sin(a[0]);
    case Builtin::Cos: return std::cos(a[0]);
    case Builtin::Tan: return std::tan(a[0]);
    case Builtin::Asin: return std::asin(a[0]);
    case Builtin::Acos: return std::acos(a[0]);
    case Builtin::Atan: return std::atan(a[0]);
    case Builtin::Floor: return std::floor(a[0]);
    case Builtin::Ceil: return std::ceil(a[0]);
    case Builtin::Trunc: return std::trunc(a[0]);
    case Builtin::Round: return std::round(a[0]);
    case Builtin::Pow: return std::pow(a[0], a[1]);
    case Builtin::Atan2: return std::atan2(a[0], a[1]);
    case Builtin::Fmod: return std::fmod(a[0], a[1]);
    case Builtin::Fmin: return std::fmin(a[0], a[1]);
    case Builtin::Fmax: return std::fmax(a[0], a[1]);
    case Builtin::Hypot: return std::hypot(a[0], a[1]);
    case Builtin::Fma: return std::fma(a[0], a[1], a[2]);
    case Builtin::Mad: return a[0] * a[1] + a[2];
    case Builtin::Min: return std::fmin(a[0], a[1]);
    case Builtin::Max: return std::fmax(a[0], a[1]);
    case Builtin::Clamp: return std::fmin(std::fmax(a[0], a[1]), a[2]);
    default:
      throw InternalError("apply_math_builtin_d: bad id");
  }
}

float apply_math_builtin_f(Builtin id, const float* a) {
  switch (id) {
    case Builtin::Sqrt: return std::sqrt(a[0]);
    case Builtin::Rsqrt: return 1.0f / std::sqrt(a[0]);
    case Builtin::Fabs: return std::fabs(a[0]);
    case Builtin::Exp: return std::exp(a[0]);
    case Builtin::Exp2: return std::exp2(a[0]);
    case Builtin::Log: return std::log(a[0]);
    case Builtin::Log2: return std::log2(a[0]);
    case Builtin::Log10: return std::log10(a[0]);
    case Builtin::Sin: return std::sin(a[0]);
    case Builtin::Cos: return std::cos(a[0]);
    case Builtin::Tan: return std::tan(a[0]);
    case Builtin::Asin: return std::asin(a[0]);
    case Builtin::Acos: return std::acos(a[0]);
    case Builtin::Atan: return std::atan(a[0]);
    case Builtin::Floor: return std::floor(a[0]);
    case Builtin::Ceil: return std::ceil(a[0]);
    case Builtin::Trunc: return std::trunc(a[0]);
    case Builtin::Round: return std::round(a[0]);
    case Builtin::Pow: return std::pow(a[0], a[1]);
    case Builtin::Atan2: return std::atan2(a[0], a[1]);
    case Builtin::Fmod: return std::fmod(a[0], a[1]);
    case Builtin::Fmin: return std::fmin(a[0], a[1]);
    case Builtin::Fmax: return std::fmax(a[0], a[1]);
    case Builtin::Hypot: return std::hypot(a[0], a[1]);
    case Builtin::Fma: return std::fma(a[0], a[1], a[2]);
    case Builtin::Mad: return a[0] * a[1] + a[2];
    case Builtin::Min: return std::fmin(a[0], a[1]);
    case Builtin::Max: return std::fmax(a[0], a[1]);
    case Builtin::Clamp: return std::fmin(std::fmax(a[0], a[1]), a[2]);
    default:
      throw InternalError("apply_math_builtin_f: bad id");
  }
}

// is_transcendental lives in builtins.cpp (shared with the lowering pass).

[[noreturn]] void trap(const char* what) { throw TrapError(what); }

// The helpers below are shared by both interpreters, so they raise the same
// traps and produce the same memory accounting. They take every input
// explicitly: a closure capturing the dispatch loop's locals by reference
// would force those locals out of machine registers. The two per-access
// helpers are always inlined; every load and store handler calls both.

// Resolves a pointer to host memory; nullptr when the access is out of
// bounds (access_trap then says why).
[[gnu::always_inline]] inline std::byte* try_resolve(
    const MemoryEnv& mem, std::vector<std::byte>& priv, std::uint64_t ptr,
    std::size_t size) {
  const std::uint64_t offset = pointer_offset(ptr);
  switch (pointer_space(ptr)) {
    case PtrSpace::Global:
    case PtrSpace::Constant: {
      const std::uint64_t buffer = pointer_buffer(ptr);
      if (buffer >= mem.buffers.size()) return nullptr;
      auto span = mem.buffers[buffer];
      if (offset + size > span.size()) return nullptr;
      return span.data() + offset;
    }
    case PtrSpace::Local:
      if (offset + size > mem.local.size()) return nullptr;
      return mem.local.data() + offset;
    case PtrSpace::Private:
      if (offset + size > priv.size()) return nullptr;
      return priv.data() + offset;
  }
  return nullptr;
}

// Raises the trap for an access try_resolve refused.
[[noreturn, gnu::cold, gnu::noinline]] void access_trap(
    const MemoryEnv& mem, std::uint64_t ptr) {
  switch (pointer_space(ptr)) {
    case PtrSpace::Global:
    case PtrSpace::Constant:
      if (pointer_buffer(ptr) >= mem.buffers.size()) trap("bad buffer index");
      trap("global access out of bounds");
    case PtrSpace::Local:
      trap("local access out of bounds");
    case PtrSpace::Private:
      trap("private access out of bounds");
  }
  trap("bad pointer space");
}

// Resolves a pointer to host memory, bounds-checked.
[[gnu::always_inline]] inline std::byte* resolve(const MemoryEnv& mem,
                                                 std::vector<std::byte>& priv,
                                                 std::uint64_t ptr,
                                                 std::size_t size) {
  std::byte* host = try_resolve(mem, priv, ptr, size);
  if (host == nullptr) [[unlikely]] access_trap(mem, ptr);
  return host;
}

// Accounts a memory access in the stats and coalescing tracker. `id` names
// the memory instruction: its slot (RegInstr::aux) in the register VMs, its
// `function << 20 | pc` key in the stack VM (kKeyed).
template <bool kKeyed>
[[gnu::always_inline]] inline void note_access(ExecStats& stats,
                                               CoalescingTracker* tracker,
                                               std::uint64_t item_linear,
                                               std::uint64_t ptr,
                                               std::uint32_t size, bool store,
                                               std::uint32_t id) {
  switch (pointer_space(ptr)) {
    case PtrSpace::Global:
    case PtrSpace::Constant:
      if (store) {
        stats.global_store_bytes += size;
      } else {
        stats.global_load_bytes += size;
      }
      ++stats.global_accesses;
      if (tracker) {
        if constexpr (kKeyed) {
          tracker->access_key(id, item_linear, pointer_buffer(ptr),
                              pointer_offset(ptr), size);
        } else {
          tracker->access(id, item_linear, pointer_buffer(ptr),
                          pointer_offset(ptr), size);
        }
      }
      break;
    case PtrSpace::Local:
      stats.local_bytes += size;
      ++stats.local_accesses;
      break;
    case PtrSpace::Private:
      stats.private_bytes += size;
      break;
  }
}

// get_work_dim and the dimension queries. OpenCL 1.2 §6.12.1: outside
// 0..get_work_dim()-1 an id reads 0 and a size or count reads 1; a 1-D or
// 2-D launch already holds those values in its unused dimensions, and a
// dimension >= 3 gets them here.
std::uint64_t work_item_query(Builtin id, std::uint64_t dim,
                              const LaunchInfo& launch,
                              const WorkItemInfo& item) {
  const bool in_range = dim < 3;
  switch (id) {
    case Builtin::GetWorkDim:
      return static_cast<std::uint64_t>(launch.work_dim);
    case Builtin::GetGlobalId:
      return in_range ? item.group->global_base[dim] + item.local_id[dim] : 0;
    case Builtin::GetLocalId: return in_range ? item.local_id[dim] : 0;
    case Builtin::GetGroupId: return in_range ? item.group->group_id[dim] : 0;
    case Builtin::GetGlobalSize: return in_range ? launch.global_size[dim] : 1;
    case Builtin::GetLocalSize: return in_range ? launch.local_size[dim] : 1;
    case Builtin::GetNumGroups: return in_range ? launch.num_groups[dim] : 1;
    default:
      trap("bad work-item function");
  }
}

}  // namespace

void WorkItemVM::reset(const Module& module, const CompiledFunction& kernel,
                       std::span<const Value> args) {
  if (args.size() != kernel.params.size()) {
    throw InternalError("WorkItemVM::reset: argument count mismatch");
  }
  module_ = &module;
  stack_.clear();
  stack_.reserve(64);
  frames_.clear();
  frames_.push_back(Frame{&kernel, 0, 0, 0});
  slots_.assign(static_cast<std::size_t>(kernel.num_slots), Value{});
  for (std::size_t i = 0; i < args.size(); ++i) slots_[i] = args[i];
  private_arena_.assign(kernel.private_bytes, std::byte{0});
  barrier_flags_ = 0;
}

std::uint64_t WorkItemVM::barrier_site() const {
  const Frame& frame = frames_.back();
  const auto fn =
      static_cast<std::uint64_t>(frame.fn - module_->functions.data());
  return (fn << 32) | frame.pc;
}

RunStatus WorkItemVM::run(const MemoryEnv& mem, const LaunchInfo& launch,
                          const WorkItemInfo& item, ExecStats& stats,
                          CoalescingTracker* tracker) {
  std::uint64_t fuel = fuel_;

  auto push = [&](Value v) { stack_.push_back(v); };
  auto pop = [&]() -> Value {
    Value v = stack_.back();
    stack_.pop_back();
    return v;
  };
  auto top = [&]() -> Value& { return stack_.back(); };

  while (!frames_.empty()) {
    Frame& frame = frames_.back();
    const CompiledFunction& fn = *frame.fn;
    if (frame.pc >= fn.code.size()) {
      // Fell off the end of a void function.
      frames_.pop_back();
      continue;
    }
    const Instr instr = fn.code[frame.pc];
    const std::uint32_t pc_key =
        (static_cast<std::uint32_t>(frame.fn - module_->functions.data())
         << 20) |
        static_cast<std::uint32_t>(frame.pc);
    ++frame.pc;

    if (fuel-- == 0) trap("instruction budget exhausted (infinite loop?)");

    switch (kOpClass.cls[static_cast<int>(instr.op)]) {
      case OpClass::IntAlu: ++stats.int_ops; break;
      case OpClass::FloatAlu: ++stats.float_ops; break;
      case OpClass::DoubleAlu: ++stats.double_ops; break;
      default: ++stats.control_ops; break;  // memory adjusted in note_access
    }

    switch (instr.op) {
      case Op::Nop:
        break;
      case Op::PushI: {
        Value v;
        v.i64 = instr.imm;
        push(v);
        break;
      }
      case Op::PushF: {
        Value v;
        v.f32 = std::bit_cast<float>(static_cast<std::uint32_t>(instr.imm));
        push(v);
        break;
      }
      case Op::PushD: {
        Value v;
        v.f64 = std::bit_cast<double>(instr.imm);
        push(v);
        break;
      }
      case Op::Dup:
        push(stack_.back());
        break;
      case Op::Pop:
        stack_.pop_back();
        break;
      case Op::Swap:
        std::swap(stack_[stack_.size() - 1], stack_[stack_.size() - 2]);
        break;
      case Op::LoadSlot:
        push(slots_[frame.slot_base + static_cast<std::size_t>(instr.a)]);
        break;
      case Op::StoreSlot:
        slots_[frame.slot_base + static_cast<std::size_t>(instr.a)] = pop();
        break;
      case Op::PtrAdd: {
        const std::int64_t index = pop().i64;
        top().u64 = pointer_add(top().u64, index * instr.a);
        break;
      }
      case Op::LocalPtr: {
        Value v;
        v.u64 = make_pointer(PtrSpace::Local, 0,
                             static_cast<std::uint64_t>(instr.imm));
        push(v);
        break;
      }
      case Op::PrivatePtr: {
        Value v;
        v.u64 = make_pointer(
            PtrSpace::Private, 0,
            frame.priv_base + static_cast<std::uint64_t>(instr.imm));
        push(v);
        break;
      }

#define HPLREPRO_LOAD_CASE(OPNAME, CTYPE, FIELD, EXT)                       \
  case Op::OPNAME: {                                                        \
    const std::uint64_t ptr = pop().u64;                                    \
    note_access<true>(stats, tracker, item.linear_in_group, ptr,            \
                      sizeof(CTYPE), false, pc_key);                        \
    CTYPE raw;                                                              \
    std::memcpy(&raw, resolve(mem, private_arena_, ptr, sizeof(CTYPE)),     \
                sizeof(CTYPE));                                             \
    Value v;                                                                \
    v.FIELD = EXT(raw);                                                     \
    push(v);                                                                \
    break;                                                                  \
  }
      HPLREPRO_LOAD_CASE(LoadI8, std::int8_t, i64, static_cast<std::int64_t>)
      HPLREPRO_LOAD_CASE(LoadU8, std::uint8_t, u64, static_cast<std::uint64_t>)
      HPLREPRO_LOAD_CASE(LoadI16, std::int16_t, i64, static_cast<std::int64_t>)
      HPLREPRO_LOAD_CASE(LoadU16, std::uint16_t, u64, static_cast<std::uint64_t>)
      HPLREPRO_LOAD_CASE(LoadI32, std::int32_t, i64, static_cast<std::int64_t>)
      HPLREPRO_LOAD_CASE(LoadU32, std::uint32_t, u64, static_cast<std::uint64_t>)
      HPLREPRO_LOAD_CASE(LoadI64, std::int64_t, i64, static_cast<std::int64_t>)
      HPLREPRO_LOAD_CASE(LoadF32, float, f32, )
      HPLREPRO_LOAD_CASE(LoadF64, double, f64, )
#undef HPLREPRO_LOAD_CASE

#define HPLREPRO_STORE_CASE(OPNAME, CTYPE, FIELD)                           \
  case Op::OPNAME: {                                                        \
    const Value v = pop();                                                  \
    const std::uint64_t ptr = pop().u64;                                    \
    note_access<true>(stats, tracker, item.linear_in_group, ptr,            \
                      sizeof(CTYPE), true, pc_key);                         \
    const CTYPE raw = static_cast<CTYPE>(v.FIELD);                          \
    std::memcpy(resolve(mem, private_arena_, ptr, sizeof(CTYPE)), &raw,     \
                sizeof(CTYPE));                                             \
    break;                                                                  \
  }
      HPLREPRO_STORE_CASE(StoreI8, std::int8_t, i64)
      HPLREPRO_STORE_CASE(StoreI16, std::int16_t, i64)
      HPLREPRO_STORE_CASE(StoreI32, std::int32_t, i64)
      HPLREPRO_STORE_CASE(StoreI64, std::int64_t, i64)
      HPLREPRO_STORE_CASE(StoreF32, float, f32)
      HPLREPRO_STORE_CASE(StoreF64, double, f64)
#undef HPLREPRO_STORE_CASE

#define HPLREPRO_BIN_CASE(OPNAME, FIELD, EXPR)                              \
  case Op::OPNAME: {                                                        \
    const Value b = pop();                                                  \
    Value& a = top();                                                       \
    a.FIELD = (EXPR);                                                       \
    break;                                                                  \
  }
      // Integer add/sub/mul (and NegI, MadI) wrap in two's complement:
      // they run on the u64 view because signed overflow is undefined.
      HPLREPRO_BIN_CASE(AddI, u64, a.u64 + b.u64)
      HPLREPRO_BIN_CASE(SubI, u64, a.u64 - b.u64)
      HPLREPRO_BIN_CASE(MulI, u64, a.u64 * b.u64)
      HPLREPRO_BIN_CASE(DivI, i64, b.i64 == 0 ? 0 : (a.i64 == INT64_MIN && b.i64 == -1 ? a.i64 : a.i64 / b.i64))
      HPLREPRO_BIN_CASE(DivU, u64, b.u64 == 0 ? 0 : a.u64 / b.u64)
      HPLREPRO_BIN_CASE(RemI, i64, b.i64 == 0 ? 0 : (a.i64 == INT64_MIN && b.i64 == -1 ? 0 : a.i64 % b.i64))
      HPLREPRO_BIN_CASE(RemU, u64, b.u64 == 0 ? 0 : a.u64 % b.u64)
      HPLREPRO_BIN_CASE(AndI, u64, a.u64 & b.u64)
      HPLREPRO_BIN_CASE(OrI, u64, a.u64 | b.u64)
      HPLREPRO_BIN_CASE(XorI, u64, a.u64 ^ b.u64)
      HPLREPRO_BIN_CASE(ShlI, u64, a.u64 << (b.u64 & 63))
      HPLREPRO_BIN_CASE(ShrI, i64, a.i64 >> (b.u64 & 63))
      HPLREPRO_BIN_CASE(ShrU, u64, a.u64 >> (b.u64 & 63))
      HPLREPRO_BIN_CASE(AddF, f32, a.f32 + b.f32)
      HPLREPRO_BIN_CASE(SubF, f32, a.f32 - b.f32)
      HPLREPRO_BIN_CASE(MulF, f32, a.f32 * b.f32)
      HPLREPRO_BIN_CASE(DivF, f32, a.f32 / b.f32)
      HPLREPRO_BIN_CASE(AddD, f64, a.f64 + b.f64)
      HPLREPRO_BIN_CASE(SubD, f64, a.f64 - b.f64)
      HPLREPRO_BIN_CASE(MulD, f64, a.f64 * b.f64)
      HPLREPRO_BIN_CASE(DivD, f64, a.f64 / b.f64)
      HPLREPRO_BIN_CASE(EqI, i64, a.i64 == b.i64 ? 1 : 0)
      HPLREPRO_BIN_CASE(NeI, i64, a.i64 != b.i64 ? 1 : 0)
      HPLREPRO_BIN_CASE(LtI, i64, a.i64 < b.i64 ? 1 : 0)
      HPLREPRO_BIN_CASE(LeI, i64, a.i64 <= b.i64 ? 1 : 0)
      HPLREPRO_BIN_CASE(GtI, i64, a.i64 > b.i64 ? 1 : 0)
      HPLREPRO_BIN_CASE(GeI, i64, a.i64 >= b.i64 ? 1 : 0)
      HPLREPRO_BIN_CASE(LtU, i64, a.u64 < b.u64 ? 1 : 0)
      HPLREPRO_BIN_CASE(LeU, i64, a.u64 <= b.u64 ? 1 : 0)
      HPLREPRO_BIN_CASE(GtU, i64, a.u64 > b.u64 ? 1 : 0)
      HPLREPRO_BIN_CASE(GeU, i64, a.u64 >= b.u64 ? 1 : 0)
      HPLREPRO_BIN_CASE(EqF, i64, a.f32 == b.f32 ? 1 : 0)
      HPLREPRO_BIN_CASE(NeF, i64, a.f32 != b.f32 ? 1 : 0)
      HPLREPRO_BIN_CASE(LtF, i64, a.f32 < b.f32 ? 1 : 0)
      HPLREPRO_BIN_CASE(LeF, i64, a.f32 <= b.f32 ? 1 : 0)
      HPLREPRO_BIN_CASE(GtF, i64, a.f32 > b.f32 ? 1 : 0)
      HPLREPRO_BIN_CASE(GeF, i64, a.f32 >= b.f32 ? 1 : 0)
      HPLREPRO_BIN_CASE(EqD, i64, a.f64 == b.f64 ? 1 : 0)
      HPLREPRO_BIN_CASE(NeD, i64, a.f64 != b.f64 ? 1 : 0)
      HPLREPRO_BIN_CASE(LtD, i64, a.f64 < b.f64 ? 1 : 0)
      HPLREPRO_BIN_CASE(LeD, i64, a.f64 <= b.f64 ? 1 : 0)
      HPLREPRO_BIN_CASE(GtD, i64, a.f64 > b.f64 ? 1 : 0)
      HPLREPRO_BIN_CASE(GeD, i64, a.f64 >= b.f64 ? 1 : 0)
#undef HPLREPRO_BIN_CASE

      case Op::NegI: top().u64 = 0 - top().u64; break;
      case Op::NotI: top().u64 = ~top().u64; break;
      case Op::NegF: top().f32 = -top().f32; break;
      case Op::NegD: top().f64 = -top().f64; break;
      case Op::LNot: top().i64 = top().i64 == 0 ? 1 : 0; break;
      case Op::Bool: top().i64 = top().i64 != 0 ? 1 : 0; break;

      case Op::Sext8: top().i64 = static_cast<std::int8_t>(top().i64); break;
      case Op::Sext16: top().i64 = static_cast<std::int16_t>(top().i64); break;
      case Op::Sext32: top().i64 = static_cast<std::int32_t>(top().i64); break;
      case Op::Zext8: top().u64 &= 0xFFull; break;
      case Op::Zext16: top().u64 &= 0xFFFFull; break;
      case Op::Zext32: top().u64 &= 0xFFFFFFFFull; break;
      case Op::Zext1: top().u64 &= 1ull; break;

      case Op::I2F: top().f32 = static_cast<float>(top().i64); break;
      case Op::I2D: top().f64 = static_cast<double>(top().i64); break;
      case Op::U2F: top().f32 = static_cast<float>(top().u64); break;
      case Op::U2D: top().f64 = static_cast<double>(top().u64); break;
      case Op::F2I: top().i64 = checked_trunc_i64(top().f32); break;
      case Op::D2I: top().i64 = checked_trunc_i64(top().f64); break;
      case Op::F2U: top().u64 = checked_trunc_u64(top().f32); break;
      case Op::D2U: top().u64 = checked_trunc_u64(top().f64); break;
      case Op::F2D: top().f64 = static_cast<double>(top().f32); break;
      case Op::D2F: top().f32 = static_cast<float>(top().f64); break;

      case Op::Jmp:
        frame.pc = static_cast<std::size_t>(instr.a);
        break;
      case Op::JmpIfZero:
        if (pop().i64 == 0) frame.pc = static_cast<std::size_t>(instr.a);
        break;
      case Op::JmpIfNonZero:
        if (pop().i64 != 0) frame.pc = static_cast<std::size_t>(instr.a);
        break;

      case Op::Call: {
        const CompiledFunction& callee =
            module_->functions[static_cast<std::size_t>(instr.a)];
        const std::size_t nargs = callee.params.size();
        if (frames_.size() >= 64) trap("call stack overflow");
        Frame next;
        next.fn = &callee;
        next.pc = 0;
        next.slot_base = slots_.size();
        next.priv_base = frame.priv_base + fn.private_bytes;
        slots_.resize(next.slot_base +
                      static_cast<std::size_t>(callee.num_slots));
        if (private_arena_.size() < next.priv_base + callee.private_bytes) {
          private_arena_.resize(next.priv_base + callee.private_bytes);
        }
        for (std::size_t i = 0; i < nargs; ++i) {
          slots_[next.slot_base + nargs - 1 - i] = pop();
        }
        frames_.push_back(next);
        break;
      }
      case Op::Ret: {
        // Return value stays on the operand stack for the caller.
        slots_.resize(frame.slot_base);
        frames_.pop_back();
        break;
      }
      case Op::RetVoid:
        slots_.resize(frame.slot_base);
        frames_.pop_back();
        break;

      case Op::BarrierOp: {
        barrier_flags_ = pop().u64;
        ++stats.barriers_executed;
        return RunStatus::Barrier;
      }

      case Op::WorkItemFn: {
        Value v;
        v.u64 = work_item_query(static_cast<Builtin>(instr.a), pop().u64,
                                launch, item);
        push(v);
        break;
      }

      case Op::BuiltinOp: {
        const auto id = static_cast<Builtin>(instr.a);
        const BuiltinInfo& info = builtin_info(id);
        const int arity = info.arity;
        if (is_transcendental(id)) {
          ++stats.special_ops;
        } else if (instr.imm == 1) {
          ++stats.float_ops;
        } else if (instr.imm == 2) {
          ++stats.double_ops;
        } else {
          ++stats.int_ops;
        }
        switch (instr.imm) {
          case 1: {  // f32
            float a[3] = {0, 0, 0};
            for (int i = arity - 1; i >= 0; --i) a[i] = pop().f32;
            Value v;
            v.f32 = apply_math_builtin_f(id, a);
            push(v);
            break;
          }
          case 2: {  // f64
            double a[3] = {0, 0, 0};
            for (int i = arity - 1; i >= 0; --i) a[i] = pop().f64;
            Value v;
            v.f64 = apply_math_builtin_d(id, a);
            push(v);
            break;
          }
          case 0: {  // signed integer
            std::int64_t a[3] = {0, 0, 0};
            for (int i = arity - 1; i >= 0; --i) a[i] = pop().i64;
            Value v;
            switch (id) {
              case Builtin::Min: v.i64 = a[0] < a[1] ? a[0] : a[1]; break;
              case Builtin::Max: v.i64 = a[0] > a[1] ? a[0] : a[1]; break;
              case Builtin::Abs: v.u64 = abs_wrapping(a[0]); break;
              case Builtin::Clamp:
                v.i64 = a[0] < a[1] ? a[1] : (a[0] > a[2] ? a[2] : a[0]);
                break;
              default:
                trap("bad integer builtin");
                v.i64 = 0;
            }
            push(v);
            break;
          }
          default: {  // unsigned integer
            std::uint64_t a[3] = {0, 0, 0};
            for (int i = arity - 1; i >= 0; --i) a[i] = pop().u64;
            Value v;
            switch (id) {
              case Builtin::Min: v.u64 = a[0] < a[1] ? a[0] : a[1]; break;
              case Builtin::Max: v.u64 = a[0] > a[1] ? a[0] : a[1]; break;
              case Builtin::Abs: v.u64 = a[0]; break;
              case Builtin::Clamp:
                v.u64 = a[0] < a[1] ? a[1] : (a[0] > a[2] ? a[2] : a[0]);
                break;
              default:
                trap("bad unsigned builtin");
                v.u64 = 0;
            }
            push(v);
            break;
          }
        }
        break;
      }

#define HPLREPRO_LIDX_CASE(OPNAME, CTYPE, FIELD, EXT)                       \
  case Op::OPNAME: {                                                        \
    const std::int64_t index = pop().i64;                                   \
    const std::uint64_t ptr = pointer_add(pop().u64, index * instr.a);      \
    note_access<true>(stats, tracker, item.linear_in_group, ptr,            \
                      sizeof(CTYPE), false, pc_key);                        \
    CTYPE raw;                                                              \
    std::memcpy(&raw, resolve(mem, private_arena_, ptr, sizeof(CTYPE)),     \
                sizeof(CTYPE));                                             \
    Value v;                                                                \
    v.FIELD = EXT(raw);                                                     \
    push(v);                                                                \
    ++stats.fused_ops;                                                      \
    break;                                                                  \
  }
      HPLREPRO_LIDX_CASE(LIdxI8, std::int8_t, i64, static_cast<std::int64_t>)
      HPLREPRO_LIDX_CASE(LIdxU8, std::uint8_t, u64,
                         static_cast<std::uint64_t>)
      HPLREPRO_LIDX_CASE(LIdxI16, std::int16_t, i64,
                         static_cast<std::int64_t>)
      HPLREPRO_LIDX_CASE(LIdxU16, std::uint16_t, u64,
                         static_cast<std::uint64_t>)
      HPLREPRO_LIDX_CASE(LIdxI32, std::int32_t, i64,
                         static_cast<std::int64_t>)
      HPLREPRO_LIDX_CASE(LIdxU32, std::uint32_t, u64,
                         static_cast<std::uint64_t>)
      HPLREPRO_LIDX_CASE(LIdxI64, std::int64_t, i64,
                         static_cast<std::int64_t>)
      HPLREPRO_LIDX_CASE(LIdxF32, float, f32, )
      HPLREPRO_LIDX_CASE(LIdxF64, double, f64, )
#undef HPLREPRO_LIDX_CASE

#define HPLREPRO_SIDX_CASE(OPNAME, CTYPE, FIELD)                            \
  case Op::OPNAME: {                                                        \
    const Value v = pop();                                                  \
    const std::int64_t index = pop().i64;                                   \
    const std::uint64_t ptr = pointer_add(pop().u64, index * instr.a);      \
    note_access<true>(stats, tracker, item.linear_in_group, ptr,            \
                      sizeof(CTYPE), true, pc_key);                         \
    const CTYPE raw = static_cast<CTYPE>(v.FIELD);                          \
    std::memcpy(resolve(mem, private_arena_, ptr, sizeof(CTYPE)), &raw,     \
                sizeof(CTYPE));                                             \
    ++stats.fused_ops;                                                      \
    break;                                                                  \
  }
      HPLREPRO_SIDX_CASE(SIdxI8, std::int8_t, i64)
      HPLREPRO_SIDX_CASE(SIdxI16, std::int16_t, i64)
      HPLREPRO_SIDX_CASE(SIdxI32, std::int32_t, i64)
      HPLREPRO_SIDX_CASE(SIdxI64, std::int64_t, i64)
      HPLREPRO_SIDX_CASE(SIdxF32, float, f32)
      HPLREPRO_SIDX_CASE(SIdxF64, double, f64)
#undef HPLREPRO_SIDX_CASE

      // Fused multiply-add: product then sum, two roundings, exactly the
      // unfused pair (see bytecode.hpp for the operand-order encoding).
      case Op::MadI: {
        if (instr.a == 0) {
          const Value z = pop();
          const Value y = pop();
          Value& x = top();
          x.u64 = x.u64 * y.u64 + z.u64;
        } else {
          const Value y = pop();
          const Value x = pop();
          Value& z = top();
          z.u64 = z.u64 + x.u64 * y.u64;
        }
        ++stats.fused_ops;
        break;
      }
      case Op::MadF: {
        // Product and sum as separate statements: must round twice, like
        // the unfused MulF; AddF pair (no FMA contraction).
        if (instr.a == 0) {
          const Value z = pop();
          const Value y = pop();
          Value& x = top();
          const float t = x.f32 * y.f32;
          x.f32 = t + z.f32;
        } else {
          const Value y = pop();
          const Value x = pop();
          Value& z = top();
          const float t = x.f32 * y.f32;
          z.f32 = z.f32 + t;
        }
        ++stats.fused_ops;
        break;
      }
      case Op::MadD: {
        if (instr.a == 0) {
          const Value z = pop();
          const Value y = pop();
          Value& x = top();
          const double t = x.f64 * y.f64;
          x.f64 = t + z.f64;
        } else {
          const Value y = pop();
          const Value x = pop();
          Value& z = top();
          const double t = x.f64 * y.f64;
          z.f64 = z.f64 + t;
        }
        ++stats.fused_ops;
        break;
      }
    }
  }

  return RunStatus::Done;
}

// --- Register interpreter ---------------------------------------------------

// Direct-threaded dispatch (labels as values, a GCC/Clang extension). The
// semantic oracle is the stack interpreter above, selected per build with
// -cl-interp=stack.
#if !defined(__GNUC__) && !defined(__clang__)
#error "the register interpreter needs computed goto (GCC or Clang)"
#endif

void RegItemVM::reset(const Module& module, const CompiledFunction& kernel,
                      std::span<const Value> args) {
  if (!module.has_reg_form()) {
    throw InternalError("RegItemVM::reset: module has no register form");
  }
  if (args.size() != kernel.params.size()) {
    throw InternalError("RegItemVM::reset: argument count mismatch");
  }
  module_ = &module;
  const auto index =
      static_cast<std::size_t>(&kernel - module.functions.data());
  const RegFunction& fn = module.reg_functions[index];
  frames_.clear();
  frames_.push_back(RegFrame{&fn, fn.code.data(), 0, kRegNoRet, 1, 0, 0});
  regs_.assign(fn.num_regs, Value{});
  for (std::size_t i = 0; i < args.size(); ++i) regs_[i] = args[i];
  std::copy(fn.consts.begin(), fn.consts.end(),
            regs_.begin() + fn.const_base());
  private_arena_.assign(fn.private_bytes, std::byte{0});
  barrier_flags_ = 0;
  pending_block_ = 0;
}

std::uint64_t RegItemVM::barrier_site() const {
  const auto fn = static_cast<std::uint64_t>(frames_.back().fn -
                                             module_->reg_functions.data());
  return (fn << 32) | pending_block_;
}

// One dispatch loop, two execution shapes. RegRunner::run is the body of
// both register interpreters (see the comment on the definition below).
struct RegRunner {
  template <class VM, bool kLockstep = false>
  static RunStatus run(VM& vm, const MemoryEnv& mem, const LaunchInfo& launch,
                       const WorkItemInfo* items, ExecStats& stats,
                       CoalescingTracker* tracker);
};

// RegRunner::run is the body of both register interpreters:
//   - VM = RegItemVM: one work-item per activation, one lane; barriers
//     suspend (return RunStatus::Barrier) exactly as before.
//   - VM = WorkGroupVM: pocl-style work-item loops — every item of the
//     group executes on this one activation, and a barrier saves each
//     active item's cross-region live registers to its spill row and moves
//     on instead of suspending. kLockstep = true runs whole lane groups of
//     race-free regions, n lanes per dispatch; kLockstep = false runs one
//     lane (item) at a time: regions that are not race-free, groups of
//     one, and the scalar fallback. Each returns to
//     WorkGroupVM::run_phase, with switch_ set, when the next lane group
//     needs the other.
// Every handler runs its instruction for the n active lanes lo..lo+n-1;
// outside lockstep n is the constant 1 and the lane loops fold away. The
// kernel frame's register file is lane-major, register r of lane l at
// regs_[r * stride + l] (stride = kLanes when a region of the launch runs
// lane groups, else 1); WorkGroupVM runs a copy of the kernel whose
// register operands are pre-multiplied by the stride (WorkGroupVM::code_),
// so with R at lane lo an operand of lane lo+l is one index, R[field + l],
// in either VM. Helper frames are plain windows run by one lane (a Call
// drops to the scalar fallback). All mode-specific code sits in
// `if constexpr` branches, so each instantiation only touches the members
// its VM actually has.
template <class VM, bool kLockstep>
RunStatus RegRunner::run(VM& vm, const MemoryEnv& mem,
                         const LaunchInfo& launch, const WorkItemInfo* items,
                         ExecStats& stats, CoalescingTracker* tracker) {
  constexpr bool kWG = std::is_same_v<VM, WorkGroupVM>;

  // Dispatch state. Only this function reads and writes these locals (no
  // closure captures them), so the compiler can keep them in machine
  // registers; see the hot-loop rules in DESIGN.md §4a.
  std::uint64_t fuel = vm.fuel_;
  RegFrame* fr = &vm.frames_.back();
  const RegFunction* fn = fr->fn;
  const RegInstr* code = fr->code;
  const RegInstr* in = nullptr;  // the instruction being executed

  // The active lanes lo..lo+VM_N-1 and what they see: R addresses lane lo
  // of the current frame's registers; item[l] and priv[l] are the
  // identifiers and private arena of lane lo+l. Fixed in item mode; in wg
  // mode the region loop head below rebinds them. VM_N is the constant 1
  // outside lockstep.
  std::size_t lo = 0;
  [[maybe_unused]] std::size_t lanes = 1;
#define VM_N (kLockstep ? lanes : std::size_t{1})
  std::size_t base = 0;  // the item lane 0 runs
  Value* R = vm.regs_.data() + fr->base;
  const WorkItemInfo* item = items;
  std::vector<std::byte>* priv = nullptr;
  if constexpr (kWG) {
    base = vm.group_base_;
  } else {
    priv = &vm.private_arena_;
  }
  // Binds the active lanes of the kernel frame (wg mode).
#define VM_BIND_LANES()                                                     \
  do {                                                                      \
    R = vm.regs_.data() + lo;                                               \
    item = items + base + lo;                                               \
    priv = vm.privs_.data() + base + lo;                                    \
  } while (0)

  // Block-level accounting: one histogram bump per active lane and one
  // fuel burn per block entry, precomputed at lowering time (lanes in
  // lockstep burn the same per-item budget). Summed over a run this equals
  // the stack interpreter's per-instruction counting exactly. Leaves `in`
  // at the block's first instruction.
#define VM_ENTER_BLOCK(B)                                                   \
  do {                                                                      \
    const RegBlock& entered = fn->blocks[B];                                \
    stats.control_ops += entered.control_ops * VM_N;                        \
    stats.int_ops += entered.int_ops * VM_N;                                \
    stats.float_ops += entered.float_ops * VM_N;                            \
    stats.double_ops += entered.double_ops * VM_N;                          \
    stats.special_ops += entered.special_ops * VM_N;                        \
    stats.fused_ops += entered.fused_ops * VM_N;                            \
    if (fuel < entered.fuel) {                                              \
      trap("instruction budget exhausted (infinite loop?)");                \
    }                                                                       \
    fuel -= entered.fuel;                                                   \
    in = code + entered.start;                                              \
  } while (0)

  // Runs the statements for every active lane l (lane lo+l).
#define VM_LANES(...)                                                       \
  for (std::size_t l = 0; l < VM_N; ++l) {                                  \
    __VA_ARGS__                                                             \
  }
  // Lane lo of a register operand.
#define VM_ROW(REG) (R + (REG))

  // Accounts lane l's access of CTYPE at PTR by the current memory
  // instruction and declares HOST, its bounds-checked host address. A
  // lockstep fault records where it happened before trapping, so
  // WorkGroupVM::run_phase can let the lower lanes finish first.
#define VM_ACCESS(HOST, PTR, CTYPE, STORE)                                  \
  note_access<false>(stats, tracker, item[l].linear_in_group, (PTR),        \
                     sizeof(CTYPE), (STORE),                                \
                     static_cast<std::uint32_t>(in->aux));                  \
  std::byte* const HOST = try_resolve(mem, priv[l], (PTR), sizeof(CTYPE));  \
  if (HOST == nullptr) [[unlikely]] {                                       \
    if constexpr (kLockstep) {                                              \
      vm.fault_ = {true, static_cast<std::uint32_t>(l), in, fuel};          \
    }                                                                       \
    access_trap(mem, (PTR));                                                \
  }

  static const void* const kLabels[] = {
#define HPLREPRO_VM_LABEL(name) &&L_##name,
      HPLREPRO_REG_OPS(HPLREPRO_VM_LABEL)
#undef HPLREPRO_VM_LABEL
  };
#define VM_CASE(name) L_##name:
#define VM_JUMP goto* kLabels[static_cast<int>(in->op)];
  // VM_NEXT runs the following instruction. Control transfers (Br, BrIf,
  // Call, Ret, RetVoid) leave `in` at their target and end with VM_JUMP.
#define VM_NEXT                                                             \
  ++in;                                                                     \
  VM_JUMP

  // One trip per region entry. Item mode makes exactly one: kernel entry
  // accounts block 0, resumption after a barrier the barrier's resume
  // block. In wg mode a handler that ends a region for the active lanes
  // (kernel-level return or barrier) `continue`s here to run the next lane
  // of a scalar fallback or the next lane group.
  for (;;) {
    if constexpr (kWG) {
      WorkGroupVM::Fallback& fb = vm.fallback_;
      if (!kLockstep && fb.in != nullptr) {
        if (fb.next < fb.end) {
          // The next lane finishes the region alone from the divergence
          // point, with the fuel the lane group had there.
          lo = fb.next++;
          VM_BIND_LANES();
          fuel = fb.fuel;
          in = fb.in;
          VM_JUMP
        }
        fb.in = nullptr;
        if (fb.stop) return RunStatus::Done;
      }
      // Advance to the next lane group of the phase and enter its region:
      // restore each item's spill row into its lane, reset the per-item
      // fuel budget (each item-region entry gets the full budget, exactly
      // like a per-item run() call), account the region's entry block.
      // Barriers only occur at frame depth 1 (eligible kernels have no
      // barriers inside callees), so fr/fn/code still address the kernel
      // frame, whose window starts at regs_[0].
      const std::size_t items_n = vm.group_items_;
      const bool phase_start = vm.group_width_ == 0;
      base = vm.group_base_ + vm.group_width_;
      if (base >= items_n) {
        // The phase is over: every item has finished or waits at a barrier.
        return vm.phase_at_barrier_ != 0 ? RunStatus::Barrier
                                         : RunStatus::Done;
      }
      const std::uint32_t entry = vm.phase_entry_;
      const std::size_t width =
          vm.lanes_by_block_[entry]
              ? std::min(WorkGroupVM::kLanes, items_n - base)
              : 1;
      if ((width > 1) != kLockstep) {
        vm.switch_ = true;  // the other instantiation runs this lane group
        return RunStatus::Done;
      }
      vm.group_base_ = base;
      vm.group_width_ = width;
      lo = 0;
      lanes = width;
      VM_BIND_LANES();
      const std::size_t L = vm.stride_;
      const auto span = vm.restore_by_block_[entry];
      const auto* pairs = vm.spill_pairs_.data() + span.begin;
      for (std::size_t l = 0; l < width; ++l) {
        // A fresh item (entry block 0) restores from the argument image; a
        // resumed one from the spill columns its barrier save wrote.
        const Value* src =
            entry == 0 ? vm.spill_init_.data()
                       : vm.spills_.data() + (base + l) * vm.spill_stride_;
        for (std::uint32_t k = 0; k < span.len; ++k) {
          R[pairs[k].first * L + l] = src[pairs[k].second];
        }
      }
      fuel = vm.fuel_;
      vm.regions_executed_ += width;
      const RegInstr* prologue = vm.prologue_by_block_[entry];
      if (phase_start && prologue != nullptr) {
        // Every item of the phase enters this region (the divergent-barrier
        // trap guarantees it), so its group-invariant values are computed
        // once, here, for the first lane group's lanes (run_group
        // broadcasts them to the others after the phase); the prologue's
        // closing Br enters the block for those lanes with the usual
        // accounting.
        in = prologue;
      } else {
        VM_ENTER_BLOCK(entry);
      }
    } else {
      VM_ENTER_BLOCK(vm.pending_block_);
    }

    VM_JUMP

  VM_CASE(Mov) {
    Value* const d = VM_ROW(in->dst);
    const Value* const a = VM_ROW(in->a);
    VM_LANES(d[l] = a[l];)
  }
  VM_NEXT

  VM_CASE(PrivPtr) {
    Value* const d = VM_ROW(in->dst);
    const std::uint64_t ptr =
        make_pointer(PtrSpace::Private, 0,
                     fr->priv_base + static_cast<std::uint64_t>(in->imm));
    VM_LANES(d[l].u64 = ptr;)
  }
  VM_NEXT

  VM_CASE(PtrAdd) {
    Value* const d = VM_ROW(in->dst);
    const Value* const a = VM_ROW(in->a);
    const Value* const b = VM_ROW(in->b);
    const std::int64_t scale = in->imm;
    VM_LANES(d[l].u64 = pointer_add(a[l].u64, b[l].i64 * scale);)
  }
  VM_NEXT

#define HPLREPRO_RLOAD(NAME, CTYPE, FIELD, EXT)                             \
  VM_CASE(NAME) {                                                           \
    Value* const d = VM_ROW(in->dst);                                       \
    const Value* const a = VM_ROW(in->a);                                   \
    VM_LANES(const std::uint64_t ptr = a[l].u64;                            \
             VM_ACCESS(host, ptr, CTYPE, false)                             \
             CTYPE raw;                                                     \
             std::memcpy(&raw, host, sizeof(CTYPE));                        \
             d[l].FIELD = EXT(raw);)                                        \
  }                                                                         \
  VM_NEXT
  HPLREPRO_RLOAD(LoadI8, std::int8_t, i64, static_cast<std::int64_t>)
  HPLREPRO_RLOAD(LoadU8, std::uint8_t, u64, static_cast<std::uint64_t>)
  HPLREPRO_RLOAD(LoadI16, std::int16_t, i64, static_cast<std::int64_t>)
  HPLREPRO_RLOAD(LoadU16, std::uint16_t, u64, static_cast<std::uint64_t>)
  HPLREPRO_RLOAD(LoadI32, std::int32_t, i64, static_cast<std::int64_t>)
  HPLREPRO_RLOAD(LoadU32, std::uint32_t, u64, static_cast<std::uint64_t>)
  HPLREPRO_RLOAD(LoadI64, std::int64_t, i64, static_cast<std::int64_t>)
  HPLREPRO_RLOAD(LoadF32, float, f32, )
  HPLREPRO_RLOAD(LoadF64, double, f64, )
#undef HPLREPRO_RLOAD

#define HPLREPRO_RSTORE(NAME, CTYPE, FIELD)                                 \
  VM_CASE(NAME) {                                                           \
    const Value* const a = VM_ROW(in->a);                                   \
    const Value* const b = VM_ROW(in->b);                                   \
    VM_LANES(const std::uint64_t ptr = a[l].u64;                            \
             const CTYPE raw = static_cast<CTYPE>(b[l].FIELD);              \
             VM_ACCESS(host, ptr, CTYPE, true)                              \
             std::memcpy(host, &raw, sizeof(CTYPE));)                       \
  }                                                                         \
  VM_NEXT
  HPLREPRO_RSTORE(StoreI8, std::int8_t, i64)
  HPLREPRO_RSTORE(StoreI16, std::int16_t, i64)
  HPLREPRO_RSTORE(StoreI32, std::int32_t, i64)
  HPLREPRO_RSTORE(StoreI64, std::int64_t, i64)
  HPLREPRO_RSTORE(StoreF32, float, f32)
  HPLREPRO_RSTORE(StoreF64, double, f64)
#undef HPLREPRO_RSTORE

#define HPLREPRO_RLIDX(NAME, CTYPE, FIELD, EXT)                             \
  VM_CASE(NAME) {                                                           \
    Value* const d = VM_ROW(in->dst);                                       \
    const Value* const a = VM_ROW(in->a);                                   \
    const Value* const b = VM_ROW(in->b);                                   \
    const std::int64_t scale = in->imm;                                     \
    VM_LANES(                                                               \
        const std::uint64_t ptr = pointer_add(a[l].u64, b[l].i64 * scale);  \
        VM_ACCESS(host, ptr, CTYPE, false)                                  \
        CTYPE raw;                                                          \
        std::memcpy(&raw, host, sizeof(CTYPE));                             \
        d[l].FIELD = EXT(raw);)                                             \
  }                                                                         \
  VM_NEXT
  HPLREPRO_RLIDX(LIdxI8, std::int8_t, i64, static_cast<std::int64_t>)
  HPLREPRO_RLIDX(LIdxU8, std::uint8_t, u64, static_cast<std::uint64_t>)
  HPLREPRO_RLIDX(LIdxI16, std::int16_t, i64, static_cast<std::int64_t>)
  HPLREPRO_RLIDX(LIdxU16, std::uint16_t, u64, static_cast<std::uint64_t>)
  HPLREPRO_RLIDX(LIdxI32, std::int32_t, i64, static_cast<std::int64_t>)
  HPLREPRO_RLIDX(LIdxU32, std::uint32_t, u64, static_cast<std::uint64_t>)
  HPLREPRO_RLIDX(LIdxI64, std::int64_t, i64, static_cast<std::int64_t>)
  HPLREPRO_RLIDX(LIdxF32, float, f32, )
  HPLREPRO_RLIDX(LIdxF64, double, f64, )
#undef HPLREPRO_RLIDX

#define HPLREPRO_RSIDX(NAME, CTYPE, FIELD)                                  \
  VM_CASE(NAME) {                                                           \
    const Value* const a = VM_ROW(in->a);                                   \
    const Value* const b = VM_ROW(in->b);                                   \
    const Value* const c = VM_ROW(in->c);                                   \
    const std::int64_t scale = in->imm;                                     \
    VM_LANES(                                                               \
        const std::uint64_t ptr = pointer_add(a[l].u64, b[l].i64 * scale);  \
        const CTYPE raw = static_cast<CTYPE>(c[l].FIELD);                   \
        VM_ACCESS(host, ptr, CTYPE, true)                                   \
        std::memcpy(host, &raw, sizeof(CTYPE));)                            \
  }                                                                         \
  VM_NEXT
  HPLREPRO_RSIDX(SIdxI8, std::int8_t, i64)
  HPLREPRO_RSIDX(SIdxI16, std::int16_t, i64)
  HPLREPRO_RSIDX(SIdxI32, std::int32_t, i64)
  HPLREPRO_RSIDX(SIdxI64, std::int64_t, i64)
  HPLREPRO_RSIDX(SIdxF32, float, f32)
  HPLREPRO_RSIDX(SIdxF64, double, f64)
#undef HPLREPRO_RSIDX

#define HPLREPRO_RBIN(NAME, FIELD, EXPR)                                    \
  VM_CASE(NAME) {                                                           \
    Value* const d = VM_ROW(in->dst);                                       \
    const Value* const x = VM_ROW(in->a);                                   \
    const Value* const y = VM_ROW(in->b);                                   \
    VM_LANES(const Value a = x[l]; const Value b = y[l];                    \
             d[l].FIELD = (EXPR);)                                          \
  }                                                                         \
  VM_NEXT
  // Wrapping integer arithmetic on the u64 view, as in the stack VM.
  HPLREPRO_RBIN(AddI, u64, a.u64 + b.u64)
  HPLREPRO_RBIN(SubI, u64, a.u64 - b.u64)
  HPLREPRO_RBIN(MulI, u64, a.u64 * b.u64)
  HPLREPRO_RBIN(DivI, i64, b.i64 == 0 ? 0 : (a.i64 == INT64_MIN && b.i64 == -1 ? a.i64 : a.i64 / b.i64))
  HPLREPRO_RBIN(DivU, u64, b.u64 == 0 ? 0 : a.u64 / b.u64)
  HPLREPRO_RBIN(RemI, i64, b.i64 == 0 ? 0 : (a.i64 == INT64_MIN && b.i64 == -1 ? 0 : a.i64 % b.i64))
  HPLREPRO_RBIN(RemU, u64, b.u64 == 0 ? 0 : a.u64 % b.u64)
  HPLREPRO_RBIN(AndI, u64, a.u64 & b.u64)
  HPLREPRO_RBIN(OrI, u64, a.u64 | b.u64)
  HPLREPRO_RBIN(XorI, u64, a.u64 ^ b.u64)
  HPLREPRO_RBIN(ShlI, u64, a.u64 << (b.u64 & 63))
  HPLREPRO_RBIN(ShrI, i64, a.i64 >> (b.u64 & 63))
  HPLREPRO_RBIN(ShrU, u64, a.u64 >> (b.u64 & 63))
  HPLREPRO_RBIN(AddF, f32, a.f32 + b.f32)
  HPLREPRO_RBIN(SubF, f32, a.f32 - b.f32)
  HPLREPRO_RBIN(MulF, f32, a.f32 * b.f32)
  HPLREPRO_RBIN(DivF, f32, a.f32 / b.f32)
  HPLREPRO_RBIN(AddD, f64, a.f64 + b.f64)
  HPLREPRO_RBIN(SubD, f64, a.f64 - b.f64)
  HPLREPRO_RBIN(MulD, f64, a.f64 * b.f64)
  HPLREPRO_RBIN(DivD, f64, a.f64 / b.f64)
  HPLREPRO_RBIN(EqI, i64, a.i64 == b.i64 ? 1 : 0)
  HPLREPRO_RBIN(NeI, i64, a.i64 != b.i64 ? 1 : 0)
  HPLREPRO_RBIN(LtI, i64, a.i64 < b.i64 ? 1 : 0)
  HPLREPRO_RBIN(LeI, i64, a.i64 <= b.i64 ? 1 : 0)
  HPLREPRO_RBIN(GtI, i64, a.i64 > b.i64 ? 1 : 0)
  HPLREPRO_RBIN(GeI, i64, a.i64 >= b.i64 ? 1 : 0)
  HPLREPRO_RBIN(LtU, i64, a.u64 < b.u64 ? 1 : 0)
  HPLREPRO_RBIN(LeU, i64, a.u64 <= b.u64 ? 1 : 0)
  HPLREPRO_RBIN(GtU, i64, a.u64 > b.u64 ? 1 : 0)
  HPLREPRO_RBIN(GeU, i64, a.u64 >= b.u64 ? 1 : 0)
  HPLREPRO_RBIN(EqF, i64, a.f32 == b.f32 ? 1 : 0)
  HPLREPRO_RBIN(NeF, i64, a.f32 != b.f32 ? 1 : 0)
  HPLREPRO_RBIN(LtF, i64, a.f32 < b.f32 ? 1 : 0)
  HPLREPRO_RBIN(LeF, i64, a.f32 <= b.f32 ? 1 : 0)
  HPLREPRO_RBIN(GtF, i64, a.f32 > b.f32 ? 1 : 0)
  HPLREPRO_RBIN(GeF, i64, a.f32 >= b.f32 ? 1 : 0)
  HPLREPRO_RBIN(EqD, i64, a.f64 == b.f64 ? 1 : 0)
  HPLREPRO_RBIN(NeD, i64, a.f64 != b.f64 ? 1 : 0)
  HPLREPRO_RBIN(LtD, i64, a.f64 < b.f64 ? 1 : 0)
  HPLREPRO_RBIN(LeD, i64, a.f64 <= b.f64 ? 1 : 0)
  HPLREPRO_RBIN(GtD, i64, a.f64 > b.f64 ? 1 : 0)
  HPLREPRO_RBIN(GeD, i64, a.f64 >= b.f64 ? 1 : 0)
#undef HPLREPRO_RBIN

#define HPLREPRO_RUN1(NAME, FIELD, EXPR)                                    \
  VM_CASE(NAME) {                                                           \
    Value* const d = VM_ROW(in->dst);                                       \
    const Value* const x = VM_ROW(in->a);                                   \
    VM_LANES(const Value a = x[l]; d[l].FIELD = (EXPR);)                    \
  }                                                                         \
  VM_NEXT
  HPLREPRO_RUN1(NegI, u64, 0 - a.u64)
  HPLREPRO_RUN1(NotI, u64, ~a.u64)
  HPLREPRO_RUN1(NegF, f32, -a.f32)
  HPLREPRO_RUN1(NegD, f64, -a.f64)
  HPLREPRO_RUN1(LNot, i64, a.i64 == 0 ? 1 : 0)
  HPLREPRO_RUN1(Bool, i64, a.i64 != 0 ? 1 : 0)
  HPLREPRO_RUN1(Sext8, i64, static_cast<std::int8_t>(a.i64))
  HPLREPRO_RUN1(Sext16, i64, static_cast<std::int16_t>(a.i64))
  HPLREPRO_RUN1(Sext32, i64, static_cast<std::int32_t>(a.i64))
  HPLREPRO_RUN1(Zext8, u64, a.u64 & 0xFFull)
  HPLREPRO_RUN1(Zext16, u64, a.u64 & 0xFFFFull)
  HPLREPRO_RUN1(Zext32, u64, a.u64 & 0xFFFFFFFFull)
  HPLREPRO_RUN1(Zext1, u64, a.u64 & 1ull)
  HPLREPRO_RUN1(I2F, f32, static_cast<float>(a.i64))
  HPLREPRO_RUN1(I2D, f64, static_cast<double>(a.i64))
  HPLREPRO_RUN1(U2F, f32, static_cast<float>(a.u64))
  HPLREPRO_RUN1(U2D, f64, static_cast<double>(a.u64))
  HPLREPRO_RUN1(F2I, i64, checked_trunc_i64(a.f32))
  HPLREPRO_RUN1(D2I, i64, checked_trunc_i64(a.f64))
  HPLREPRO_RUN1(F2U, u64, checked_trunc_u64(a.f32))
  HPLREPRO_RUN1(D2U, u64, checked_trunc_u64(a.f64))
  HPLREPRO_RUN1(F2D, f64, static_cast<double>(a.f32))
  HPLREPRO_RUN1(D2F, f32, static_cast<float>(a.f64))
#undef HPLREPRO_RUN1

  VM_CASE(MadI) {
    // Integer add commutes, so the operand-order bit is irrelevant here.
    Value* const d = VM_ROW(in->dst);
    const Value* const x = VM_ROW(in->a);
    const Value* const y = VM_ROW(in->b);
    const Value* const z = VM_ROW(in->c);
    VM_LANES(d[l].u64 = x[l].u64 * y[l].u64 + z[l].u64;)
  }
  VM_NEXT

  VM_CASE(MadF) {
    // Two roundings, addend order per the encoding — bit-identical with
    // the stack interpreter's MadF.
    Value* const d = VM_ROW(in->dst);
    const Value* const x = VM_ROW(in->a);
    const Value* const y = VM_ROW(in->b);
    const Value* const z = VM_ROW(in->c);
    const bool product_first = in->aux == 0;
    VM_LANES(const float t = x[l].f32 * y[l].f32; const float w = z[l].f32;
             d[l].f32 = product_first ? t + w : w + t;)
  }
  VM_NEXT

  VM_CASE(MadD) {
    Value* const d = VM_ROW(in->dst);
    const Value* const x = VM_ROW(in->a);
    const Value* const y = VM_ROW(in->b);
    const Value* const z = VM_ROW(in->c);
    const bool product_first = in->aux == 0;
    VM_LANES(const double t = x[l].f64 * y[l].f64; const double w = z[l].f64;
             d[l].f64 = product_first ? t + w : w + t;)
  }
  VM_NEXT

  VM_CASE(Br) { VM_ENTER_BLOCK(static_cast<std::uint32_t>(in->aux)); }
  VM_JUMP

  // Lanes that disagree, and calls, end lockstep: each lane of the group
  // then runs alone from this instruction with the fuel the group had
  // (the scalar fallback).
#define VM_FALL_BACK()                                                      \
  do {                                                                      \
    vm.fallback_ = {in, fuel, 0, static_cast<std::uint32_t>(lanes), false}; \
    vm.switch_ = true;                                                      \
    return RunStatus::Done;                                                 \
  } while (0)

  VM_CASE(BrIf) {
    const Value* const cond = VM_ROW(in->a);
    const bool taken = cond[0].i64 != 0;
    if constexpr (kLockstep) {
      for (std::size_t l = 1; l < VM_N; ++l) {
        if ((cond[l].i64 != 0) != taken) VM_FALL_BACK();
      }
    }
    VM_ENTER_BLOCK(taken ? in->dst : static_cast<std::uint32_t>(in->aux));
  }
  VM_JUMP

  // Calls run one lane at a time. A helper frame is a plain register
  // window.
  VM_CASE(Call) {
    if constexpr (kLockstep) VM_FALL_BACK();
    if (vm.frames_.size() >= 64) trap("call stack overflow");
    const RegFunction& callee =
        vm.module_->reg_functions[static_cast<std::size_t>(in->aux)];
    const std::size_t stride = fr->stride;
    const auto caller = static_cast<std::size_t>(R - vm.regs_.data());
    fr->pc = static_cast<std::uint32_t>(in + 1 - code);
    RegFrame next;
    next.fn = &callee;
    next.code = callee.code.data();
    next.ret_reg = in->b ? static_cast<std::uint32_t>(caller + in->dst)
                         : kRegNoRet;
    next.base = vm.regs_.size();
    next.priv_base = fr->priv_base + fn->private_bytes;
    // resize value-initializes the new registers (callee locals are zero,
    // like the stack interpreter's fresh slots).
    vm.regs_.resize(next.base + callee.num_regs);
    for (std::size_t i = 0; i < callee.num_params; ++i) {
      vm.regs_[next.base + i] = vm.regs_[caller + in->a + i * stride];
    }
    std::copy(callee.consts.begin(), callee.consts.end(),
              vm.regs_.begin() + next.base + callee.const_base());
    if (priv->size() < next.priv_base + callee.private_bytes) {
      priv->resize(next.priv_base + callee.private_bytes);
    }
    vm.frames_.push_back(next);
    fr = &vm.frames_.back();
    fn = &callee;
    code = fr->code;
    R = vm.regs_.data() + fr->base;
    VM_ENTER_BLOCK(0);
  }
  VM_JUMP

  // Back to the caller, whose window holds lane lo at `R` again.
#define VM_POP_FRAME()                                                      \
  do {                                                                      \
    vm.regs_.resize(fr->base);                                              \
    vm.frames_.pop_back();                                                  \
    if (vm.frames_.empty()) return RunStatus::Done;                         \
    fr = &vm.frames_.back();                                                \
    fn = fr->fn;                                                            \
    code = fr->code;                                                        \
    R = vm.regs_.data() + fr->base + (vm.frames_.size() == 1 ? lo : 0);     \
    in = code + fr->pc;                                                     \
  } while (0)

  VM_CASE(Ret) {
    if constexpr (kWG) {
      if (vm.frames_.size() == 1) {
        // Kernel-level return: the active items are finished. Keep the
        // shared kernel frame and move the loop on.
        vm.done_count_ += VM_N;
        vm.phase_finished_ += VM_N;
        continue;
      }
    }
    const Value result = R[in->a];
    const std::uint32_t rr = fr->ret_reg;
    VM_POP_FRAME();
    if (rr != kRegNoRet) vm.regs_[rr] = result;
  }
  VM_JUMP

  VM_CASE(RetVoid) {
    if constexpr (kWG) {
      if (vm.frames_.size() == 1) {
        vm.done_count_ += VM_N;
        vm.phase_finished_ += VM_N;
        continue;
      }
    }
    VM_POP_FRAME();
  }
  VM_JUMP

  VM_CASE(Barrier) {
    vm.barrier_flags_ = R[in->a].u64;
    stats.barriers_executed += VM_N;
    const auto resume = static_cast<std::uint32_t>(in->aux);
    if constexpr (kWG) {
      // A barrier the front end did not record would have made the kernel
      // ineligible; mirror the item-mode fast path's trap just in case.
      if (!vm.uses_barrier_) {
        trap("kernel reached a barrier not seen at compile time");
      }
      // Save the resume block's save list — the live registers a region
      // reaching this barrier may have modified; the rest already sit in
      // their spill columns — for every active item, then move on.
      const auto span = vm.save_by_block_[resume];
      const auto* pairs = vm.spill_pairs_.data() + span.begin;
      const std::size_t L = vm.stride_;
      for (std::size_t l = 0; l < VM_N; ++l) {
        Value* row = vm.spills_.data() + (base + lo + l) * vm.spill_stride_;
        for (std::uint32_t k = 0; k < span.len; ++k) {
          row[pairs[k].second] = R[pairs[k].first * L + l];
        }
      }
      if (vm.phase_at_barrier_ == 0) {
        vm.phase_resume_ = resume;
      } else if (resume != vm.phase_resume_) {
        vm.phase_diverged_ = true;
      }
      vm.phase_at_barrier_ += VM_N;
      continue;
    } else {
      // Suspend: the register file (regs_/frames_) is the saved state; the
      // resume block is accounted on the next run() call.
      vm.pending_block_ = resume;
      return RunStatus::Barrier;
    }
  }

  VM_CASE(WorkItem) {
    Value* const d = VM_ROW(in->dst);
    const Value* const dim = VM_ROW(in->a);
    const auto id = static_cast<Builtin>(in->aux);
    VM_LANES(d[l].u64 = work_item_query(id, dim[l].u64, launch, item[l]);)
  }
  VM_NEXT

  VM_CASE(BuiltinFn) {
    const auto id = static_cast<Builtin>(in->aux);
    const int arity = in->b;
    Value* const d = VM_ROW(in->dst);
    // Argument i of lane l sits at args[i * stride + l].
    const Value* const args = VM_ROW(in->a);
    const std::size_t stride = fr->stride;
    switch (in->c) {
      case 1: {  // f32
        VM_LANES(float a[3] = {0, 0, 0};
                 for (int i = 0; i < arity; ++i) a[i] = args[i * stride + l].f32;
                 d[l].f32 = apply_math_builtin_f(id, a);)
        break;
      }
      case 2: {  // f64
        VM_LANES(double a[3] = {0, 0, 0};
                 for (int i = 0; i < arity; ++i) a[i] = args[i * stride + l].f64;
                 d[l].f64 = apply_math_builtin_d(id, a);)
        break;
      }
      case 0: {  // signed integer
        VM_LANES(
            std::int64_t a[3] = {0, 0, 0};
            for (int i = 0; i < arity; ++i) a[i] = args[i * stride + l].i64;
            std::int64_t v = 0;
            switch (id) {
              case Builtin::Min: v = a[0] < a[1] ? a[0] : a[1]; break;
              case Builtin::Max: v = a[0] > a[1] ? a[0] : a[1]; break;
              case Builtin::Abs:
                v = static_cast<std::int64_t>(abs_wrapping(a[0]));
                break;
              case Builtin::Clamp:
                v = a[0] < a[1] ? a[1] : (a[0] > a[2] ? a[2] : a[0]);
                break;
              default:
                trap("bad integer builtin");
            }
            d[l].i64 = v;)
        break;
      }
      default: {  // unsigned integer
        VM_LANES(
            std::uint64_t a[3] = {0, 0, 0};
            for (int i = 0; i < arity; ++i) a[i] = args[i * stride + l].u64;
            std::uint64_t v = 0;
            switch (id) {
              case Builtin::Min: v = a[0] < a[1] ? a[0] : a[1]; break;
              case Builtin::Max: v = a[0] > a[1] ? a[0] : a[1]; break;
              case Builtin::Abs: v = a[0]; break;
              case Builtin::Clamp:
                v = a[0] < a[1] ? a[1] : (a[0] > a[2] ? a[2] : a[0]);
                break;
              default:
                trap("bad unsigned builtin");
            }
            d[l].u64 = v;)
        break;
      }
    }
  }
  VM_NEXT
  }
#undef VM_N
#undef VM_FALL_BACK
#undef VM_BIND_LANES
#undef VM_ENTER_BLOCK
#undef VM_LANES
#undef VM_ROW
#undef VM_ACCESS
#undef VM_POP_FRAME
#undef VM_CASE
#undef VM_JUMP
#undef VM_NEXT
}

RunStatus RegItemVM::run(const MemoryEnv& mem, const LaunchInfo& launch,
                         const WorkItemInfo& item, ExecStats& stats,
                         CoalescingTracker* tracker) {
  return RegRunner::run(*this, mem, launch, &item, stats, tracker);
}

// --- Work-group execution mode ----------------------------------------------

namespace {

// Do the lanes of one lane group run consecutive dim-0 ids? Lane groups
// are consecutive linear items, which stay in one row of the group when
// the rows are whole multiples of the lane count.
bool lane_ids_consecutive(const LaunchInfo& launch, std::size_t lanes) {
  return launch.local_size[1] * launch.local_size[2] == 1 ||
         launch.local_size[0] % lanes == 0;
}

// The launch-time half of the lanes rule: arguments that share memory
// are one root. Roots at the same address must agree on their one index
// when either is stored; roots that overlap at different addresses keep
// the region scalar when either is stored. Buffer arguments may name one
// buffer through several table entries, so global roots are compared by
// host address.
bool roots_disjoint(const std::vector<WgInfo::LaneRoot>& roots,
                    std::span<const Value> args,
                    std::span<const std::span<std::byte>> buffers) {
  // The host range a pointer argument addresses (its whole buffer from
  // the pointer on), or the arena offset for __local.
  struct Range {
    bool local;
    std::uintptr_t begin;
    std::uintptr_t end;
  };
  const auto range_of = [&](std::uint64_t ptr) {
    const std::uint64_t offset = pointer_offset(ptr);
    if (pointer_space(ptr) == PtrSpace::Local) {
      return Range{true, offset, UINTPTR_MAX};
    }
    const std::uint64_t buffer = pointer_buffer(ptr);
    if (buffer >= buffers.size()) return Range{false, 0, 0};
    const auto data = reinterpret_cast<std::uintptr_t>(buffers[buffer].data());
    return Range{false, data + offset, data + buffers[buffer].size()};
  };
  for (std::size_t i = 0; i < roots.size(); ++i) {
    for (std::size_t j = i + 1; j < roots.size(); ++j) {
      const WgInfo::LaneRoot& a = roots[i];
      const WgInfo::LaneRoot& b = roots[j];
      if (!a.stored && !b.stored) continue;
      const Range ra = range_of(args[a.param].u64);
      const Range rb = range_of(args[b.param].u64);
      if (ra.local != rb.local) continue;
      const bool overlap = ra.begin < rb.end && rb.begin < ra.end;
      if (!overlap && !ra.local) continue;
      if (ra.begin != rb.begin) return false;
      if (a.index == 0 || a.index != b.index) return false;
    }
  }
  return true;
}

// Multiplies the register operands of `in` by `lanes`, the stride of the
// work-group VM's lane-major kernel frame. Block ids, callee and builtin
// ids, counts and immediates stay.
void scale_registers(RegInstr& in, std::uint16_t lanes) {
  const RegOp op = in.op;
  const auto between = [&](RegOp lo, RegOp hi) {
    return static_cast<int>(op) >= static_cast<int>(lo) &&
           static_cast<int>(op) <= static_cast<int>(hi);
  };
  bool dst = false, a = false, b = false, c = false;
  if (op == RegOp::Mov || op == RegOp::WorkItem ||
      between(RegOp::LoadI8, RegOp::LoadF64) ||
      between(RegOp::NegI, RegOp::D2F)) {
    dst = a = true;
  } else if (op == RegOp::PrivPtr) {
    dst = true;
  } else if (op == RegOp::PtrAdd || between(RegOp::LIdxI8, RegOp::LIdxF64) ||
             between(RegOp::AddI, RegOp::GeD)) {
    dst = a = b = true;
  } else if (between(RegOp::StoreI8, RegOp::StoreF64)) {
    a = b = true;
  } else if (between(RegOp::SIdxI8, RegOp::SIdxF64)) {
    a = b = c = true;
  } else if (between(RegOp::MadI, RegOp::MadD)) {
    dst = a = b = c = true;
  } else if (op == RegOp::BrIf || op == RegOp::Ret || op == RegOp::Barrier) {
    a = true;  // BrIf's dst is a block
  } else if (op == RegOp::Call) {
    a = true;
    dst = in.b != 0;
  } else if (op == RegOp::BuiltinFn) {
    dst = a = true;  // b is the arity, c the scalar class
  }
  if (dst) in.dst = static_cast<std::uint16_t>(in.dst * lanes);
  if (a) in.a = static_cast<std::uint16_t>(in.a * lanes);
  if (b) in.b = static_cast<std::uint16_t>(in.b * lanes);
  if (c) in.c = static_cast<std::uint16_t>(in.c * lanes);
}

}  // namespace

void WorkGroupVM::prepare(const Module& module, const CompiledFunction& kernel,
                          std::span<const Value> args,
                          std::span<const std::span<std::byte>> buffers,
                          const LaunchInfo& launch,
                          const CoalescingTracker* tracker) {
  if (!module.has_wg_form()) {
    throw InternalError("WorkGroupVM::prepare: module has no wg form");
  }
  if (args.size() != kernel.params.size()) {
    throw InternalError("WorkGroupVM::prepare: argument count mismatch");
  }
  module_ = &module;
  const auto index =
      static_cast<std::size_t>(&kernel - module.functions.data());
  if (!module.wg_info[index].eligible) {
    throw InternalError("WorkGroupVM::prepare: kernel not wg-eligible");
  }
  kernel_fn_ = &module.reg_functions[index];
  wg_ = &module.wg_info[index];
  uses_barrier_ = kernel.uses_barrier;
  kernel_priv_bytes_ = kernel_fn_->private_bytes;
  const std::size_t group_items =
      launch.local_size[0] * launch.local_size[1] * launch.local_size[2];
  group_items_ = group_items;


  // Per-item spill row template: parameter registers get the launch
  // arguments (parameters occupy registers 0..num_params-1), everything
  // else starts zeroed, matching RegItemVM::reset's fresh register file.
  const std::size_t live_n = wg_->live_regs.size();
  spill_init_.assign(live_n, Value{});
  for (std::size_t k = 0; k < live_n; ++k) {
    const std::uint16_t r = wg_->live_regs[k];
    if (r < args.size()) spill_init_[k] = args[r];
  }
  spills_.resize(group_items * live_n);
  spill_stride_ = live_n;
  privs_.resize(group_items);

  // Flatten the per-entry restore/save lists into per-block spans over one
  // contiguous pair array (see vm.hpp). Non-entry blocks keep empty spans;
  // they are never looked up. Likewise each entry's prologue, the
  // registers it writes and whether the region runs lane groups.
  // Lane-scaled register numbers must fit the 16-bit operand fields.
  const bool lanes_ok =
      lane_ids_consecutive(launch, kLanes) &&
      (tracker == nullptr || tracker->warp_size() % kLanes == 0) &&
      static_cast<std::size_t>(wg_->fn.num_regs) * kLanes <= 0x10000;
  const std::size_t nblocks = kernel_fn_->blocks.size();
  spill_pairs_.clear();
  restore_by_block_.assign(nblocks, SpillSpan{});
  save_by_block_.assign(nblocks, SpillSpan{});
  prologue_by_block_.assign(nblocks, nullptr);
  prologue_dsts_.clear();
  prologue_dsts_by_block_.assign(nblocks, SpillSpan{});
  lanes_by_block_.assign(nblocks, 0);
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::int32_t e = wg_->entry_index[b];
    if (e < 0) continue;
    const auto entry = static_cast<std::size_t>(e);
    const std::int32_t prologue = wg_->prologue_start[entry];
    if (prologue >= 0) {
      const auto start = static_cast<std::size_t>(prologue);
      prologue_dsts_by_block_[b].begin =
          static_cast<std::uint32_t>(prologue_dsts_.size());
      for (std::size_t i = start; wg_->prologues[i].op != RegOp::Br; ++i) {
        prologue_dsts_.push_back(wg_->prologues[i].dst);
      }
      prologue_dsts_by_block_[b].len = static_cast<std::uint32_t>(
          prologue_dsts_.size() - prologue_dsts_by_block_[b].begin);
    }
    lanes_by_block_[b] = lanes_ok && wg_->lanes[entry] &&
                         roots_disjoint(wg_->lane_roots[entry], args, buffers);
    const auto& restore = wg_->entry_lists[entry];
    restore_by_block_[b].begin = static_cast<std::uint32_t>(
        spill_pairs_.size());
    restore_by_block_[b].len = static_cast<std::uint32_t>(restore.size());
    spill_pairs_.insert(spill_pairs_.end(), restore.begin(), restore.end());
    const auto& save = wg_->save_lists[entry];
    save_by_block_[b].begin = static_cast<std::uint32_t>(spill_pairs_.size());
    save_by_block_[b].len = static_cast<std::uint32_t>(save.size());
    spill_pairs_.insert(spill_pairs_.end(), save.begin(), save.end());
  }
  // A launch whose regions all run one item at a time keeps a plain
  // register file.
  stride_ = std::find(lanes_by_block_.begin(), lanes_by_block_.end(), 1) !=
                    lanes_by_block_.end()
                ? kLanes
                : 1;

  // The kernel and its prologues with lane-scaled register operands.
  code_ = wg_->fn.code;
  prologues_ = wg_->prologues;
  if (stride_ != 1) {
    for (RegInstr& in : code_) scale_registers(in, kLanes);
    for (RegInstr& in : prologues_) scale_registers(in, kLanes);
  }
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::int32_t e = wg_->entry_index[b];
    if (e < 0) continue;
    const std::int32_t prologue =
        wg_->prologue_start[static_cast<std::size_t>(e)];
    if (prologue >= 0) {
      prologue_by_block_[b] =
          prologues_.data() + static_cast<std::size_t>(prologue);
    }
  }

  // Registers no block instruction writes keep these values for every
  // item of every group: arguments in the parameter registers, the
  // constant pool in its registers, zeros elsewhere until a prologue
  // computes them. Item-varying parameters are re-restored per item from
  // the spill-row argument image, which is harmless.
  const RegFunction& fn = *kernel_fn_;
  regs_.assign(wg_->fn.num_regs * stride_, Value{});
  const std::size_t nparams = std::min<std::size_t>(fn.num_params, args.size());
  for (std::size_t r = 0; r < nparams; ++r) {
    std::fill_n(regs_.begin() + r * stride_, stride_, args[r]);
  }
  for (std::size_t k = 0; k < fn.consts.size(); ++k) {
    std::fill_n(regs_.begin() + (fn.const_base() + k) * stride_, stride_,
                fn.consts[k]);
  }
  uniform_regs_ = prologue_dsts_;
  std::sort(uniform_regs_.begin(), uniform_regs_.end());
  uniform_regs_.erase(std::unique(uniform_regs_.begin(), uniform_regs_.end()),
                      uniform_regs_.end());
  fallback_ = Fallback{};
  fault_ = Fault{};
}

void WorkGroupVM::broadcast_prologue(std::uint32_t block) {
  const SpillSpan span = prologue_dsts_by_block_[block];
  for (std::uint32_t k = 0; k < span.len; ++k) {
    Value* row = regs_.data() + prologue_dsts_[span.begin + k] * stride_;
    std::fill_n(row + 1, stride_ - 1, row[0]);
  }
}

void WorkGroupVM::run_phase(const MemoryEnv& mem, const LaunchInfo& launch,
                            const WorkItemInfo* items, ExecStats& stats,
                            CoalescingTracker* tracker) {
  fault_.set = false;
  try {
    bool lockstep = false;
    do {
      switch_ = false;
      if (lockstep) {
        RegRunner::run<WorkGroupVM, true>(*this, mem, launch, items, stats,
                                          tracker);
      } else {
        RegRunner::run(*this, mem, launch, items, stats, tracker);
      }
      lockstep = !lockstep;
    } while (switch_);
  } catch (const TrapError&) {
    if (!fault_.set || fault_.lane == 0) throw;
    // A lockstep access trapped in a lane above the first. Run alone, each
    // lower item would have finished its region before that item started,
    // so they finish it now, from the instruction after the access, and
    // the first of them to trap reports instead.
    const std::exception_ptr trapped = std::current_exception();
    fallback_ = {fault_.in + 1, fault_.fuel, 0, fault_.lane, true};
    fault_.set = false;
    RegRunner::run(*this, mem, launch, items, stats, tracker);
    std::rethrow_exception(trapped);
  }
}

void WorkGroupVM::run_group(const MemoryEnv& mem, const LaunchInfo& launch,
                            const WorkItemInfo* items, ExecStats& stats,
                            CoalescingTracker* tracker) {
  // The group runs the wg copy of the kernel (hoisted instructions moved
  // to the region prologues); the constant pool stays where the original
  // function put it. Arguments and the pool were installed by prepare();
  // the prologue registers start zeroed as in a fresh register file.
  frames_.clear();
  RegFrame kernel_frame;
  kernel_frame.fn = &wg_->fn;
  kernel_frame.code = code_.data();
  kernel_frame.stride = static_cast<std::uint32_t>(stride_);
  frames_.push_back(kernel_frame);
  for (const std::uint16_t r : uniform_regs_) {
    std::fill_n(regs_.begin() + r * stride_, stride_, Value{});
  }

  // Spill rows need no initialization: entry block 0 restores from the
  // argument image, and every later restore reads columns its barrier save
  // wrote within this group run.
  for (std::size_t i = 0; i < group_items_; ++i) {
    privs_[i].assign(kernel_priv_bytes_, std::byte{0});
  }
  done_count_ = 0;
  barrier_flags_ = 0;
  phase_entry_ = 0;

  // One phase runs every item up to its next barrier (or exit). Items
  // finishing in a phase where others reached a barrier, or items waiting
  // at different barriers, is the divergent-barrier condition — same traps
  // as the item-mode group scheduler in clsim.
  while (done_count_ < group_items_) {
    phase_finished_ = 0;
    phase_at_barrier_ = 0;
    phase_diverged_ = false;
    group_base_ = 0;
    group_width_ = 0;
    run_phase(mem, launch, items, stats, tracker);
    if (phase_at_barrier_ != 0 && phase_finished_ != 0) {
      throw TrapError(
          "divergent barrier: some work-items exited while others wait at a "
          "barrier");
    }
    if (phase_diverged_) {
      throw TrapError(
          "divergent barrier: work-items of a group wait at different "
          "barriers");
    }
    broadcast_prologue(phase_entry_);
    phase_entry_ = phase_resume_;
  }
  loop_trips_ += group_items_;
}

}  // namespace hplrepro::clc
