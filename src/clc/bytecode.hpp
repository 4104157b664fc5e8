#ifndef HPLREPRO_CLC_BYTECODE_HPP
#define HPLREPRO_CLC_BYTECODE_HPP

/// \file bytecode.hpp
/// The clc bytecode: a typed stack machine that the VM interprets.
///
/// Design notes:
///  * One 8-byte Value slot type; opcodes are statically typed (AddI vs
///    AddF vs AddD), so values carry no runtime tags.
///  * Integer arithmetic happens in 64 bits; the compiler re-normalises
///    (sign/zero-extends) after operations whose result type is narrower.
///  * Pointers are encoded in a u64: [63:62] address space, [61:48] buffer
///    index (global/constant), [47:0] byte offset. Local offsets are
///    relative to the work-group's local arena, private offsets to the
///    work-item's private arena.
///  * `Barrier` suspends the work-item; the group scheduler resumes it once
///    every item in the group has reached the barrier.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "clc/types.hpp"

namespace hplrepro::clc {

union Value {
  std::int64_t i64;
  std::uint64_t u64;
  double f64;
  float f32;
};
static_assert(sizeof(Value) == 8);

// --- Pointer encoding -------------------------------------------------------

enum class PtrSpace : std::uint64_t {
  Private = 0,
  Global = 1,
  Local = 2,
  Constant = 3,
};

inline constexpr int kPtrSpaceShift = 62;
inline constexpr int kPtrBufferShift = 48;
inline constexpr std::uint64_t kPtrOffsetMask = (1ull << 48) - 1;
inline constexpr std::uint64_t kPtrBufferMask = (1ull << 14) - 1;

inline std::uint64_t make_pointer(PtrSpace space, std::uint64_t buffer,
                                  std::uint64_t offset) {
  return (static_cast<std::uint64_t>(space) << kPtrSpaceShift) |
         ((buffer & kPtrBufferMask) << kPtrBufferShift) |
         (offset & kPtrOffsetMask);
}

inline PtrSpace pointer_space(std::uint64_t p) {
  return static_cast<PtrSpace>(p >> kPtrSpaceShift);
}
inline std::uint64_t pointer_buffer(std::uint64_t p) {
  return (p >> kPtrBufferShift) & kPtrBufferMask;
}
inline std::uint64_t pointer_offset(std::uint64_t p) {
  return p & kPtrOffsetMask;
}
/// Pointer arithmetic only touches the offset field.
inline std::uint64_t pointer_add(std::uint64_t p, std::int64_t bytes) {
  const std::uint64_t off =
      (pointer_offset(p) + static_cast<std::uint64_t>(bytes)) & kPtrOffsetMask;
  return (p & ~kPtrOffsetMask) | off;
}

// --- Opcodes ----------------------------------------------------------------

enum class Op : std::uint8_t {
  Nop,
  // Stack / constants
  PushI,   // imm: int64 constant
  PushF,   // imm: float bits (low 32)
  PushD,   // imm: double bits
  Dup,
  Pop,
  Swap,
  // Slots
  LoadSlot,   // a: slot index
  StoreSlot,  // a: slot index (pops value)
  // Pointers
  PtrAdd,      // a: element size; pops index(i64), ptr -> ptr + index*size
  LocalPtr,    // imm: offset in the group's local arena
  PrivatePtr,  // imm: frame-relative offset in the private arena
  // Memory (typed). Loads pop a pointer and push the value; stores pop a
  // value then a pointer.
  LoadI8, LoadU8, LoadI16, LoadU16, LoadI32, LoadU32, LoadI64, LoadF32, LoadF64,
  StoreI8, StoreI16, StoreI32, StoreI64, StoreF32, StoreF64,
  // Integer arithmetic (64-bit)
  AddI, SubI, MulI, DivI, DivU, RemI, RemU, NegI,
  AndI, OrI, XorI, ShlI, ShrI, ShrU, NotI,
  // Width renormalisation after narrow arithmetic
  Sext8, Sext16, Sext32, Zext8, Zext16, Zext32, Zext1,
  // Float (f32) arithmetic
  AddF, SubF, MulF, DivF, NegF,
  // Double (f64) arithmetic
  AddD, SubD, MulD, DivD, NegD,
  // Comparisons -> i64 0/1
  EqI, NeI, LtI, LeI, GtI, GeI, LtU, LeU, GtU, GeU,
  EqF, NeF, LtF, LeF, GtF, GeF,
  EqD, NeD, LtD, LeD, GtD, GeD,
  LNot,  // logical not of i64
  Bool,  // normalise i64 to 0/1
  // Conversions
  I2F, I2D, U2F, U2D, F2I, D2I, F2U, D2U, F2D, D2F,
  // Control flow
  Jmp,          // a: target pc
  JmpIfZero,    // a: target pc (pops i64)
  JmpIfNonZero, // a: target pc (pops i64)
  Call,         // a: function index (args on stack, left to right)
  Ret,          // pops return value
  RetVoid,
  // OpenCL specials
  BarrierOp,  // imm: fence flags; suspends until group sync
  BuiltinOp,  // a: builtin id; imm: operand scalar class (0 int, 1 f32, 2 f64)
  WorkItemFn, // a: builtin id; pops dimension, pushes size_t value
  // Superinstructions, emitted only by the optimizer (see optimizer.hpp).
  // Fused index+load: a = element size; pops index then pointer, pushes
  // the value at ptr + index*size. One dynamic op instead of two.
  LIdxI8, LIdxU8, LIdxI16, LIdxU16, LIdxI32, LIdxU32, LIdxI64,
  LIdxF32, LIdxF64,
  // Fused index+store: a = element size; pops value, index, pointer.
  SIdxI8, SIdxI16, SIdxI32, SIdxI64, SIdxF32, SIdxF64,
  // Fused multiply-add. Computes the product and then the sum as two
  // separate roundings (no FMA contraction), so results stay bit-identical
  // with the unfused MUL/ADD pair. a encodes the operand order:
  //   a = 0: pops z, y, x -> (x*y) + z   (from MUL; push; ADD)
  //   a = 1: pops y, x, z -> z + (x*y)   (from MUL; ADD)
  MadI, MadF, MadD,
};

/// Total number of opcodes (for dispatch/classification tables).
inline constexpr int kOpCount = static_cast<int>(Op::MadD) + 1;

const char* op_name(Op op);

/// Classification used by the instruction counters / timing model.
enum class OpClass : std::uint8_t {
  Control,   // jumps, calls, stack shuffling, conversions
  IntAlu,
  FloatAlu,
  DoubleAlu,
  GlobalMem,   // global/constant loads+stores (classified at run time)
  LocalMem,
  SpecialFn,   // transcendental builtins
};

struct Instr {
  Op op = Op::Nop;
  std::int32_t a = 0;
  std::int64_t imm = 0;
};

struct ParamInfo {
  std::string name;
  Type type;
};

struct CompiledFunction {
  std::string name;
  bool is_kernel = false;
  std::vector<ParamInfo> params;
  std::vector<Instr> code;
  int num_slots = 0;
  std::uint64_t private_bytes = 0;
  std::uint64_t local_bytes = 0;  // meaningful for kernels
  bool uses_barrier = false;      // transitively
  bool uses_double = false;       // transitively
};

// --- Register form ----------------------------------------------------------
//
// At build time the optimized stack code of every function is lowered into
// a register-coded form: a stack-simulation pass maps each operand-stack
// position to a virtual register (registers 0..num_slots-1 double as the
// function's slots, so LoadSlot/StoreSlot mostly disappear into register
// renaming; literal constants live in a per-function constant pool of
// registers no instruction writes), and control flow becomes explicit
// basic blocks. The register interpreter (RegItemVM, vm.hpp) executes
// this form with direct-threaded dispatch and accounts ExecStats once per
// block entry from the histograms precomputed here — by construction those
// histograms sum to exactly what the stack interpreter would have counted
// per instruction.

// X-macro over the register opcodes; keeps the computed-goto label table in
// vm.cpp in enum order by construction.
#define HPLREPRO_REG_OPS(X)                                                   \
  X(Mov) X(PrivPtr) X(PtrAdd)                                                 \
  X(LoadI8) X(LoadU8) X(LoadI16) X(LoadU16) X(LoadI32) X(LoadU32)             \
  X(LoadI64) X(LoadF32) X(LoadF64)                                            \
  X(StoreI8) X(StoreI16) X(StoreI32) X(StoreI64) X(StoreF32) X(StoreF64)      \
  X(LIdxI8) X(LIdxU8) X(LIdxI16) X(LIdxU16) X(LIdxI32) X(LIdxU32)             \
  X(LIdxI64) X(LIdxF32) X(LIdxF64)                                            \
  X(SIdxI8) X(SIdxI16) X(SIdxI32) X(SIdxI64) X(SIdxF32) X(SIdxF64)            \
  X(AddI) X(SubI) X(MulI) X(DivI) X(DivU) X(RemI) X(RemU)                     \
  X(AndI) X(OrI) X(XorI) X(ShlI) X(ShrI) X(ShrU)                              \
  X(AddF) X(SubF) X(MulF) X(DivF) X(AddD) X(SubD) X(MulD) X(DivD)             \
  X(EqI) X(NeI) X(LtI) X(LeI) X(GtI) X(GeI) X(LtU) X(LeU) X(GtU) X(GeU)       \
  X(EqF) X(NeF) X(LtF) X(LeF) X(GtF) X(GeF)                                   \
  X(EqD) X(NeD) X(LtD) X(LeD) X(GtD) X(GeD)                                   \
  X(NegI) X(NotI) X(NegF) X(NegD) X(LNot) X(Bool)                             \
  X(Sext8) X(Sext16) X(Sext32) X(Zext8) X(Zext16) X(Zext32) X(Zext1)          \
  X(I2F) X(I2D) X(U2F) X(U2D) X(F2I) X(D2I) X(F2U) X(D2U) X(F2D) X(D2F)       \
  X(MadI) X(MadF) X(MadD)                                                     \
  X(Br) X(BrIf) X(Call) X(Ret) X(RetVoid)                                     \
  X(Barrier) X(WorkItem) X(BuiltinFn)

enum class RegOp : std::uint8_t {
#define HPLREPRO_REG_ENUM(name) name,
  HPLREPRO_REG_OPS(HPLREPRO_REG_ENUM)
#undef HPLREPRO_REG_ENUM
};

inline constexpr int kRegOpCount = static_cast<int>(RegOp::BuiltinFn) + 1;

const char* reg_op_name(RegOp op);

/// One register instruction. Operand conventions:
///   dst       result register (BrIf: block taken when the condition is
///             nonzero; SIdx/Store: unused)
///   a, b, c   source registers (BuiltinFn: a = first of `b` contiguous
///             args, c = scalar class; Mad: a*b with addend c)
///   aux       block id (Br, BrIf's zero path, Barrier's resume point),
///             callee index (Call), builtin id (WorkItem/BuiltinFn),
///             memory slot (memory ops: 0..Module::mem_slots-1, unique
///             across the module), operand order (Mad)
///   imm       64-bit immediate (PrivPtr: arena offset; PtrAdd/LIdx/SIdx:
///             element size)
struct RegInstr {
  RegOp op = RegOp::Mov;
  std::uint16_t dst = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  std::uint16_t c = 0;
  std::int32_t aux = 0;
  std::int64_t imm = 0;
};
static_assert(sizeof(RegInstr) == 24);

/// A basic block of register code plus its precomputed accounting: the
/// OpClass histogram and fuel cost of the ORIGINAL stack instructions the
/// block was lowered from. The register interpreter bumps ExecStats and
/// burns fuel once per block entry; summed over a run this reproduces the
/// stack interpreter's per-instruction counting exactly.
struct RegBlock {
  std::uint32_t start = 0;  // first instruction index in RegFunction::code
  std::uint32_t fuel = 0;   // stack-instruction count (fuel burned on entry)
  std::uint32_t control_ops = 0;
  std::uint32_t int_ops = 0;
  std::uint32_t float_ops = 0;
  std::uint32_t double_ops = 0;
  std::uint32_t special_ops = 0;
  std::uint32_t fused_ops = 0;
};

/// Register-coded form of one CompiledFunction. Registers 0..num_params-1
/// hold the arguments on entry and the last consts.size() registers the
/// constant pool; the remaining registers are zeroed. No instruction
/// writes a pool register, so the VMs install the pool once per frame.
struct RegFunction {
  std::uint16_t num_regs = 0;
  std::uint16_t num_params = 0;
  std::uint64_t private_bytes = 0;
  std::vector<RegInstr> code;
  std::vector<RegBlock> blocks;
  /// Constant pool: the literals and __local addresses the code reads,
  /// deduplicated by bit pattern, held in registers
  /// const_base()..num_regs-1.
  std::vector<Value> consts;

  std::uint16_t const_base() const {
    return static_cast<std::uint16_t>(num_regs - consts.size());
  }
};

/// Work-group compilation metadata for one kernel (pocl-style work-item
/// loops): the register code is split at barriers into regions, and the
/// registers live across any region boundary get per-item spill slots so
/// a whole group can run on one shared activation. Group-invariant values
/// are computed once per group and phase in per-region prologues instead
/// of once per item. Produced by analyze_wg_loops (wgloops.hpp) when
/// -cl-wg-loops is on.
struct WgInfo {
  /// A kernel is eligible when every barrier sits in its own top-level
  /// code (no barrier reachable through a Call) and its block structure is
  /// well formed. Ineligible kernels fall back to per-item activations.
  bool eligible = false;
  /// Why the kernel is ineligible (a static string for the build log);
  /// nullptr when eligible, and for helpers, which are never analysed.
  const char* ineligible_reason = nullptr;
  /// Number of barrier-delimited regions (resume points): 1 for
  /// barrier-free kernels, barriers + 1 otherwise.
  std::uint32_t region_count = 0;
  /// The kernel as the work-group VM runs it: the module's RegFunction
  /// with every hoisted instruction moved out of its block into the
  /// prologues below, and hoisted results whose register other writers
  /// share renamed to fresh registers past that function's num_regs.
  /// Blocks keep their ids, terminators, histograms and fuel, so ExecStats
  /// and fuel are charged per block entry exactly as before. The constant
  /// pool is empty here: it stays in the original function's pool
  /// registers, which this copy addresses unchanged.
  RegFunction fn;
  /// Static count of instructions moved into prologues (of the original
  /// function's code size), for the build log.
  std::uint32_t hoisted = 0;
  /// Sorted union of the item-varying registers live at any region entry
  /// (block 0 and every barrier resume block) of `fn`. Only these get
  /// per-item spill slots; everything else lives in the shared file.
  /// Registers no instruction of `fn`'s blocks writes (kernel arguments,
  /// the constant pool, never-assigned zeros and the values only
  /// prologues write) are uniform across the group — they are installed
  /// once per group or computed by the prologues and excluded from all
  /// spill traffic. A register's position in this vector is its spill
  /// column.
  std::vector<std::uint16_t> live_regs;
  /// Per-block index into `entry_lists`/`save_lists`/`prologue_start`, -1
  /// for blocks that are not region entries. Block 0 and every barrier
  /// resume block get an entry.
  std::vector<std::int32_t> entry_index;
  /// (register, spill column) restore list per region entry: the
  /// item-varying registers live into that block. The VM restores this
  /// list when an item enters the region.
  std::vector<std::vector<std::pair<std::uint16_t, std::uint16_t>>>
      entry_lists;
  /// (register, spill column) save list per region entry B: the subset of
  /// B's restore list a barrier resuming at B must write back — registers
  /// defined in some region that reaches such a barrier. Values carried
  /// unmodified across a barrier already sit in their spill columns (the
  /// save that first materialised them wrote the row, and restores don't
  /// dirty it), so they are skipped.
  std::vector<std::vector<std::pair<std::uint16_t, std::uint16_t>>>
      save_lists;
  /// All prologues back to back. The prologue of region entry B holds the
  /// instructions hoisted from B's region heads in program order and ends
  /// in `Br B`, which enters B with its usual accounting. The VM runs it
  /// once per group and phase, before the first item enters the region.
  std::vector<RegInstr> prologues;
  /// Per region entry: offset of its prologue in `prologues`, -1 when
  /// nothing was hoisted from its heads.
  std::vector<std::int32_t> prologue_start;

  /// Per region entry: may the work-group VM run the region's items in
  /// lockstep lane groups? Set when every global or __local store in the
  /// region addresses its root pointer at a lane-injective index (the
  /// dim-0 global or local id, plus or minus region-invariant values,
  /// through integer conversions) and every other access to a stored root
  /// uses that same index, stride and size; helpers the region calls must
  /// not touch memory. See DESIGN.md §4b.
  std::vector<char> lanes;
  /// Per region entry: the first rule that keeps the region scalar (a
  /// static string for the build log), nullptr when `lanes` is set.
  std::vector<const char*> scalar_reason;
  /// A kernel argument a lane region uses as a memory root. `index`
  /// names the one lane-injective index (with stride and size) every
  /// access through this argument uses, 0 when they differ or are not
  /// lane-injective. Arguments that alias at launch are checked again.
  struct LaneRoot {
    std::uint16_t param = 0;
    bool stored = false;
    std::uint32_t index = 0;
  };
  /// Per region entry: its argument roots (empty for scalar regions).
  std::vector<std::vector<LaneRoot>> lane_roots;
};

/// A compiled translation unit plus its entry-point table.
struct Module {
  std::vector<CompiledFunction> functions;
  std::map<std::string, int> by_name;

  /// Register form of every function, parallel to `functions`. Filled by
  /// lower_module (-cl-interp=threaded, the default); empty when the module
  /// runs on the stack interpreter.
  std::vector<RegFunction> reg_functions;

  /// Number of memory instructions in `reg_functions`: lower_module numbers
  /// them 0..mem_slots-1 in RegInstr::aux, the coalescing tracker's slot
  /// index. WgInfo::fn keeps each instruction's slot.
  std::uint32_t mem_slots = 0;

  /// Work-group compilation metadata, parallel to `functions`. Filled by
  /// analyze_wg_loops (-cl-wg-loops, on by default under threaded); empty
  /// when work-item loops are disabled or the module is stack-only.
  std::vector<WgInfo> wg_info;

  const CompiledFunction* find(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? nullptr : &functions[it->second];
  }

  bool has_reg_form() const {
    return !functions.empty() && reg_functions.size() == functions.size();
  }

  bool has_wg_form() const {
    return has_reg_form() && wg_info.size() == functions.size();
  }

  std::vector<std::string> kernel_names() const {
    std::vector<std::string> names;
    for (const auto& f : functions) {
      if (f.is_kernel) names.push_back(f.name);
    }
    return names;
  }
};

/// Human-readable disassembly (tests and debugging).
std::string disassemble(const CompiledFunction& fn);

/// Static OpClass of an opcode (memory ops report GlobalMem; the VM refines
/// by address space at run time). Shared by the interpreters and the
/// lowering pass so both accounting schemes agree instruction by
/// instruction.
OpClass op_class_of(Op op);

/// Lowers every function of `module` into register form, filling
/// `module.reg_functions` (parallel to `module.functions`). Returns an
/// empty string on success. On failure (a function the stack-simulation
/// pass cannot handle) clears `reg_functions` — the module then runs on
/// the stack interpreter — and returns a note for the build log.
std::string lower_module(Module& module);

/// Human-readable disassembly of the register form.
std::string disassemble_reg(const RegFunction& fn);

}  // namespace hplrepro::clc

#endif  // HPLREPRO_CLC_BYTECODE_HPP
