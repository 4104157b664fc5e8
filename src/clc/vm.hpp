#ifndef HPLREPRO_CLC_VM_HPP
#define HPLREPRO_CLC_VM_HPP

/// \file vm.hpp
/// The clc virtual machine: executes one work-item of a compiled kernel.
///
/// A work-item is a resumable activation: its operand stack, call frames
/// and private arena are plain data members, so executing `barrier()`
/// simply returns control to the caller (the clsim group scheduler) with
/// RunStatus::Barrier; calling run() again resumes after the barrier once
/// the whole group has arrived. No OS threads or fibers are involved.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "clc/bytecode.hpp"
#include "clc/coalescing.hpp"
#include "clc/stats.hpp"
#include "support/error.hpp"

namespace hplrepro::clc {

/// Thrown when a kernel performs an invalid operation at run time
/// (out-of-bounds access, stack overflow, exhausted fuel, ...).
class TrapError : public Error {
public:
  explicit TrapError(const std::string& what) : Error("kernel trap: " + what) {}
};

struct LaunchInfo {
  int work_dim = 1;
  std::uint64_t global_size[3] = {1, 1, 1};
  std::uint64_t local_size[3] = {1, 1, 1};
  std::uint64_t num_groups[3] = {1, 1, 1};
};

/// The identifiers every work-item of one work-group shares.
struct WorkGroupInfo {
  std::uint64_t group_id[3] = {0, 0, 0};
  std::uint64_t global_base[3] = {0, 0, 0};  // group_id * local_size
};

inline constexpr WorkGroupInfo kFirstGroup{};

/// One work-item's identifiers. Local ids and the linear index are fixed
/// for a launch; a group scheduler rewrites only the WorkGroupInfo they
/// point at when it moves to the next group, and get_global_id is
/// global_base + local_id.
struct WorkItemInfo {
  std::uint64_t local_id[3] = {0, 0, 0};
  std::uint64_t linear_in_group = 0;  // used by the coalescing tracker
  const WorkGroupInfo* group = &kFirstGroup;
};

/// Memory environment shared by the work-items of one launch/group.
struct MemoryEnv {
  /// Buffer table for Global/Constant pointers (index = PtrSpace buffer id).
  std::span<std::span<std::byte>> buffers;
  /// This group's __local arena.
  std::span<std::byte> local;
};

enum class RunStatus { Done, Barrier };

class WorkItemVM {
public:
  /// Prepares the VM to execute `kernel` from `module` with the given
  /// argument values (scalars or encoded pointers), one per parameter.
  void reset(const Module& module, const CompiledFunction& kernel,
             std::span<const Value> args);

  /// Runs until the kernel finishes (Done) or suspends at a barrier
  /// (Barrier). Resumable: call again after a Barrier return. Global
  /// accesses go to `tracker` (if any) keyed by `function << 20 | pc`; the
  /// register VMs use the memory slots of Module::mem_slots instead.
  RunStatus run(const MemoryEnv& mem, const LaunchInfo& launch,
                const WorkItemInfo& item, ExecStats& stats,
                CoalescingTracker* tracker);

  /// Flags of the barrier that suspended the item (valid after Barrier).
  std::uint64_t barrier_flags() const { return barrier_flags_; }

  /// Identifies the barrier that suspended the item (valid after Barrier):
  /// the suspended frame's function index and resume pc. Items of one
  /// phase waiting at different sites is the divergent-barrier condition.
  std::uint64_t barrier_site() const;

  /// Upper bound on dynamic instructions per run() call; a trap fires when
  /// exceeded (guards against infinite loops in user kernels).
  void set_fuel(std::uint64_t fuel) { fuel_ = fuel; }

private:
  struct Frame {
    const CompiledFunction* fn = nullptr;
    std::size_t pc = 0;
    std::size_t slot_base = 0;
    std::size_t priv_base = 0;
  };

  const Module* module_ = nullptr;
  std::vector<Value> stack_;
  std::vector<Frame> frames_;
  std::vector<Value> slots_;
  std::vector<std::byte> private_arena_;
  std::uint64_t barrier_flags_ = 0;
  std::uint64_t fuel_ = 1ull << 62;
};

/// Sentinel "no return register" for RegFrame::ret_reg.
inline constexpr std::uint32_t kRegNoRet = 0xFFFFFFFFu;

/// A call frame of the register interpreters (RegItemVM / WorkGroupVM).
struct RegFrame {
  const RegFunction* fn = nullptr;
  const RegInstr* code = nullptr;  // fn's code, or WorkGroupVM's lane copy
  std::uint32_t pc = 0;        // saved across calls; live in run()'s locals
  std::uint32_t ret_reg = kRegNoRet;  // absolute index into regs_, or kRegNoRet
  std::uint32_t stride = 1;    // register r of lane l at base + r*stride + l
  std::size_t base = 0;        // this frame's register window in regs_
  std::size_t priv_base = 0;
};

/// The shared direct-threaded dispatch loop behind RegItemVM (one
/// activation per work-item) and WorkGroupVM (one activation per group,
/// pocl-style work-item loops). Defined in vm.cpp.
struct RegRunner;

/// Executes the register form (Module::reg_functions) produced by
/// lower_module with a direct-threaded dispatch loop (computed goto, so
/// GCC or Clang). Drop-in equivalent of WorkItemVM: bit-identical results,
/// identical ExecStats (accounted per basic block from the histograms
/// precomputed at lowering time), identical trap messages, and the same
/// barrier suspend/resume protocol — a suspended item is just the saved
/// register file plus the block cursor to resume at.
class RegItemVM {
public:
  void reset(const Module& module, const CompiledFunction& kernel,
             std::span<const Value> args);

  RunStatus run(const MemoryEnv& mem, const LaunchInfo& launch,
                const WorkItemInfo& item, ExecStats& stats,
                CoalescingTracker* tracker);

  std::uint64_t barrier_flags() const { return barrier_flags_; }
  /// As WorkItemVM::barrier_site, with the resume block in place of a pc.
  std::uint64_t barrier_site() const;
  void set_fuel(std::uint64_t fuel) { fuel_ = fuel; }

private:
  friend struct RegRunner;

  const Module* module_ = nullptr;
  std::vector<Value> regs_;
  std::vector<RegFrame> frames_;
  std::vector<std::byte> private_arena_;
  std::uint64_t barrier_flags_ = 0;
  std::uint64_t fuel_ = 1ull << 62;
  std::uint32_t pending_block_ = 0;  // block to account+enter on next run()
};

/// Work-group execution mode (the -cl-wg-loops tentpole): runs all items
/// of a work-group on ONE activation by looping each barrier-delimited
/// region over the group — no per-item reset(), no per-item register
/// files, no suspend/resume machinery. Per-item state is reduced to the
/// spill rows of the registers live across region boundaries (WgInfo,
/// computed at build time by analyze_wg_loops) plus a private arena for
/// kernels that use private memory. Group-invariant values are computed
/// once per group and phase by the region's prologue (WgInfo::prologues),
/// before the first item enters the region.
///
/// Lanes: a region that analyze_wg_loops marked race-free (WgInfo::lanes,
/// rechecked per launch for aliasing arguments) runs its items in lane
/// groups of kLanes consecutive items. The register file is
/// structure-of-arrays, register r of lane l at `r * kLanes + l`, and one
/// dispatch executes an instruction for every active lane. A BrIf whose
/// lanes disagree, or a Call, drops to a scalar fallback: each lane then
/// finishes the region alone, from that instruction, with the fuel the
/// lane group had there. Other regions run one item at a time, and a
/// launch none of whose regions runs lane groups keeps a plain register
/// file (stride 1).
///
/// Fuel and ExecStats accounting stay field-identical to RegItemVM: the
/// fuel budget is per item per region (each item-region entry resets it,
/// exactly like a per-item run() call; lanes in lockstep have all burnt
/// the same amount), and a block entry adds its histogram once per active
/// lane. A trap reports what the lowest-numbered trapping item would have
/// reported running alone.
class WorkGroupVM {
public:
  /// Items per lane group. Divides the 32-item warp of the coalescing
  /// tracker, so a lane group never spans two warps.
  static constexpr std::size_t kLanes = 8;

  /// Binds the VM to a kernel (must be wg-eligible per module.wg_info), its
  /// launch arguments, the buffer table they point into and the launch
  /// geometry. Called once per launch chunk; run_group reuses all scratch
  /// across groups. `tracker` is the coalescing tracker run_group will be
  /// given (nullptr if none): a warp that lane groups would span keeps
  /// every region scalar.
  void prepare(const Module& module, const CompiledFunction& kernel,
               std::span<const Value> args,
               std::span<const std::span<std::byte>> buffers,
               const LaunchInfo& launch, const CoalescingTracker* tracker);

  /// Runs one whole work-group to completion. `items` must point at
  /// group_items WorkItemInfo entries. Throws TrapError on kernel traps,
  /// including the divergent-barrier conditions (a region exit taken by
  /// some items while others reached a barrier, or items of one phase
  /// waiting at different barriers).
  void run_group(const MemoryEnv& mem, const LaunchInfo& launch,
                 const WorkItemInfo* items, ExecStats& stats,
                 CoalescingTracker* tracker);

  void set_fuel(std::uint64_t fuel) { fuel_ = fuel; }

  /// One trip per work-item run through the region loops; accumulated over
  /// every group this VM executed (the vm.wg_loop_trips metric).
  std::uint64_t loop_trips() const { return loop_trips_; }
  /// Item-region executions: loop_trips plus one per barrier resumption
  /// (the vm.regions metric).
  std::uint64_t regions_executed() const { return regions_executed_; }

private:
  friend struct RegRunner;

  /// Runs one phase: every item up to its next barrier or exit.
  void run_phase(const MemoryEnv& mem, const LaunchInfo& launch,
                 const WorkItemInfo* items, ExecStats& stats,
                 CoalescingTracker* tracker);
  /// Copies lane 0 of every register `block`'s prologue writes to the
  /// other lanes.
  void broadcast_prologue(std::uint32_t block);

  const Module* module_ = nullptr;
  const RegFunction* kernel_fn_ = nullptr;  // owns the constant pool
  const WgInfo* wg_ = nullptr;              // wg_->fn is the code run
  bool uses_barrier_ = false;
  std::uint64_t kernel_priv_bytes_ = 0;
  std::size_t group_items_ = 0;

  // The kernel frame's code and prologues with register operands scaled
  // by stride_, the stride of its lane-major window at regs_[0]: kLanes
  // when a region of the launch runs lane groups, else 1.
  std::size_t stride_ = 1;
  std::vector<RegInstr> code_;
  std::vector<RegInstr> prologues_;
  std::vector<Value> regs_;       // ONE shared register file, lane-major
  std::vector<RegFrame> frames_;
  std::vector<Value> spill_init_;  // per-item row template: args/zeros
  std::vector<Value> spills_;      // group_items x live_regs rows
  std::size_t spill_stride_ = 0;   // row width (= wg_->live_regs.size())

  // WgInfo's per-entry restore/save lists flattened by prepare() into one
  // contiguous pair array with per-block spans, so the region-switch hot
  // path does a single indexed load instead of chasing entry_index into a
  // vector of vectors.
  struct SpillSpan {
    std::uint32_t begin = 0;
    std::uint32_t len = 0;
  };
  std::vector<std::pair<std::uint16_t, std::uint16_t>> spill_pairs_;
  std::vector<SpillSpan> restore_by_block_;
  std::vector<SpillSpan> save_by_block_;
  // Per block: the region prologue (WgInfo::prologues) its phase starts
  // with, or nullptr when nothing was hoisted from the region's heads.
  std::vector<const RegInstr*> prologue_by_block_;
  // Registers the prologue of each entry writes (spans per block), and
  // their union, which every group starts with zeroed.
  std::vector<std::uint16_t> prologue_dsts_;
  std::vector<SpillSpan> prologue_dsts_by_block_;
  std::vector<std::uint16_t> uniform_regs_;
  std::vector<char> lanes_by_block_;  // per block: entry runs lane groups
  std::vector<std::vector<std::byte>> privs_;  // per-item private arenas
  std::uint64_t barrier_flags_ = 0;
  std::uint64_t fuel_ = 1ull << 62;

  // Phase bookkeeping. Every item of a phase starts at phase_entry_ (the
  // divergent-barrier trap ends the group otherwise); the items run in
  // lane groups [group_base_, group_base_ + group_width_).
  std::uint32_t phase_entry_ = 0;
  std::size_t group_base_ = 0;
  std::size_t group_width_ = 0;
  std::size_t done_count_ = 0;
  std::size_t phase_finished_ = 0;
  std::size_t phase_at_barrier_ = 0;
  std::uint32_t phase_resume_ = 0;  // resume block of the phase's barrier
  bool phase_diverged_ = false;     // an item reached a different barrier

  // Scalar fallback of the current lane group: lanes [next, end) still
  // have to run alone from `in` with `fuel` left; `stop` ends the phase
  // after them (trap replay, see run_phase).
  struct Fallback {
    const RegInstr* in = nullptr;
    std::uint64_t fuel = 0;
    std::uint32_t next = 0;
    std::uint32_t end = 0;
    bool stop = false;
  };
  Fallback fallback_;
  // Where a lockstep memory access trapped: lanes [0, lane) had finished
  // the instruction `in` with `fuel` left.
  struct Fault {
    bool set = false;
    std::uint32_t lane = 0;
    const RegInstr* in = nullptr;
    std::uint64_t fuel = 0;
  };
  Fault fault_;
  bool switch_ = false;  // RegRunner left the lane group to the other mode

  std::uint64_t loop_trips_ = 0;
  std::uint64_t regions_executed_ = 0;
};

}  // namespace hplrepro::clc

#endif  // HPLREPRO_CLC_VM_HPP
