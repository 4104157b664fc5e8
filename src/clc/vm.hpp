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

struct WorkItemInfo {
  std::uint64_t global_id[3] = {0, 0, 0};
  std::uint64_t local_id[3] = {0, 0, 0};
  std::uint64_t group_id[3] = {0, 0, 0};
  std::uint64_t linear_in_group = 0;  // used by the coalescing tracker
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
  std::uint32_t pc = 0;        // saved across calls; live in run()'s locals
  std::uint32_t ret_reg = kRegNoRet;  // absolute index into regs_, or kRegNoRet
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
/// Fuel and ExecStats accounting stay field-identical to RegItemVM: the
/// fuel budget is debited per item per region (each item-region entry
/// resets the local budget, exactly like a per-item run() call), and the
/// block histograms are accounted per entered block as before.
class WorkGroupVM {
public:
  /// Binds the VM to a kernel (must be wg-eligible per module.wg_info) and
  /// its launch arguments for groups of `group_items` work-items. Called
  /// once per launch chunk; run_group reuses all scratch across groups.
  void prepare(const Module& module, const CompiledFunction& kernel,
               std::span<const Value> args, std::size_t group_items);

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

  const Module* module_ = nullptr;
  const RegFunction* kernel_fn_ = nullptr;  // owns the constant pool
  const WgInfo* wg_ = nullptr;              // wg_->fn is the code run
  bool uses_barrier_ = false;
  std::uint64_t kernel_priv_bytes_ = 0;
  std::size_t group_items_ = 0;

  std::vector<Value> regs_;       // ONE shared register file for the group
  std::vector<RegFrame> frames_;
  std::vector<Value> args_;        // launch arguments, installed per group
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
  std::vector<std::vector<std::byte>> privs_;  // per-item private arenas
  std::vector<std::uint32_t> pending_;  // per-item resume block
  std::vector<char> done_;
  std::uint64_t barrier_flags_ = 0;
  std::uint64_t fuel_ = 1ull << 62;

  // Phase bookkeeping for the divergent-barrier trap.
  std::size_t done_count_ = 0;
  std::size_t phase_finished_ = 0;
  std::size_t phase_at_barrier_ = 0;
  std::uint32_t phase_resume_ = 0;  // resume block of the phase's barrier
  bool phase_diverged_ = false;     // an item reached a different barrier

  std::uint64_t loop_trips_ = 0;
  std::uint64_t regions_executed_ = 0;
};

}  // namespace hplrepro::clc

#endif  // HPLREPRO_CLC_VM_HPP
