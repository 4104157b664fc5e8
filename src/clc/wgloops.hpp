#ifndef HPLREPRO_CLC_WGLOOPS_HPP
#define HPLREPRO_CLC_WGLOOPS_HPP

/// \file wgloops.hpp
/// Work-group compilation analysis (pocl-style work-item loops).
///
/// A kernel's register code is conceptually split at every `barrier()`
/// into regions; the work-group VM (WorkGroupVM, vm.hpp) then runs each
/// region as a loop over all items of a group on one shared activation
/// instead of one suspendable activation per item. For that to be sound,
/// the only per-item state the loop has to carry across a region boundary
/// is the set of registers live at a region entry — everything else is
/// either written before read inside the region (shared file is fine) or
/// lives in the item's private arena.
///
/// This pass computes, per kernel:
///   * eligibility (all barriers in top-level kernel code, well-formed
///     blocks; ineligible kernels keep per-item activations) and, when
///     ineligible, the reason,
///   * the region count (resume points: block 0 + each barrier's resume
///     block),
///   * a uniformity analysis: pure instructions with group-uniform
///     operands in the blocks every item runs exactly once per region
///     phase (the region heads) move into a per-region prologue that the
///     work-group VM runs once per group and phase, with a fresh register
///     where the original is shared with item-varying writers (the wg copy
///     of the kernel, WgInfo::fn),
///   * the live-register union over all region entries of that copy — the
///     per-item spill set, which no longer holds the hoisted values,
///   * the lanes rule: which regions are race-free enough for the
///     work-group VM to run their items in lockstep lane groups
///     (WgInfo::lanes), and for the others the first rule they break.
///
/// Classic backward liveness over the basic blocks produced by
/// lower_module plus linear scans of the region heads; runs at build time,
/// after register lowering.

#include <string>

#include "clc/bytecode.hpp"

namespace hplrepro::clc {

/// Fills `module.wg_info` (parallel to `module.functions`) from the
/// register form. Requires module.has_reg_form(); a module without it is
/// left untouched. Non-kernel functions and ineligible kernels get a
/// default (ineligible) entry — the executor falls back to per-item VMs
/// for those. Returns the build-log lines, one per kernel: why it is
/// ineligible, or its region count, how many instructions were hoisted
/// and how many regions run in lanes, with the reason for each that does
/// not.
std::string analyze_wg_loops(Module& module);

}  // namespace hplrepro::clc

#endif  // HPLREPRO_CLC_WGLOOPS_HPP
