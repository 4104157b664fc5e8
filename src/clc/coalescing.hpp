#ifndef HPLREPRO_CLC_COALESCING_HPP
#define HPLREPRO_CLC_COALESCING_HPP

/// \file coalescing.hpp
/// Warp-level memory coalescing analysis.
///
/// GPUs service the global-memory accesses of a warp in units of aligned
/// segments (32 B on Fermi). When the 32 lanes of a warp touch consecutive
/// addresses, a 128 B request needs only 4 segments; a random gather needs
/// up to 32. This tracker replays that bookkeeping: for every memory
/// instruction it collects the segments touched by the current warp and
/// counts one transaction per distinct segment.
///
/// Work-items of a group run sequentially in the simulator, so the tracker
/// keys the "current warp" on item_linear / warp_size and flushes when a
/// new warp starts issuing from the same instruction.
///
/// The tracker sits on the interpreters' per-access path. lower_module
/// numbers the module's register memory instructions 0..M-1
/// (Module::mem_slots) into RegInstr::aux, so the register VMs reach an
/// instruction's state with one array index: access() is inline, and only
/// recording a new segment leaves the header. Warp and segment sizes must
/// be powers of two so the divisions are shifts. A single-segment access
/// to the segment its warp recorded last at that instruction returns at
/// once.

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace hplrepro::clc {

class CoalescingTracker final {
public:
  /// `num_slots` memory-instruction slots (Module::mem_slots). 0 sizes
  /// select the defaults (1 lane, 32 B). Throws InvalidArgument unless
  /// both sizes are powers of two.
  CoalescingTracker(unsigned warp_size, unsigned segment_bytes,
                    std::size_t num_slots = 0);

  /// Records one global access by the memory instruction of `slot`
  /// (< num_slots).
  void access(std::uint32_t slot, std::uint64_t item_linear,
              std::uint64_t buffer, std::uint64_t offset,
              std::uint32_t size) {
    Slot& state = slots_[slot];
    const std::uint64_t warp = item_linear >> warp_shift_;
    if (warp != state.warp) {
      transactions_ += state.segments.size();
      state.segments.clear();
      state.warp = warp;
    }
    // Tag segments with the buffer id in the top bits so accesses to two
    // different buffers never merge.
    const std::uint64_t first = (buffer << 50) | (offset >> segment_shift_);
    const std::uint64_t last =
        (buffer << 50) | ((offset + size - 1) >> segment_shift_);
    // Neighbouring items of a warp mostly hit the segment the previous one
    // added last; nothing new to record then.
    if (first == last && !state.segments.empty() &&
        state.segments.back() == first) {
      return;
    }
    insert(state, first, last);
  }

  /// As access(), for an instruction named by an arbitrary 32-bit key
  /// instead of a slot: the stack interpreter's `function << 20 | pc`.
  /// Each new key takes the next slot past num_slots.
  void access_key(std::uint32_t key, std::uint64_t item_linear,
                  std::uint64_t buffer, std::uint64_t offset,
                  std::uint32_t size);

  /// Items per warp.
  unsigned warp_size() const { return 1u << warp_shift_; }

  /// Flushes pending warps and returns the transaction count since the
  /// last reset.
  std::uint64_t finish();

  /// Clears all state (reuse across groups).
  void reset();

private:
  struct Slot {
    std::uint64_t warp = UINT64_MAX;
    // Largest segment in `segments` (meaningless while it is empty): a
    // segment above it is new without a scan.
    std::uint64_t top = 0;
    // Segments touched by the current warp at this instruction. Accesses
    // are usually strided, so a small vector with linear scan beats a set.
    std::vector<std::uint64_t> segments;
  };

  /// Adds the segments first..last the warp has not touched yet. Streams
  /// mostly ascend, so only a segment at or below `top` is searched for.
  void insert(Slot& state, std::uint64_t first, std::uint64_t last);

  unsigned warp_shift_;     // log2(warp size)
  unsigned segment_shift_;  // log2(segment bytes)
  std::size_t num_slots_;
  std::vector<Slot> slots_;  // num_slots_ slots, then one per key
  std::unordered_map<std::uint32_t, std::uint32_t> key_slots_;
  std::uint64_t transactions_ = 0;
};

}  // namespace hplrepro::clc

#endif  // HPLREPRO_CLC_COALESCING_HPP
