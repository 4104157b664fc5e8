#ifndef HPLREPRO_CLSIM_COALESCING_HPP
#define HPLREPRO_CLSIM_COALESCING_HPP

/// \file coalescing.hpp
/// Warp-level memory coalescing analysis.
///
/// GPUs service the global-memory accesses of a warp in units of aligned
/// segments (32 B on Fermi). When the 32 lanes of a warp touch consecutive
/// addresses, a 128 B request needs only 4 segments; a random gather needs
/// up to 32. This tracker replays that bookkeeping: for every memory
/// instruction (identified by pc_key) it collects the segments touched by
/// the current warp and counts one transaction per distinct segment.
///
/// Work-items of a group run sequentially in the simulator, so the tracker
/// keys the "current warp" on item_linear / warp_size and flushes when a
/// new warp starts issuing from the same instruction.
///
/// The tracker sits on the interpreters' per-access path, so the
/// per-instruction state lives in a flat open-addressed table (one multiply
/// and usually one probe per access), and warp and segment sizes must be
/// powers of two so the divisions are shifts. A single-segment access to
/// the segment its warp recorded last at that instruction returns at once.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "clc/vm.hpp"

namespace hplrepro::clsim {

class CoalescingTracker final : public clc::MemTracker {
public:
  /// 0 selects the defaults (1 lane, 32 B). Throws InvalidArgument unless
  /// both sizes are powers of two.
  explicit CoalescingTracker(unsigned warp_size, unsigned segment_bytes);

  void global_access(std::uint32_t pc_key, std::uint64_t item_linear,
                     std::uint64_t buffer, std::uint64_t offset,
                     std::uint32_t size, bool is_store) override;

  /// Flushes pending warps and returns the transaction count since the
  /// last reset.
  std::uint64_t finish();

  /// Clears all state (reuse across groups).
  void reset();

private:
  /// Marks a free table slot; real keys are 32-bit pc_keys.
  static constexpr std::uint64_t kFree = UINT64_MAX;

  struct PerInstr {
    std::uint64_t key = kFree;
    std::uint64_t warp = UINT64_MAX;
    // Segments touched by the current warp at this instruction. Accesses
    // are usually strided, so a small vector with linear scan beats a set.
    std::vector<std::uint64_t> segments;
  };

  PerInstr& lookup(std::uint32_t pc_key);
  void grow();

  unsigned warp_shift_;     // log2(warp size)
  unsigned segment_shift_;  // log2(segment bytes)
  std::vector<PerInstr> table_;  // power-of-two size, linear probing
  std::size_t used_ = 0;
  std::uint64_t transactions_ = 0;
};

}  // namespace hplrepro::clsim

#endif  // HPLREPRO_CLSIM_COALESCING_HPP
