#include "clsim/coalescing.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "support/error.hpp"

namespace hplrepro::clsim {

namespace {

/// log2(v); v must be a power of two.
unsigned shift_of(unsigned v, const char* what) {
  if (!std::has_single_bit(v)) {
    throw InvalidArgument(std::string("CoalescingTracker: ") + what + " " +
                          std::to_string(v) + " is not a power of two");
  }
  return static_cast<unsigned>(std::countr_zero(v));
}

/// First probe slot of a key. Fibonacci hashing: pc_keys differ mostly in
/// their low (pc) bits, which the multiply spreads over the high bits.
std::size_t home_slot(std::uint64_t key, std::size_t mask) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
}

}  // namespace

CoalescingTracker::CoalescingTracker(unsigned warp_size,
                                     unsigned segment_bytes)
    : warp_shift_(shift_of(warp_size == 0 ? 1 : warp_size, "warp size")),
      segment_shift_(
          shift_of(segment_bytes == 0 ? 32 : segment_bytes, "segment size")),
      table_(16) {}

CoalescingTracker::PerInstr& CoalescingTracker::lookup(std::uint32_t pc_key) {
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = home_slot(pc_key, mask);; i = (i + 1) & mask) {
    PerInstr& slot = table_[i];
    if (slot.key == pc_key) return slot;
    if (slot.key != kFree) continue;
    // New instruction: claim the slot, keeping the load factor <= 1/2.
    if (2 * (used_ + 1) > table_.size()) {
      grow();
      return lookup(pc_key);
    }
    ++used_;
    slot.key = pc_key;
    return slot;
  }
}

void CoalescingTracker::grow() {
  std::vector<PerInstr> old(table_.size() * 2);
  old.swap(table_);
  const std::size_t mask = table_.size() - 1;
  for (PerInstr& entry : old) {
    if (entry.key == kFree) continue;
    std::size_t i = home_slot(entry.key, mask);
    while (table_[i].key != kFree) i = (i + 1) & mask;
    table_[i] = std::move(entry);
  }
}

void CoalescingTracker::global_access(std::uint32_t pc_key,
                                      std::uint64_t item_linear,
                                      std::uint64_t buffer,
                                      std::uint64_t offset, std::uint32_t size,
                                      bool /*is_store*/) {
  PerInstr& state = lookup(pc_key);
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
  for (std::uint64_t seg = first; seg <= last; ++seg) {
    if (std::find(state.segments.begin(), state.segments.end(), seg) ==
        state.segments.end()) {
      state.segments.push_back(seg);
    }
  }
}

std::uint64_t CoalescingTracker::finish() {
  for (PerInstr& state : table_) {
    transactions_ += state.segments.size();
    state.segments.clear();
    state.warp = UINT64_MAX;
  }
  const std::uint64_t result = transactions_;
  transactions_ = 0;
  return result;
}

void CoalescingTracker::reset() {
  for (PerInstr& state : table_) {
    state.key = kFree;
    state.warp = UINT64_MAX;
    state.segments.clear();
  }
  used_ = 0;
  transactions_ = 0;
}

}  // namespace hplrepro::clsim
