#include "clc/coalescing.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "support/error.hpp"

namespace hplrepro::clc {

namespace {

/// log2(v); v must be a power of two.
unsigned shift_of(unsigned v, const char* what) {
  if (!std::has_single_bit(v)) {
    throw InvalidArgument(std::string("CoalescingTracker: ") + what + " " +
                          std::to_string(v) + " is not a power of two");
  }
  return static_cast<unsigned>(std::countr_zero(v));
}

}  // namespace

CoalescingTracker::CoalescingTracker(unsigned warp_size,
                                     unsigned segment_bytes,
                                     std::size_t num_slots)
    : warp_shift_(shift_of(warp_size == 0 ? 1 : warp_size, "warp size")),
      segment_shift_(
          shift_of(segment_bytes == 0 ? 32 : segment_bytes, "segment size")),
      num_slots_(num_slots),
      slots_(num_slots) {}

void CoalescingTracker::insert(Slot& state, std::uint64_t first,
                               std::uint64_t last) {
  for (std::uint64_t seg = first; seg <= last; ++seg) {
    if (state.segments.empty() || seg > state.top) {
      state.segments.push_back(seg);
      state.top = seg;
    } else if (std::find(state.segments.begin(), state.segments.end(), seg) ==
               state.segments.end()) {
      state.segments.push_back(seg);
    }
  }
}

void CoalescingTracker::access_key(std::uint32_t key,
                                   std::uint64_t item_linear,
                                   std::uint64_t buffer, std::uint64_t offset,
                                   std::uint32_t size) {
  const auto [it, added] = key_slots_.try_emplace(
      key, static_cast<std::uint32_t>(slots_.size()));
  if (added) slots_.emplace_back();
  access(it->second, item_linear, buffer, offset, size);
}

std::uint64_t CoalescingTracker::finish() {
  for (Slot& state : slots_) {
    transactions_ += state.segments.size();
    state.segments.clear();
    state.warp = UINT64_MAX;
  }
  const std::uint64_t result = transactions_;
  transactions_ = 0;
  return result;
}

void CoalescingTracker::reset() {
  slots_.resize(num_slots_);
  for (Slot& state : slots_) {
    state.warp = UINT64_MAX;
    state.segments.clear();
  }
  key_slots_.clear();
  transactions_ = 0;
}

}  // namespace hplrepro::clc
