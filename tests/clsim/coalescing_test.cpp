// CoalescingTracker unit tests: the transaction counts that feed the GPU
// timing model must follow the Fermi segment rules the tracker implements.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "clc/coalescing.hpp"
#include "support/error.hpp"

using hplrepro::clc::CoalescingTracker;

namespace {

TEST(Coalescing, FullyCoalescedWarpUsesMinimalSegments) {
  CoalescingTracker tracker(32, 32);
  // 32 lanes touch consecutive floats: 128 bytes = 4 segments of 32 B.
  for (std::uint64_t lane = 0; lane < 32; ++lane) {
    tracker.access_key(/*pc=*/1, lane, /*buffer=*/0, lane * 4, 4);
  }
  EXPECT_EQ(tracker.finish(), 4u);
}

TEST(Coalescing, StridedWarpPaysOneSegmentPerLane) {
  CoalescingTracker tracker(32, 32);
  // Stride of 128 bytes: every lane lands in its own segment.
  for (std::uint64_t lane = 0; lane < 32; ++lane) {
    tracker.access_key(1, lane, 0, lane * 128, 4);
  }
  EXPECT_EQ(tracker.finish(), 32u);
}

TEST(Coalescing, SameAddressBroadcastIsOneSegment) {
  CoalescingTracker tracker(32, 32);
  for (std::uint64_t lane = 0; lane < 32; ++lane) {
    tracker.access_key(1, lane, 0, 4096, 4);
  }
  EXPECT_EQ(tracker.finish(), 1u);
}

TEST(Coalescing, SeparateWarpsCountSeparately) {
  CoalescingTracker tracker(32, 32);
  // Two warps, each coalesced: 4 + 4 segments.
  for (std::uint64_t item = 0; item < 64; ++item) {
    tracker.access_key(1, item, 0, item * 4, 4);
  }
  EXPECT_EQ(tracker.finish(), 8u);
}

TEST(Coalescing, DistinctInstructionsTrackIndependently) {
  CoalescingTracker tracker(32, 32);
  for (std::uint64_t lane = 0; lane < 32; ++lane) {
    tracker.access_key(1, lane, 0, lane * 4, 4);       // coalesced
    tracker.access_key(2, lane, 0, lane * 256, 4);     // scattered
  }
  EXPECT_EQ(tracker.finish(), 4u + 32u);
}

TEST(Coalescing, DifferentBuffersNeverMerge) {
  CoalescingTracker tracker(32, 32);
  for (std::uint64_t lane = 0; lane < 32; ++lane) {
    tracker.access_key(1, lane, /*buffer=*/lane % 2, 0, 4);
  }
  // Same offset but two buffers: 2 segments.
  EXPECT_EQ(tracker.finish(), 2u);
}

TEST(Coalescing, AccessSpanningSegmentsCountsBoth) {
  CoalescingTracker tracker(32, 32);
  // An 8-byte access at offset 28 crosses the 32-byte boundary.
  tracker.access_key(1, 0, 0, 28, 8);
  EXPECT_EQ(tracker.finish(), 2u);
}

TEST(Coalescing, WarpSizeOneCountsEveryAccess) {
  CoalescingTracker tracker(1, 32);
  for (std::uint64_t item = 0; item < 8; ++item) {
    tracker.access_key(1, item, 0, item * 4, 4);
  }
  // Each item forms its own warp: 8 transactions even though consecutive.
  EXPECT_EQ(tracker.finish(), 8u);
}

TEST(Coalescing, ResetClearsState) {
  CoalescingTracker tracker(32, 32);
  tracker.access_key(1, 0, 0, 0, 4);
  tracker.reset();
  EXPECT_EQ(tracker.finish(), 0u);
}

TEST(Coalescing, FinishIsIdempotent) {
  CoalescingTracker tracker(32, 32);
  tracker.access_key(1, 0, 0, 0, 4);
  EXPECT_EQ(tracker.finish(), 1u);
  EXPECT_EQ(tracker.finish(), 0u);
}

// --- Oracle: the straightforward tracker ---------------------------------------

// The original hash-map implementation, kept verbatim as the reference the
// flat-table tracker must match transaction for transaction: the two
// interpreters report the same transaction counts only while the tracker
// itself is exact.
class ReferenceTracker {
public:
  ReferenceTracker(unsigned warp_size, unsigned segment_bytes)
      : warp_size_(warp_size == 0 ? 1 : warp_size),
        segment_bytes_(segment_bytes == 0 ? 32 : segment_bytes) {}

  void global_access(std::uint32_t pc_key, std::uint64_t item_linear,
                     std::uint64_t buffer, std::uint64_t offset,
                     std::uint32_t size) {
    PerInstr& state = instrs_[pc_key];
    const std::uint64_t warp = item_linear / warp_size_;
    if (warp != state.warp) {
      transactions_ += state.segments.size();
      state.segments.clear();
      state.warp = warp;
    }
    const std::uint64_t first = (buffer << 50) | (offset / segment_bytes_);
    const std::uint64_t last =
        (buffer << 50) | ((offset + size - 1) / segment_bytes_);
    for (std::uint64_t seg = first; seg <= last; ++seg) {
      if (std::find(state.segments.begin(), state.segments.end(), seg) ==
          state.segments.end()) {
        state.segments.push_back(seg);
      }
    }
  }

  std::uint64_t finish() {
    for (auto& [key, state] : instrs_) {
      transactions_ += state.segments.size();
      state.segments.clear();
      state.warp = UINT64_MAX;
    }
    const std::uint64_t result = transactions_;
    transactions_ = 0;
    return result;
  }

  void reset() {
    instrs_.clear();
    transactions_ = 0;
  }

private:
  struct PerInstr {
    std::uint64_t warp = UINT64_MAX;
    std::vector<std::uint64_t> segments;
  };

  unsigned warp_size_;
  unsigned segment_bytes_;
  std::unordered_map<std::uint32_t, PerInstr> instrs_;
  std::uint64_t transactions_ = 0;
};

// The tracker under test, fed either through its keyed entry point (the
// stack interpreter's path) or through its slot path with each key mapped
// to the next free slot on first appearance, as lower_module numbers a
// module's memory instructions. The mapping is static, like a module's, so
// reset() keeps it.
class Subject {
public:
  static constexpr std::uint32_t kSlots = 256;

  Subject(unsigned warp_size, unsigned segment_bytes, bool slotted)
      : tracker_(warp_size, segment_bytes, slotted ? kSlots : 0),
        slotted_(slotted) {}

  void access_key(std::uint32_t key, std::uint64_t item_linear,
                  std::uint64_t buffer, std::uint64_t offset,
                  std::uint32_t size) {
    if (!slotted_) {
      tracker_.access_key(key, item_linear, buffer, offset, size);
      return;
    }
    const auto [it, added] = slot_of_.try_emplace(
        key, static_cast<std::uint32_t>(slot_of_.size()));
    ASSERT_LT(it->second, kSlots);
    tracker_.access(it->second, item_linear, buffer, offset, size);
  }

  std::uint64_t finish() { return tracker_.finish(); }
  void reset() { tracker_.reset(); }

private:
  CoalescingTracker tracker_;
  bool slotted_;
  std::unordered_map<std::uint32_t, std::uint32_t> slot_of_;
};

// Seeded random access streams shaped like kernel execution — items in
// order, each issuing from a set of memory instructions (some in other
// functions' pc_key ranges), with occasional backward item jumps — over
// several buffers, with 1/4/8/16 B accesses placed to straddle segment
// boundaries, and finish()/reset() mid-stream. The 64 B and 128 B segments
// make the 16 B accesses and the segment jitter cross boundaries at other
// alignments than 32 B does. Replayed through the keyed or the slot path.
void replay_streams_against_reference(bool slotted) {
  constexpr std::uint32_t kSizes[] = {1, 4, 8, 16};
  for (const unsigned warp : {1u, 8u, 32u}) {
    for (const unsigned segment : {32u, 64u, 128u}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE("warp " + std::to_string(warp) + " segment " +
                     std::to_string(segment) + " seed " +
                     std::to_string(seed));
        std::mt19937_64 rng(seed * 1000 + warp * 10 + segment);
        auto below = [&](std::uint64_t n) { return rng() % n; };

        std::vector<std::uint32_t> keys;
        const std::size_t nkeys = 1 + below(40);
        for (std::size_t k = 0; k < nkeys; ++k) {
          keys.push_back(static_cast<std::uint32_t>(below(3) << 20) |
                         static_cast<std::uint32_t>(below(4096)));
        }
        Subject tracker(warp, segment, slotted);
        ReferenceTracker reference(warp, segment);

        std::uint64_t item = 0;
        for (int step = 0; step < 4000; ++step) {
          const std::uint32_t key = keys[below(keys.size())];
          const std::uint64_t buffer = below(4);
          const std::uint32_t size = kSizes[below(4)];
          // Mostly strided by item, sometimes scattered; the jitter moves
          // accesses across segment boundaries.
          const std::uint64_t stride = 1 + below(2) * size;
          const std::uint64_t offset =
              below(8) == 0 ? below(1u << 20)
                            : item * stride + below(segment);
          tracker.access_key(key, item, buffer, offset, size);
          reference.global_access(key, item, buffer, offset, size);

          const std::uint64_t roll = below(100);
          if (roll < 30) {
            ++item;
          } else if (roll < 32 && item > 0) {
            item -= 1 + below(item);
          }
          if (below(500) == 0) {
            ASSERT_EQ(tracker.finish(), reference.finish()) << step;
          }
          if (below(1500) == 0) {
            tracker.reset();
            reference.reset();
            item = 0;
          }
        }
        ASSERT_EQ(tracker.finish(), reference.finish());
        EXPECT_EQ(tracker.finish(), 0u);
      }
    }
  }

  // Repeat-heavy streams, the shape work-item loops produce and the
  // tracker's fast path (same single segment as the warp's last one at
  // that instruction) serves: long runs of one instruction over
  // consecutive items at stride 0 or one element, items issuing a few
  // instructions in turn, and new instructions first appearing in the
  // middle of a warp so the table grows while warps are open.
  for (const unsigned warp : {1u, 8u, 32u}) {
    for (const unsigned segment : {32u, 64u, 128u}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("repeat-heavy warp " + std::to_string(warp) +
                     " segment " + std::to_string(segment) + " seed " +
                     std::to_string(seed));
        std::mt19937_64 rng(seed * 7919 + warp * 10 + segment);
        auto below = [&](std::uint64_t n) { return rng() % n; };
        Subject tracker(warp, segment, slotted);
        ReferenceTracker reference(warp, segment);
        auto access = [&](std::uint32_t key, std::uint64_t item,
                          std::uint64_t buffer, std::uint64_t offset,
                          std::uint32_t size) {
          tracker.access_key(key, item, buffer, offset, size);
          reference.global_access(key, item, buffer, offset, size);
        };

        std::vector<std::uint32_t> keys{7u};
        std::uint64_t item = 0;
        for (int burst = 0; burst < 400; ++burst) {
          if (below(6) == 0) {
            keys.push_back(static_cast<std::uint32_t>(below(3) << 20) |
                           static_cast<std::uint32_t>(below(4096)));
          }
          const std::uint64_t buffer = below(2);
          const std::uint32_t size = kSizes[below(4)];
          const std::uint64_t base = below(4096);
          const std::uint64_t stride = below(2) * size;
          if (below(2) == 0) {
            const std::uint32_t key = keys[below(keys.size())];
            const std::uint64_t run = 1 + below(96);
            for (std::uint64_t r = 0; r < run; ++r) {
              access(key, item + r, buffer, base + r * stride, size);
            }
            item += run;
          } else {
            const std::size_t n =
                std::min<std::size_t>(keys.size(), 1 + below(4));
            const std::uint64_t run = 1 + below(48);
            for (std::uint64_t r = 0; r < run; ++r) {
              for (std::size_t k = 0; k < n; ++k) {
                access(keys[keys.size() - 1 - k], item + r, buffer,
                       base + k * 4096 + r * stride, size);
              }
            }
            item += run;
          }
          if (below(40) == 0) {
            ASSERT_EQ(tracker.finish(), reference.finish()) << burst;
          }
          if (below(150) == 0) {
            tracker.reset();
            reference.reset();
            item = 0;
          }
        }
        ASSERT_EQ(tracker.finish(), reference.finish());
        EXPECT_EQ(tracker.finish(), 0u);
      }
    }
  }
}

TEST(Coalescing, FlatTableMatchesReferenceOnRandomStreams) {
  replay_streams_against_reference(/*slotted=*/false);
}

// The register VMs' path: one array index per access.
TEST(Coalescing, SlotPathMatchesReferenceOnRandomStreams) {
  replay_streams_against_reference(/*slotted=*/true);
}

// Streams the ascending fast paths do not serve: each warp issues its
// segments in descending order, or scattered over a few pages with
// repeats, from a handful of instructions in turn (the order work-item
// loops and lane groups produce), with accesses spanning two segments.
// Only a segment above every one the warp recorded skips the search.
TEST(Coalescing, DescendingAndScatteredStreamsMatchReference) {
  constexpr std::uint32_t kSizes[] = {1, 4, 8, 16, 48};
  for (const bool slotted : {false, true}) {
    for (const unsigned warp : {1u, 8u, 32u}) {
      for (const unsigned segment : {32u, 64u}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
          SCOPED_TRACE(std::string(slotted ? "slotted" : "keyed") + " warp " +
                       std::to_string(warp) + " segment " +
                       std::to_string(segment) + " seed " +
                       std::to_string(seed));
          std::mt19937_64 rng(seed * 104729 + warp * 10 + segment);
          auto below = [&](std::uint64_t n) { return rng() % n; };
          Subject tracker(warp, segment, slotted);
          ReferenceTracker reference(warp, segment);
          const std::uint32_t keys[] = {3u, 1u << 20, 77u};
          std::uint64_t item = 0;
          for (int burst = 0; burst < 300; ++burst) {
            const std::uint64_t buffer = below(2);
            const std::uint32_t size = kSizes[below(5)];
            const std::uint64_t run = 1 + below(64);
            const bool descending = below(2) == 0;
            const std::uint64_t top = 8192 + below(8192);
            for (std::uint64_t r = 0; r < run; ++r) {
              for (const std::uint32_t key : keys) {
                const std::uint64_t offset =
                    descending ? top - r * size - below(3) * segment
                               : below(4) * 4096 + below(512);
                tracker.access_key(key, item + r, buffer, offset, size);
                reference.global_access(key, item + r, buffer, offset, size);
              }
            }
            item += run;
            if (below(30) == 0) {
              ASSERT_EQ(tracker.finish(), reference.finish()) << burst;
            }
          }
          ASSERT_EQ(tracker.finish(), reference.finish());
        }
      }
    }
  }
}

// Keyed instructions take slots past the module's, so a key never shares
// state with a slot of the same number; reset() drops the keyed slots.
TEST(Coalescing, KeyedSlotsFollowModuleSlots) {
  CoalescingTracker tracker(32, 32, 2);
  for (std::uint64_t lane = 0; lane < 32; ++lane) {
    tracker.access(0, lane, 0, lane * 4, 4);        // coalesced: 4
    tracker.access_key(0, lane, 0, lane * 128, 4);  // scattered: 32
  }
  EXPECT_EQ(tracker.finish(), 4u + 32u);
  tracker.access_key(0, 0, 0, 0, 4);
  tracker.reset();
  tracker.access(1, 0, 0, 0, 4);
  EXPECT_EQ(tracker.finish(), 1u);
}

// The tracker divides by shifting, so it refuses sizes a shift cannot
// divide by instead of silently miscounting; 0 still selects the defaults.
TEST(Coalescing, RejectsNonPowerOfTwoSizes) {
  EXPECT_THROW(CoalescingTracker(24, 32), hplrepro::InvalidArgument);
  EXPECT_THROW(CoalescingTracker(32, 48), hplrepro::InvalidArgument);
  EXPECT_NO_THROW(CoalescingTracker(0, 0));
  EXPECT_NO_THROW(CoalescingTracker(1, 64));
}

}  // namespace
