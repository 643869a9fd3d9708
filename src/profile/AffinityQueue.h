//===- profile/AffinityQueue.h - Recent-access window -----------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The affinity queue of Section 4.1 / Figure 5: a window over the most
/// recently accessed heap objects, implicitly sized by the affinity
/// distance A. A pair of entries is affinitive when the sizes of the
/// entries between them sum to less than A bytes; operationally, an older
/// entry is affinitive to the newest while any of its bytes overlap the
/// window holding the last A bytes worth of accesses (which reproduces
/// Figure 5's seven-neighbour example exactly). The queue enforces two of
/// the paper's four constraints itself -- deduplication (consecutive
/// machine accesses to one object form a single macro access and do not
/// re-trigger traversal) and no double counting (each unique object is
/// reported at most once per traversal); no self-affinity and
/// co-allocatability are applied by the caller, which owns the metadata.
///
/// This sits on the profiler's per-access fast path, so the traversal is
/// allocation-free: per-traversal object dedup uses an epoch-stamped dense
/// mark array (object ids are dense, LiveObjectMap hands them out
/// sequentially) instead of a scanned list, and access() visits partners
/// through a callback so hot callers never pay for the materialised
/// candidate vector that push() keeps for convenience.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_PROFILE_AFFINITYQUEUE_H
#define HALO_PROFILE_AFFINITYQUEUE_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <vector>

namespace halo {

/// Sliding window of recent macro-level accesses.
class AffinityQueue {
public:
  struct Entry {
    uint32_t Object;
    uint32_t Node;     ///< The object's allocation context.
    uint64_t Bytes;    ///< Macro-access size (merged machine accesses).
    uint64_t CumStart; ///< Byte position of this entry's start.
  };

  /// \p Distance is the affinity distance A. \p Dedup / \p NoDoubleCount
  /// allow the ablation benches to disable those constraints.
  explicit AffinityQueue(uint64_t Distance, bool Dedup = true,
                         bool NoDoubleCount = true)
      : Distance(Distance), Dedup(Dedup), NoDoubleCount(NoDoubleCount) {
    assert(Distance > 0 && "affinity distance must be positive");
  }

  /// Records an access of \p Bytes to \p Object and invokes
  /// \p Visit(const Entry &) for each affinitive partner (older entries
  /// within the window, deduplicated, never the object itself), newest
  /// first. Returns true for a new macro access, false when the access
  /// merged into the previous macro access (no traversal). This is the
  /// zero-copy fast path; push() wraps it when a materialised vector is
  /// more convenient.
  template <typename Callback>
  bool access(uint32_t Object, uint32_t Node, uint64_t Bytes,
              Callback &&Visit) {
    if (Bytes == 0)
      Bytes = 1;

    // Deduplication: consecutive machine-level accesses to a single object
    // are part of the same macro-level access and do not re-trigger
    // traversal; the entry simply grows.
    if (Dedup && !Window.empty() && Window.back().Object == Object) {
      Window.back().Bytes += Bytes;
      NextCum += Bytes;
      LastMerged = true;
      return false;
    }
    LastMerged = false;

    uint64_t NewStart = NextCum;
    uint64_t NewEnd = NewStart + Bytes;

    // The window covers the last A bytes worth of accesses, including the
    // new access itself; an entry is affinitive while any of its bytes
    // overlap that window. This reproduces Figure 5 exactly (ten 4-byte
    // accesses, A = 32: the newest element is affinitive to the seven to
    // its left) and accounts for merged macro accesses consuming window
    // space.
    if (NewEnd >= Distance) {
      uint64_t Cutoff = NewEnd - Distance;
      while (!Window.empty() &&
             Window.front().CumStart + Window.front().Bytes <= Cutoff)
        Window.pop_front();
    }

    // Traverse the window newest-first; each distinct object is reported at
    // most once per traversal. Ids below DenseMarkLimit (every id the
    // profiler hands out: LiveObjectMap ids are sequential) are stamped in
    // MarkEpoch with this traversal's epoch -- O(1) per entry, no clearing
    // between traversals, memory bounded by the limit. Rarer huge ids fall
    // back to a scan of the (tiny, per-traversal) LargeSeen list so a
    // single sparse id can never balloon the array.
    if (NoDoubleCount) {
      if (Object < DenseMarkLimit && Object >= MarkEpoch.size())
        MarkEpoch.resize(
            std::min<size_t>(DenseMarkLimit,
                             std::max<size_t>(static_cast<size_t>(Object) + 1,
                                              MarkEpoch.size() * 2)),
            0);
      LargeSeen.clear();
    }
    ++Epoch;
    for (auto It = Window.rbegin(); It != Window.rend(); ++It) {
      if (It->Object == Object)
        continue; // No self-affinity at the object level.
      if (NoDoubleCount) {
        if (It->Object < DenseMarkLimit) {
          if (MarkEpoch[It->Object] == Epoch)
            continue;
          MarkEpoch[It->Object] = Epoch;
        } else {
          if (std::find(LargeSeen.begin(), LargeSeen.end(), It->Object) !=
              LargeSeen.end())
            continue;
          LargeSeen.push_back(It->Object);
        }
      }
      Visit(*It);
    }

    Window.push_back(Entry{Object, Node, Bytes, NewStart});
    NextCum = NewEnd;
    return true;
  }

  /// Records an access of \p Bytes to \p Object. Returns the affinitive
  /// candidates (older entries within the window, deduplicated, never the
  /// object itself), or an empty list when the access merged into the
  /// previous macro access. The returned reference is valid until the next
  /// push.
  const std::vector<Entry> &push(uint32_t Object, uint32_t Node,
                                 uint64_t Bytes);

  /// True if the most recent push merged into the previous macro access
  /// (and therefore was not a new access at all).
  bool lastPushMerged() const { return LastMerged; }

  uint64_t size() const { return Window.size(); }
  uint64_t distance() const { return Distance; }

private:
  /// Ids below this use the O(1) epoch-mark array (at most 8 MiB); ids at
  /// or above it dedup via the LargeSeen scan instead. The profiler's
  /// object ids are dense and sequential, so its hot path always takes the
  /// array.
  static constexpr uint32_t DenseMarkLimit = 1u << 20;

  uint64_t Distance;
  bool Dedup;
  bool NoDoubleCount;
  bool LastMerged = false;
  std::deque<Entry> Window;
  uint64_t NextCum = 0;
  std::vector<Entry> Candidates;
  /// Dense per-object traversal stamps: MarkEpoch[obj] == Epoch means obj
  /// was already reported during the current traversal. Window entries with
  /// id < DenseMarkLimit were all pushed before, so the array (grown on
  /// push) always covers them.
  std::vector<uint64_t> MarkEpoch;
  uint64_t Epoch = 0;
  /// Per-traversal dedup scratch for ids >= DenseMarkLimit (bounded by the
  /// window length, normally empty).
  std::vector<uint32_t> LargeSeen;
};

} // namespace halo

#endif // HALO_PROFILE_AFFINITYQUEUE_H
