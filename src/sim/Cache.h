//===- sim/Cache.h - Set-associative cache model ---------------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative, LRU, write-allocate cache model. The evaluation's
/// memory hierarchy (sim/MemoryHierarchy.h) stacks three of these with the
/// geometry of a named machine preset (sim/Machine.h); the default is the
/// paper's Xeon W-2195 (32 KiB L1D, 1 MiB L2, 24.75 MiB L3).
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SIM_CACHE_H
#define HALO_SIM_CACHE_H

#include "support/Bits.h"

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace halo {

/// Geometry of one cache level. A plain value type with nothing heap-owned
/// in it: Cache objects live on the simulator's hottest path, and level
/// names belong to the machine presets (sim/Machine.h), not in here.
struct CacheConfig {
  uint64_t SizeBytes = 32 * 1024;
  uint32_t Ways = 8;
  uint32_t LineSize = 64;
};

/// One level of set-associative cache with true-LRU replacement.
///
/// Each set keeps its tags in one flat set-major array of 32-bit tags,
/// most recently used first: a hit or a fill moves its tag to the front,
/// and the victim is always the last tag. That is exactly LRU with no
/// per-way clock, and the MRU probe is one compare against the set's first
/// tag. Empty ways hold InvalidTag; a fill always shifts one out before
/// any live tag, so a set fills before it evicts.
///
/// A tag is the line number divided by the set count, so 32 bits bound the
/// addresses a level can hold: every address must lie below
/// addressLimit(), where the tag would reach InvalidTag. access() and
/// contains() assert that precondition; MemoryHierarchy::access() checks it
/// in every build, so no address from outside the program reaches here.
class Cache {
public:
  explicit Cache(const CacheConfig &Config);

  /// Looks up the line containing \p Addr, inserting it on a miss (evicting
  /// the LRU way). Returns true on hit. Repeat hits on the most-recently-
  /// used way dominate; one compare settles them without the scan.
  /// \p Addr must lie below addressLimit().
  ///
  /// Defined inline (like the whole lookup path) so the simulator's per-
  /// level passes (MemoryHierarchy's drain) fuse it into their loops: an
  /// out-of-line call per way scan measurably dominates the scan itself.
  bool access(uint64_t Addr) {
    assert(Addr < AddrLimit && "address past the level's 32-bit tag space");
    auto [Set, Tag] = locate(Addr);
    uint32_t *Begin = &Tags[uint64_t(Set) * Config.Ways];
    if (Begin[0] == Tag) {
      ++Hits;
      return true;
    }
    return scanInsert(Begin, Tag);
  }

  /// Returns true if the line containing \p Addr is currently cached,
  /// without updating replacement state (for tests). \p Addr must lie
  /// below addressLimit().
  bool contains(uint64_t Addr) const;

  /// The first address whose tag would reach InvalidTag: InvalidTag * sets
  /// * line size, saturated at 2^64 - 1. Every address below it has a tag.
  uint64_t addressLimit() const { return AddrLimit; }

  /// Drops all cached lines and resets statistics.
  void reset();

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  uint64_t accesses() const { return Hits + Misses; }

  const CacheConfig &config() const { return Config; }
  uint32_t numSets() const { return Sets; }

private:
  /// Empty-way tag marker, the one 32-bit value no live tag takes: tags
  /// of addresses below addressLimit() are smaller.
  static constexpr uint32_t InvalidTag = UINT32_MAX;

  /// Set index and tag of \p Addr. Divisions on the per-access path are
  /// precomputed away: power-of-two set counts reduce to shifts, and the
  /// rest (e.g. the W-2195 L3's 36864 = 2^12 * 9 sets) shift out their
  /// power-of-two factor and divide by the small odd cofactor through a
  /// reciprocal multiply -- quotients bit-identical to the hardware
  /// divide, at a fraction of its latency on a path L3 lookups hit twice.
  /// Below addressLimit() the tag fits in 32 bits.
  std::pair<uint32_t, uint32_t> locate(uint64_t Addr) const {
    uint64_t Line = Addr >> LineShift;
    if (SetShift >= 0)
      return {static_cast<uint32_t>(Line & (Sets - 1)),
              static_cast<uint32_t>(Line >> SetShift)};
    uint64_t Tag = OddDiv.divide(Line >> SetP2Shift); // == Line / Sets.
    return {static_cast<uint32_t>(Line - Tag * Sets),
            static_cast<uint32_t>(Tag)};
  }

  /// The way scan after an MRU mismatch, fused with the move to front:
  /// each visited tag shifts one way back, so a hit at way I ends with
  /// ways [0, I) moved to [1, I] and the tag in front, and a miss ends
  /// with every tag shifted, the last (LRU) one dropped, and the new tag
  /// in front. \p Begin is the set's first way, which holds another tag.
  bool scanInsert(uint32_t *Begin, uint32_t Tag) {
    uint32_t Carry = Begin[0];
    for (uint32_t Way = 1; Way < Config.Ways; ++Way) {
      uint32_t Here = Begin[Way];
      Begin[Way] = Carry;
      if (Here == Tag) {
        Begin[0] = Tag;
        ++Hits;
        return true;
      }
      Carry = Here;
    }
    Begin[0] = Tag;
    ++Misses;
    return false;
  }

  CacheConfig Config;
  uint32_t Sets;
  uint32_t LineShift = 0; ///< log2(LineSize).
  int32_t SetShift = -1;  ///< log2(Sets), or -1 if Sets is not a power of 2.
  uint32_t SetP2Shift = 0; ///< Trailing zero count of a non-p2 set count.
  MagicDivider OddDiv;     ///< Divides by Sets >> SetP2Shift (odd).
  uint64_t AddrLimit = 0;  ///< addressLimit().
  std::vector<uint32_t> Tags; ///< Sets * Ways tags, set-major, MRU first.
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

} // namespace halo

#endif // HALO_SIM_CACHE_H
