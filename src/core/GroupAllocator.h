//===- core/GroupAllocator.h - HALO's specialised allocator ----*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The specialised group allocator of Section 4.4 / Figure 11. Memory is
/// reserved from the OS in large demand-paged slabs; group-specific chunks
/// are carved from slabs (always aligned to their size, so a region's chunk
/// header is found with bitwise operations); regions are bump-allocated
/// from each group's current chunk with no per-object headers, guaranteeing
/// contiguity between consecutive grouped allocations. Chunk headers count
/// live_regions; empty chunks are kept as spares, purged, or reused
/// according to the configured policy. Requests that are too large or match
/// no group selector forward to the default allocator (the paper forwards
/// through dlsym).
///
/// Group membership is decided by a pluggable GroupPolicy: HALO evaluates
/// compiled selectors against the group state vector; the hot-data-streams
/// comparison maps the immediate malloc call site to a group.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_CORE_GROUPALLOCATOR_H
#define HALO_CORE_GROUPALLOCATOR_H

#include "identify/Selector.h"
#include "mem/Allocator.h"
#include "mem/Arena.h"
#include "prog/GroupStateVector.h"

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

namespace halo {

/// Decides which group (if any) an allocation request belongs to.
class GroupPolicy {
public:
  virtual ~GroupPolicy();
  /// Returns the group index or -1 for "ungrouped".
  virtual int32_t selectGroup(const AllocRequest &Request) const = 0;
  virtual uint32_t numGroups() const = 0;
};

/// HALO's policy: match compiled selectors (most popular group first)
/// against the shared group state vector.
class SelectorGroupPolicy : public GroupPolicy {
public:
  /// \p State is the runtime's group state vector; it must outlive this.
  SelectorGroupPolicy(const GroupStateVector &State,
                      std::vector<CompiledSelector> Selectors);

  int32_t selectGroup(const AllocRequest &Request) const override;
  uint32_t numGroups() const override {
    return static_cast<uint32_t>(Selectors.size());
  }

private:
  const GroupStateVector &State;
  std::vector<CompiledSelector> Selectors;
};

/// The comparison technique's policy: the immediate call site of the
/// allocation identifies the group (Section 5.1, "identified at runtime
/// using the immediate call site of the allocation procedure").
class SiteGroupPolicy : public GroupPolicy {
public:
  SiteGroupPolicy(std::unordered_map<uint32_t, uint32_t> SiteToGroup,
                  uint32_t NumGroups);

  int32_t selectGroup(const AllocRequest &Request) const override;
  uint32_t numGroups() const override { return Groups; }

private:
  /// (site, group) pairs sorted by site: a binary search per request.
  std::vector<std::pair<uint32_t, uint32_t>> SiteToGroup;
  uint32_t Groups;
};

/// Configuration of the specialised allocator (Section 5.1 defaults). Only
/// allocations smaller than MaxGroupedSize (mem/Allocator.h) are grouped.
struct GroupAllocatorOptions {
  /// 1 MiB chunks (128 KiB for omnetpp); see validChunkSize().
  uint64_t ChunkSize = 1 << 20;
  /// Empty chunks kept resident for reuse ("a single spare chunk for reuse
  /// when purging dirty pages, as early versions of jemalloc did").
  uint32_t MaxSpareChunks = 1;
  /// When false, empty chunks are always reused without purging their dirty
  /// pages (the omnetpp/xalanc configuration).
  bool PurgeEmptyChunks = true;
};

/// Whether GroupAllocator accepts \p ChunkSize: a power of two from
/// GroupAllocator::MinChunkSize to GroupAllocator::SlabSize.
bool validChunkSize(uint64_t ChunkSize);

/// Fragmentation accounting for Table 1: live vs resident grouped data,
/// sampled at peak resident usage.
struct FragmentationStats {
  uint64_t PeakResident = 0;
  uint64_t LiveAtPeak = 0;

  uint64_t wastedBytes() const {
    return PeakResident > LiveAtPeak ? PeakResident - LiveAtPeak : 0;
  }
  double wastedPercent() const {
    return PeakResident
               ? 100.0 * static_cast<double>(wastedBytes()) /
                     static_cast<double>(PeakResident)
               : 0.0;
  }
};

/// The specialised group allocator.
class GroupAllocator : public Allocator {
public:
  /// Space reserved at the front of every chunk for its header (Figure 11);
  /// regions start after it, so chunkBase(region) != region.
  static constexpr uint64_t ChunkHeaderSize = 64;
  /// Memory is reserved in large demand-paged slabs of this size, and
  /// chunks are carved from them.
  static constexpr uint64_t SlabSize = uint64_t(64) << 20;
  /// The least chunk size: the least power of two that holds a header and
  /// the largest grouped object.
  static constexpr uint64_t MinChunkSize = uint64_t(8) << 10;

  /// \p Backing serves forwarded requests; \p Policy decides membership.
  /// Both must outlive the allocator. Throws std::invalid_argument, in
  /// every build, for a chunk size validChunkSize() rejects.
  GroupAllocator(Allocator &Backing, const GroupPolicy &Policy,
                 const GroupAllocatorOptions &Options = GroupAllocatorOptions(),
                 uint64_t ArenaBase = 0x40000000000ull);

  uint64_t allocate(const AllocRequest &Request) override;
  void deallocate(uint64_t Addr) override;
  bool owns(uint64_t Addr) const override;
  uint64_t usableSize(uint64_t Addr) const override;
  uint64_t liveBytes() const override;
  uint64_t residentBytes() const override;
  std::string name() const override { return "halo-group"; }

  /// Grouped-object fragmentation at peak usage (Table 1).
  const FragmentationStats &fragmentation() const { return Frag; }

  uint64_t groupedAllocations() const { return GroupedAllocs; }
  uint64_t forwardedAllocations() const { return ForwardedAllocs; }
  uint64_t groupedLiveBytes() const { return GroupedLive; }
  uint64_t chunkCount() const { return ChunksInUse; }
  uint64_t spareChunkCount() const { return SpareChunks.size(); }
  const VirtualArena &arena() const { return Arena; }

private:
  /// One region carved from a chunk: its offset from the chunk base and
  /// the bytes requested (0 once freed).
  struct Region {
    uint32_t Offset;
    uint32_t Size;
  };

  /// A chunk's header (Figure 11) plus its region records. Entries of the
  /// chunk table exist for every chunk of every slab; InUse marks those a
  /// group holds, from takeChunk() until the chunk is empty and retired.
  struct ChunkHeader {
    uint64_t LiveRegions = 0; ///< Incremented per allocation, decremented
                              ///< per free; zero means reusable/freeable.
    int32_t Group = -1;
    bool IsCurrent = false;
    bool InUse = false;
    /// Every region carved since the chunk was taken, in address order
    /// (bump allocation appends), so a lookup is a binary search.
    std::vector<Region> Regions;
  };

  struct GroupCursor {
    uint64_t Cursor = 0;
    uint64_t End = 0; ///< Chunk end; 0 when the group has no chunk yet.
  };

  uint64_t groupMalloc(uint32_t Group, uint64_t Size);
  void groupFree(uint64_t Addr);
  uint64_t takeChunk(uint32_t Group);
  void retireChunk(uint64_t Base);
  /// Returns the empty, no longer current chunk at \p Base to the spare
  /// or purged list.
  void recycleChunk(uint64_t Base);
  uint64_t chunkBase(uint64_t Addr) const {
    return Addr & ~(Options.ChunkSize - 1);
  }
  /// The chunk-table entry of the chunk holding \p Addr: chunks are
  /// aligned to their size, so the header is found by arithmetic.
  ChunkHeader &chunkOf(uint64_t Addr) {
    return Chunks[(Addr >> ChunkShift) - (Arena.base() >> ChunkShift)];
  }
  const ChunkHeader &chunkOf(uint64_t Addr) const {
    return Chunks[(Addr >> ChunkShift) - (Arena.base() >> ChunkShift)];
  }
  /// The index in \p Header's records of the live region starting at
  /// \p Addr (an address in \p Header's chunk), or NoRegion.
  size_t liveRegion(const ChunkHeader &Header, uint64_t Addr) const;
  static constexpr size_t NoRegion = ~size_t(0);
  void noteUsage();

  Allocator &Backing;
  const GroupPolicy &Policy;
  GroupAllocatorOptions Options;
  uint32_t ChunkShift; ///< log2(Options.ChunkSize).
  VirtualArena Arena;
  std::vector<GroupCursor> Cursors;
  std::vector<ChunkHeader> Chunks; ///< Indexed by chunk number in the arena.
  uint64_t ChunksInUse = 0;
  std::deque<uint64_t> SpareChunks;  ///< Empty, still resident.
  std::deque<uint64_t> PurgedChunks; ///< Empty, pages dropped.
  uint64_t SlabCursor = 0;
  uint64_t SlabEnd = 0;
  uint64_t GroupedLive = 0;
  uint64_t GroupedAllocs = 0;
  uint64_t ForwardedAllocs = 0;
  FragmentationStats Frag;
};

} // namespace halo

#endif // HALO_CORE_GROUPALLOCATOR_H
