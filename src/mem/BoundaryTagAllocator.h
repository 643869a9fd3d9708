//===- mem/BoundaryTagAllocator.h - ptmalloc-like baseline -----*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A boundary-tag allocator modelled on glibc's ptmalloc2: every chunk
/// carries a 16-byte inline header, freed chunks are recycled through
/// exact-size LIFO bins (fastbin-like) and a best-fit sorted bin with
/// splitting. The inline headers space payloads apart and splitting mixes
/// sizes in the address space, which is why the paper finds jemalloc a more
/// aggressive baseline ("reducing L1 data-cache misses by as much as 32%",
/// Section 5.1) -- the baseline_allocators row of bench/figures reproduces
/// that comparison.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_MEM_BOUNDARYTAGALLOCATOR_H
#define HALO_MEM_BOUNDARYTAGALLOCATOR_H

#include "mem/Allocator.h"
#include "mem/Arena.h"

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace halo {

/// ptmalloc2-like boundary-tag allocator over a simulated arena.
class BoundaryTagAllocator : public Allocator {
public:
  static constexpr uint64_t HeaderSize = 16;
  /// Chunks at most this large use exact-size LIFO bins.
  static constexpr uint64_t MaxFastChunk = 1040;

  explicit BoundaryTagAllocator(uint64_t ArenaBase = 0x20000000000ull);

  uint64_t allocate(const AllocRequest &Request) override;
  void deallocate(uint64_t Addr) override;
  bool owns(uint64_t Addr) const override;
  uint64_t usableSize(uint64_t Addr) const override;
  uint64_t liveBytes() const override { return Live; }
  uint64_t residentBytes() const override { return Arena.residentBytes(); }
  std::string name() const override { return "ptmalloc-sim"; }

  uint64_t liveCount() const { return LiveChunks.size(); }
  const VirtualArena &arena() const { return Arena; }

private:
  struct ChunkInfo {
    uint64_t ChunkSize; ///< Total size including the header.
    uint64_t Requested;
  };

  /// Rounds a request up to its chunk size (header + payload, 16-aligned).
  static uint64_t chunkSizeFor(uint64_t Size);
  /// Tries the bins; returns a chunk base (0 if none) and sets \p Granted to
  /// the actual chunk size handed out (>= Need when an unsplittable tail is
  /// absorbed).
  uint64_t takeFromBins(uint64_t Need, uint64_t &Granted);
  uint64_t extendHeap(uint64_t Need);
  void binChunk(uint64_t Base, uint64_t ChunkSize);

  VirtualArena Arena;
  uint64_t TopCursor = 0;
  uint64_t TopEnd = 0;
  /// Exact-size bins for small chunks, keyed by ChunkSize / 16.
  std::vector<std::vector<uint64_t>> FastBins;
  /// Best-fit sorted bin: chunk size -> bases.
  std::map<uint64_t, std::vector<uint64_t>> SortedBin;
  /// Live chunk bases (base = header address; payload = base + HeaderSize).
  std::unordered_map<uint64_t, ChunkInfo> LiveChunks;
  uint64_t Live = 0;
};

} // namespace halo

#endif // HALO_MEM_BOUNDARYTAGALLOCATOR_H
