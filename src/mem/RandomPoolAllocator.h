//===- mem/RandomPoolAllocator.h - Fig. 15 sensitivity probe ---*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Figure 15 strawman: "an allocator that randomly assigns
/// small objects to one of four bump allocated pools", i.e. a variant of
/// HALO with an extremely poor grouping algorithm. Benchmarks whose
/// performance collapses under this allocator are the ones sensitive to
/// small-object placement -- the same ones HALO helps.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_MEM_RANDOMPOOLALLOCATOR_H
#define HALO_MEM_RANDOMPOOLALLOCATOR_H

#include "mem/Allocator.h"
#include "mem/Arena.h"
#include "support/Rng.h"

#include <map>
#include <unordered_map>

namespace halo {

/// Randomly scatters small objects over four bump pools; forwards objects of
/// at least a page to a backing allocator (matching the paper's "objects
/// smaller than the page size" rule).
class RandomPoolAllocator : public Allocator {
public:
  static constexpr unsigned PoolCount = 4;
  static constexpr uint64_t PoolChunkSize = 1 << 20;

  /// \p Backing receives requests of at least a page; it outlives this
  /// allocator.
  RandomPoolAllocator(Allocator &Backing, uint64_t Seed,
                      uint64_t ArenaBase = 0x30000000000ull);

  uint64_t allocate(const AllocRequest &Request) override;
  void deallocate(uint64_t Addr) override;
  bool owns(uint64_t Addr) const override;
  uint64_t usableSize(uint64_t Addr) const override;
  uint64_t liveBytes() const override;
  uint64_t residentBytes() const override;
  std::string name() const override { return "random-pools"; }

  const VirtualArena &arena() const { return Arena; }

private:
  struct Pool {
    uint64_t Cursor = 0;
    uint64_t End = 0;
  };
  struct ChunkState {
    uint64_t LiveRegions = 0;
    bool Current = false;
  };
  struct RegionInfo {
    uint64_t Size;
    uint64_t ChunkBase;
  };

  Allocator &Backing;
  VirtualArena Arena;
  Rng Random;
  Pool Pools[PoolCount];
  std::map<uint64_t, ChunkState> Chunks; ///< chunk base -> state.
  std::unordered_map<uint64_t, RegionInfo> Regions;
  uint64_t Live = 0;
};

} // namespace halo

#endif // HALO_MEM_RANDOMPOOLALLOCATOR_H
