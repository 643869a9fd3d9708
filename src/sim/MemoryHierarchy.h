//===- sim/MemoryHierarchy.h - L1D/L2/L3 + TLB stack -----------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three cache levels plus a data TLB with a simple latency model. The
/// geometry comes from a HierarchyConfig — usually one bundled in a machine
/// preset (sim/Machine.h); the default matches the paper's evaluation
/// machine (Intel Xeon W-2195): 32 KiB per-core L1D, 1024 KiB per-core L2,
/// 25344 KiB shared L3. Workloads are single-threaded, as in the paper, so
/// no coherence is modelled.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SIM_MEMORYHIERARCHY_H
#define HALO_SIM_MEMORYHIERARCHY_H

#include "sim/Cache.h"
#include "sim/Tlb.h"

#include <cstddef>
#include <cstdint>
#include <memory>

namespace halo {

/// Cycle costs of each level. Default values approximate Skylake-SP.
struct LatencyModel {
  uint32_t L1Hit = 4;
  uint32_t L2Hit = 14;
  uint32_t L3Hit = 68;
  uint32_t Memory = 230;
  uint32_t TlbMiss = 26;
};

/// Geometry of the whole hierarchy.
struct HierarchyConfig {
  CacheConfig L1{32 * 1024, 8, 64};
  CacheConfig L2{1024 * 1024, 16, 64};
  CacheConfig L3{25344 * 1024, 11, 64};
  uint32_t TlbEntries = 64;
  uint32_t TlbWays = 4;
  LatencyModel Latency;
};

/// One data access, the element of MemoryHierarchy::accessBatch and
/// RuntimeObserver::onAccessBatch. Nothing in the library builds these;
/// they stay for code outside it (benchmark/halo_bench_layers.cpp's
/// simulator probe). A single access never spans 4 GiB, so 32 bits of
/// size suffice.
struct MemAccess {
  uint64_t Addr;
  uint32_t Size;
  uint32_t IsStore; ///< Loads and stores cost alike in the hierarchy; the
                    ///< flag exists for observers and event counters.
};

/// Counter snapshot for reporting.
struct MemoryCounters {
  uint64_t Accesses = 0;
  uint64_t L1Misses = 0;
  uint64_t L2Misses = 0;
  uint64_t L3Misses = 0;
  uint64_t TlbMisses = 0;
  uint64_t StallCycles = 0;
};

/// A non-inclusive three-level data-cache hierarchy with a TLB: no level
/// back-invalidates another, L2 sees only L1's misses and L3 only L2's,
/// so a line the L3 has evicted may still hit in L1.
///
/// Simulation is deferred and level-major. access() only appends the
/// line addresses it touches to a fixed pending block; a full block, or
/// a read of counters(), drains it as a TLB pass over every line, an L1
/// pass that keeps the misses, an L2 pass over those and an L3 pass over
/// the L2 misses. That is exact: each level's LRU state depends only on
/// the ordered lines it is asked about, and nothing reads the hierarchy
/// mid-run (allocators, realloc copy lengths and observers never consult
/// it). Each pass is a tight loop over one level's tags instead of a walk
/// through all four structures per access.
class MemoryHierarchy {
public:
  explicit MemoryHierarchy(const HierarchyConfig &Config = HierarchyConfig());

  /// Performs a data access of \p Size bytes at \p Addr (loads and stores
  /// are treated alike: write-allocate, no write-back traffic modelled).
  /// Every cache line the access touches is looked up, once the pending
  /// block drains.
  void access(uint64_t Addr, uint64_t Size) {
    uint64_t Line = Addr & ~LineMask;
    const uint64_t Last = (Addr + (Size ? Size : 1) - 1) & ~LineMask;
    for (;; Line += LineMask + 1) {
      Pending[NumPending] = Line;
      if (++NumPending == BlockLines)
        drain();
      if (Line == Last)
        return;
    }
  }

  /// Performs every access of \p Batch in order, exactly as calling
  /// access() per element. Never called by the library (the runtime calls
  /// access()); kept only for benchmark/halo_bench_layers.cpp.
  void accessBatch(const MemAccess *Batch, size_t N);

  /// Drains the pending block and returns the counters. StallCycles is
  /// the closed form TlbMisses * TlbMiss + L1 hits * L1Hit + L2 hits *
  /// L2Hit + L3 hits * L3Hit + L3Misses * Memory: every line pays its TLB
  /// miss, if any, plus the latency of the level that served it.
  MemoryCounters counters();
  void reset();

  const Cache &l3() const { return L3; }

private:
  /// Lines per pending block: 8 KiB of addresses, which stays in the host
  /// L1 through all four passes.
  static constexpr size_t BlockLines = 1024;

  /// Runs the pending lines through the TLB, then L1, then L2 and L3 on
  /// the misses of the level above.
  void drain();

  HierarchyConfig Config;
  uint64_t LineMask; ///< L1.LineSize - 1 (line size is a power of two).
  Cache L1, L2, L3;
  Tlb Dtlb;
  std::unique_ptr<uint64_t[]> Pending; ///< BlockLines line addresses.
  size_t NumPending = 0;
};

} // namespace halo

#endif // HALO_SIM_MEMORYHIERARCHY_H
