//===- tests/cache_test.cpp - Cache / TLB / hierarchy tests -------------------===//

#include "mem/SizeClassAllocator.h"
#include "runtime/Runtime.h"
#include "sim/Machine.h"
#include "sim/MemoryHierarchy.h"
#include "sim/TimingModel.h"
#include "support/Rng.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

using namespace halo;

TEST(Cache, FirstAccessMissesSecondHits) {
  Cache C(CacheConfig{1024, 2, 64});
  EXPECT_FALSE(C.access(0));
  EXPECT_TRUE(C.access(0));
  EXPECT_TRUE(C.access(63)); // Same line.
  EXPECT_FALSE(C.access(64)); // Next line.
  EXPECT_EQ(C.hits(), 2u);
  EXPECT_EQ(C.misses(), 2u);
}

TEST(Cache, LruEvictionOrder) {
  // 2-way, 64B lines, 2 sets -> set stride 128.
  Cache C(CacheConfig{256, 2, 64});
  C.access(0);   // Set 0, tag A.
  C.access(128); // Set 0, tag B.
  C.access(0);   // Touch A: B becomes LRU.
  C.access(256); // Set 0, tag C: evicts B.
  EXPECT_TRUE(C.contains(0));
  EXPECT_FALSE(C.contains(128));
  EXPECT_TRUE(C.contains(256));
}

TEST(Cache, SetsAreIndependent) {
  Cache C(CacheConfig{256, 2, 64});
  C.access(0);  // Set 0.
  C.access(64); // Set 1.
  EXPECT_TRUE(C.contains(0));
  EXPECT_TRUE(C.contains(64));
}

TEST(Cache, WorkingSetLargerThanCacheThrashes) {
  Cache C(CacheConfig{32 * 1024, 8, 64});
  // Two passes over 64 KiB: every access misses (LRU, sequential).
  for (int Pass = 0; Pass < 2; ++Pass)
    for (uint64_t Addr = 0; Addr < 64 * 1024; Addr += 64)
      C.access(Addr);
  EXPECT_EQ(C.misses(), 2048u);
  EXPECT_EQ(C.hits(), 0u);
}

TEST(Cache, WorkingSetFittingCacheHitsOnSecondPass) {
  Cache C(CacheConfig{32 * 1024, 8, 64});
  for (int Pass = 0; Pass < 2; ++Pass)
    for (uint64_t Addr = 0; Addr < 16 * 1024; Addr += 64)
      C.access(Addr);
  EXPECT_EQ(C.misses(), 256u);
  EXPECT_EQ(C.hits(), 256u);
}

TEST(Cache, ResetClearsContentsAndCounters) {
  Cache C(CacheConfig{1024, 2, 64});
  C.access(0);
  C.reset();
  EXPECT_EQ(C.accesses(), 0u);
  EXPECT_FALSE(C.contains(0));
}

TEST(Cache, NonPowerOfTwoSetCount) {
  // 25344 KiB / 11 ways / 64B lines = 36864 sets, like the W-2195 L3.
  Cache C(CacheConfig{25344 * 1024, 11, 64});
  EXPECT_EQ(C.numSets(), 36864u);
  EXPECT_FALSE(C.access(1234567));
  EXPECT_TRUE(C.access(1234567));
}

TEST(Cache, AddressLimitEndsTheThirtyTwoBitTagSpace) {
  // The first address whose tag (line / sets) would be the empty-way
  // marker 2^32 - 1: that many sets' worth of lines.
  Cache L1(CacheConfig{32 * 1024, 8, 64}); // 64 sets.
  EXPECT_EQ(L1.addressLimit(), uint64_t(UINT32_MAX) * 64 * 64);
  Cache L3(CacheConfig{25344 * 1024, 11, 64}); // 36864 sets.
  EXPECT_EQ(L3.addressLimit(), uint64_t(UINT32_MAX) * 36864 * 64);
  // The last line below the limit is an ordinary line in both lookups.
  for (Cache *C : {&L1, &L3}) {
    uint64_t Last = C->addressLimit() - 1;
    EXPECT_FALSE(C->access(Last));
    EXPECT_TRUE(C->access(Last - 63));
    EXPECT_TRUE(C->contains(Last));
    EXPECT_FALSE(C->contains(Last - 64));
  }
  // Four sets of 2 GiB lines would tag past 2^64: the limit saturates.
  EXPECT_EQ(Cache(CacheConfig{uint64_t(1) << 33, 1, 1u << 31}).addressLimit(),
            ~0ull);
}

namespace {

/// The obviously-correct LRU: one std::list of tags per set, most recent
/// first, searched linearly, the back dropped when a set overflows.
class ListLru {
public:
  explicit ListLru(const CacheConfig &C)
      : Ways(C.Ways), LineSize(C.LineSize),
        Sets(C.SizeBytes / (uint64_t(C.Ways) * C.LineSize)), Lists(Sets) {}

  bool access(uint64_t Addr) {
    uint64_t Line = Addr / LineSize;
    std::list<uint64_t> &Set = Lists[Line % Sets];
    uint64_t Tag = Line / Sets;
    auto It = std::find(Set.begin(), Set.end(), Tag);
    if (It != Set.end()) {
      Set.splice(Set.begin(), Set, It);
      return true;
    }
    Set.push_front(Tag);
    if (Set.size() > Ways)
      Set.pop_back();
    return false;
  }

  uint64_t sets() const { return Sets; }

private:
  uint64_t Ways, LineSize, Sets;
  std::vector<std::list<uint64_t>> Lists;
};

/// A seeded stream that exercises every replacement path: a few hot sets
/// each cycling through a pool of half again as many lines as it has
/// ways (hits at every recency depth, then evictions), immediate repeats
/// (the MRU probe), and scattered cold lines anywhere below 2^40 and the
/// level's address limit.
std::vector<uint64_t> lruStream(const CacheConfig &C, uint64_t Seed) {
  const uint64_t ColdBound =
      std::min(uint64_t(1) << 40, Cache(C).addressLimit());
  Rng R(Seed);
  uint64_t Sets = C.SizeBytes / (uint64_t(C.Ways) * C.LineSize);
  std::vector<uint64_t> HotSets;
  for (int I = 0; I < 4; ++I)
    HotSets.push_back(R.nextBelow(Sets));
  uint64_t Pool = C.Ways + C.Ways / 2 + 1;
  std::vector<uint64_t> Stream;
  for (int I = 0; I < 20000; ++I) {
    uint64_t Roll = R.nextBelow(100);
    if (!Stream.empty() && Roll < 20) {
      Stream.push_back(Stream.back());
    } else if (Roll < 90) {
      uint64_t Line = R.nextBelow(Pool) * Sets + HotSets[R.nextBelow(4)];
      Stream.push_back(Line * C.LineSize + R.nextBelow(C.LineSize));
    } else {
      Stream.push_back(R.nextBelow(ColdBound));
    }
  }
  return Stream;
}

/// Every cache geometry the oracle covers: each preset's L1, L2 and L3
/// (Tlb.MatchesListLruOracle covers the dTLBs), a direct-mapped level, a
/// 256-way level, and the two non-power-of-two set counts outright.
std::vector<std::pair<std::string, CacheConfig>> oracleGeometries() {
  std::vector<std::pair<std::string, CacheConfig>> Out;
  for (const MachineConfig &M : machinePresets()) {
    Out.push_back({M.Name + " L1", M.Hierarchy.L1});
    Out.push_back({M.Name + " L2", M.Hierarchy.L2});
    Out.push_back({M.Name + " L3", M.Hierarchy.L3});
  }
  Out.push_back({"1-way", CacheConfig{16 * 1024, 1, 64}});
  Out.push_back({"256-way", CacheConfig{256 * 64 * 4, 256, 64}});
  Out.push_back({"36864 sets", CacheConfig{25344 * 1024, 11, 64}});
  Out.push_back({"49152 sets", CacheConfig{36 * 1024 * 1024, 12, 64}});
  return Out;
}

} // namespace

TEST(Cache, MatchesListLruOracle) {
  for (const auto &[Name, Config] : oracleGeometries()) {
    Cache C(Config);
    ListLru Oracle(Config);
    ASSERT_EQ(C.numSets(), Oracle.sets()) << Name;
    std::vector<uint64_t> Stream = lruStream(Config, C.numSets() + 17);
    uint64_t Hits = 0;
    for (size_t I = 0; I < Stream.size(); ++I) {
      bool Expected = Oracle.access(Stream[I]);
      ASSERT_EQ(C.access(Stream[I]), Expected)
          << Name << ": access " << I << " of " << Stream.size();
      Hits += Expected;
    }
    EXPECT_EQ(C.hits(), Hits) << Name;
    EXPECT_EQ(C.misses(), Stream.size() - Hits) << Name;
    // The stream must reach both outcomes, or it proves little.
    EXPECT_GT(Hits, Stream.size() / 4) << Name;
    EXPECT_GT(C.misses(), Stream.size() / 20) << Name;
  }
}

TEST(Tlb, MatchesListLruOracle) {
  // Each preset's dTLB (entries x 4 KiB pages).
  for (const MachineConfig &M : machinePresets()) {
    const HierarchyConfig &H = M.Hierarchy;
    CacheConfig Geometry{uint64_t(H.TlbEntries) * 4096, H.TlbWays, 4096};
    Tlb T(H.TlbEntries, H.TlbWays);
    ListLru Oracle(Geometry);
    std::vector<uint64_t> Stream = lruStream(Geometry, 7);
    for (size_t I = 0; I < Stream.size(); ++I)
      ASSERT_EQ(T.access(Stream[I]), Oracle.access(Stream[I]))
          << M.Name << ": access " << I;
  }
}

TEST(Tlb, PageGranularity) {
  Tlb T(64, 4, 4096);
  EXPECT_FALSE(T.access(0));
  EXPECT_TRUE(T.access(4095)); // Same page.
  EXPECT_FALSE(T.access(4096));
}

TEST(Tlb, CapacityEviction) {
  Tlb T(4, 4, 4096); // Fully associative, 4 entries.
  for (uint64_t P = 0; P < 5; ++P)
    T.access(P * 4096);
  EXPECT_FALSE(T.access(0)); // Evicted by the fifth page.
}

TEST(Hierarchy, LatenciesPerLevel) {
  HierarchyConfig Cfg;
  MemoryHierarchy M(Cfg);
  // Cold access: TLB miss + memory access.
  M.access(0, 8);
  uint64_t Cold = M.counters().StallCycles;
  EXPECT_EQ(Cold, Cfg.Latency.TlbMiss + Cfg.Latency.Memory);
  // Hot access: L1 hit, TLB hit.
  M.access(0, 8);
  EXPECT_EQ(M.counters().StallCycles - Cold, Cfg.Latency.L1Hit);
}

TEST(Hierarchy, L2HitAfterL1Eviction) {
  HierarchyConfig Cfg;
  MemoryHierarchy M(Cfg);
  M.access(0, 8);
  // Page-aligned addresses all map to L1 set 0 (64 sets, 64B lines); eight
  // of them evict line 0 from L1 while leaving it in L2 and keeping page 0
  // in the TLB (pages 1..8 land in other TLB sets).
  for (uint64_t I = 1; I <= 8; ++I)
    M.access(I * 4096, 8);
  MemoryCounters Before = M.counters();
  M.access(0, 8);
  MemoryCounters After = M.counters();
  EXPECT_EQ(After.L1Misses, Before.L1Misses + 1);
  EXPECT_EQ(After.L2Misses, Before.L2Misses); // Served by L2.
  EXPECT_EQ(After.StallCycles - Before.StallCycles, Cfg.Latency.L2Hit);
}

TEST(Hierarchy, NonInclusiveL1KeepsALineTheL3Evicted) {
  // Two L1 sets of two ways over a one-set, two-way L3. Line 0 fills L1
  // set 0, L2 and L3; lines 1 and 3 (L1 set 1) then miss L1 and L2 and
  // push line 0 out of the L3. Nothing back-invalidates L1, so line 0
  // still hits there.
  HierarchyConfig Cfg;
  Cfg.L1 = CacheConfig{256, 2, 64};
  Cfg.L2 = CacheConfig{4096, 4, 64};
  Cfg.L3 = CacheConfig{128, 2, 64};
  MemoryHierarchy M(Cfg);
  for (uint64_t Line : {0, 1, 3})
    M.access(Line * 64, 8);
  MemoryCounters Before = M.counters();
  EXPECT_EQ(Before.L3Misses, 3u);
  EXPECT_FALSE(M.l3().contains(0));
  M.access(0, 8);
  MemoryCounters After = M.counters();
  EXPECT_EQ(After.Accesses, 4u);
  EXPECT_EQ(After.L1Misses, Before.L1Misses); // An L1 hit.
  EXPECT_EQ(After.StallCycles - Before.StallCycles, Cfg.Latency.L1Hit);
  EXPECT_FALSE(M.l3().contains(0));
}

TEST(Hierarchy, MultiLineAccessTouchesEachLine) {
  MemoryHierarchy M;
  M.access(0, 256); // Four lines.
  EXPECT_EQ(M.counters().Accesses, 4u);
  // Unaligned span crossing one boundary: two lines.
  M.reset();
  M.access(60, 8);
  EXPECT_EQ(M.counters().Accesses, 2u);
}

TEST(Hierarchy, ZeroSizeAccessTouchesOneLine) {
  MemoryHierarchy M;
  M.access(100, 0);
  EXPECT_EQ(M.counters().Accesses, 1u);
}

TEST(Hierarchy, StallCyclesAccumulate) {
  MemoryHierarchy M;
  M.access(0, 8);
  M.access(0, 8);
  MemoryCounters C = M.counters();
  EXPECT_EQ(C.StallCycles,
            HierarchyConfig().Latency.TlbMiss +
                HierarchyConfig().Latency.Memory +
                HierarchyConfig().Latency.L1Hit);
}

TEST(Hierarchy, ResetClearsEverything) {
  MemoryHierarchy M;
  M.access(0, 64);
  M.reset();
  MemoryCounters C = M.counters();
  EXPECT_EQ(C.Accesses, 0u);
  EXPECT_EQ(C.StallCycles, 0u);
}

TEST(Timing, AccumulatesAllBuckets) {
  TimingModel T;
  MemoryHierarchy M;
  T.setMemory(&M);
  T.addCompute(100);
  M.access(0, 8); // The hierarchy owns the memory cycles.
  T.addAllocatorCall();
  T.addInstrumentationOp();
  CostModel Costs;
  const LatencyModel &Lat = HierarchyConfig().Latency;
  EXPECT_EQ(T.memoryCycles(), Lat.TlbMiss + Lat.Memory);
  EXPECT_EQ(T.totalCycles(), 100 + Lat.TlbMiss + Lat.Memory + Costs.AllocCall +
                                 Costs.InstrumentationOp);
  EXPECT_EQ(T.instrumentationOps(), 1u);
  EXPECT_GT(T.seconds(), 0.0);
  T.reset();
  T.setMemory(nullptr);
  EXPECT_EQ(T.totalCycles(), 0u);
}

//===----------------------------------------------------------------------===//
// Whole-hierarchy oracle: MemoryHierarchy's deferred, level-major drain
// against a per-access walk of obviously-correct levels.
//===----------------------------------------------------------------------===//

namespace {

/// The reference hierarchy: a per-set std::list LRU at L1, L2 and L3, each
/// consulted only on a miss of the level above (non-inclusive: nothing
/// back-invalidates), a page-granular LRU TLB consulted once per line, and
/// each line's latency added as it is served.
class HierarchyOracle {
public:
  explicit HierarchyOracle(const HierarchyConfig &C)
      : Lat(C.Latency), LineSize(C.L1.LineSize), L1(C.L1), L2(C.L2),
        L3(C.L3), Tlb(CacheConfig{uint64_t(C.TlbEntries) * 4096, C.TlbWays,
                                  4096}) {}

  void access(uint64_t Addr, uint64_t Size) {
    uint64_t First = Addr / LineSize;
    uint64_t Last = (Addr + std::max<uint64_t>(Size, 1) - 1) / LineSize;
    for (uint64_t Line = First; Line <= Last; ++Line) {
      uint64_t A = Line * LineSize;
      ++C.Accesses;
      if (!Tlb.access(A)) {
        ++C.TlbMisses;
        C.StallCycles += Lat.TlbMiss;
      }
      if (L1.access(A)) {
        C.StallCycles += Lat.L1Hit;
        continue;
      }
      ++C.L1Misses;
      if (L2.access(A)) {
        C.StallCycles += Lat.L2Hit;
        continue;
      }
      ++C.L2Misses;
      if (L3.access(A)) {
        C.StallCycles += Lat.L3Hit;
        continue;
      }
      ++C.L3Misses;
      C.StallCycles += Lat.Memory;
    }
  }

  const MemoryCounters &counters() const { return C; }

private:
  LatencyModel Lat;
  uint64_t LineSize;
  ListLru L1, L2, L3, Tlb;
  MemoryCounters C;
};

::testing::AssertionResult sameCounters(const MemoryCounters &Got,
                                        const MemoryCounters &Want) {
  const std::pair<const char *, uint64_t MemoryCounters::*> Fields[] = {
      {"Accesses", &MemoryCounters::Accesses},
      {"L1Misses", &MemoryCounters::L1Misses},
      {"L2Misses", &MemoryCounters::L2Misses},
      {"L3Misses", &MemoryCounters::L3Misses},
      {"TlbMisses", &MemoryCounters::TlbMisses},
      {"StallCycles", &MemoryCounters::StallCycles}};
  for (const auto &[Name, Field] : Fields)
    if (Got.*Field != Want.*Field)
      return ::testing::AssertionFailure()
             << Name << " is " << Got.*Field << ", the oracle says "
             << Want.*Field;
  return ::testing::AssertionSuccess();
}

/// A direct-mapped L1, a 256-way L2 of two sets and a 96-set L3. The L2's
/// two sets end its tag space at (2^32 - 1) * 2 lines, near 2^39.
HierarchyConfig oneWay256Way() {
  HierarchyConfig Ways;
  Ways.L1 = CacheConfig{4 * 1024, 1, 64};
  Ways.L2 = CacheConfig{256 * 64 * 2, 256, 64};
  Ways.L3 = CacheConfig{96 * 12 * 64, 12, 64};
  Ways.TlbEntries = 8;
  Ways.TlbWays = 2;
  return Ways;
}

/// Every hierarchy the oracle covers: the four presets, oneWay256Way(),
/// and one whose every level and TLB has a non-power-of-two set count.
std::vector<std::pair<std::string, HierarchyConfig>> oracleHierarchies() {
  std::vector<std::pair<std::string, HierarchyConfig>> Out;
  for (const MachineConfig &M : machinePresets())
    Out.push_back({M.Name, M.Hierarchy});
  Out.push_back({"1-way/256-way", oneWay256Way()});
  HierarchyConfig Odd;
  Odd.L1 = CacheConfig{24 * 4 * 64, 4, 64};
  Odd.L2 = CacheConfig{80 * 8 * 64, 8, 64};
  Odd.L3 = CacheConfig{400 * 16 * 64, 16, 64};
  Odd.TlbEntries = 12;
  Odd.TlbWays = 3;
  Out.push_back({"non-power-of-two sets", Odd});
  return Out;
}

/// A seeded access stream for \p H: immediate repeats, three hot pools
/// (one fitting L1, one a few times L1, one a few times L2, so every
/// level serves hits), scattered cold lines below 2^40 and the
/// hierarchy's address limit, and sizes of 0 to 300 bytes at any
/// alignment (zero-size and multi-line accesses).
std::vector<MemAccess> hierarchyStream(const HierarchyConfig &H, uint64_t Seed,
                                       size_t N) {
  // A cold access starts below ColdBound + a line and spans <= 300 bytes.
  const uint64_t ColdBound = std::min(uint64_t(1) << 40,
                                      MemoryHierarchy(H).addressLimit() - 512);
  Rng R(Seed);
  const uint64_t Line = H.L1.LineSize;
  const uint64_t Pools[] = {H.L1.SizeBytes / Line / 2,
                            H.L1.SizeBytes / Line * 4,
                            std::min(H.L2.SizeBytes / Line * 3,
                                     H.L3.SizeBytes / Line * 3 / 4)};
  std::vector<MemAccess> Out;
  for (size_t I = 0; I < N; ++I) {
    uint64_t Roll = R.nextBelow(100);
    if (!Out.empty() && Roll < 15) {
      Out.push_back(Out.back());
      continue;
    }
    uint64_t Addr;
    if (Roll < 95) {
      size_t P = Roll < 50 ? 0 : Roll < 75 ? 1 : 2;
      Addr = (uint64_t(P + 1) << 32) + R.nextBelow(Pools[P]) * Line;
    } else {
      Addr = R.nextBelow(ColdBound);
    }
    Addr += R.nextBelow(Line);
    uint64_t Size = R.nextBelow(10) == 0 ? R.nextBelow(301) : R.nextBelow(9);
    Out.push_back(MemAccess{Addr, static_cast<uint32_t>(Size), 0});
  }
  return Out;
}

} // namespace

TEST(HierarchyOracle, MatchesAfterEveryAccess) {
  for (const auto &[Name, Config] : oracleHierarchies()) {
    MemoryHierarchy M(Config);
    HierarchyOracle Oracle(Config);
    std::vector<MemAccess> Stream = hierarchyStream(Config, 11, 4000);
    for (size_t I = 0; I < Stream.size(); ++I) {
      M.access(Stream[I].Addr, Stream[I].Size);
      Oracle.access(Stream[I].Addr, Stream[I].Size);
      ASSERT_TRUE(sameCounters(M.counters(), Oracle.counters()))
          << Name << ": access " << I;
    }
  }
}

TEST(HierarchyOracle, MatchesAtRandomCheckpoints) {
  // Streams many pending blocks long, read back at random points (most
  // of them mid-block), and every outcome reached on every geometry.
  for (const auto &[Name, Config] : oracleHierarchies()) {
    MemoryHierarchy M(Config);
    HierarchyOracle Oracle(Config);
    std::vector<MemAccess> Stream = hierarchyStream(Config, 23, 300000);
    Rng Checkpoints(5);
    size_t Next = Checkpoints.nextBelow(20000);
    for (size_t I = 0; I < Stream.size(); ++I) {
      if (I % 2)
        M.access(Stream[I].Addr, Stream[I].Size);
      else
        M.accessBatch(&Stream[I], 1);
      Oracle.access(Stream[I].Addr, Stream[I].Size);
      if (I == Next || I + 1 == Stream.size()) {
        ASSERT_TRUE(sameCounters(M.counters(), Oracle.counters()))
            << Name << ": access " << I;
        Next = I + 1 + Checkpoints.nextBelow(20000);
      }
    }
    const MemoryCounters &C = Oracle.counters();
    EXPECT_GT(C.Accesses, C.L1Misses) << Name << ": no L1 hits";
    EXPECT_GT(C.L1Misses, C.L2Misses) << Name << ": no L2 hits";
    EXPECT_GT(C.L2Misses, C.L3Misses) << Name << ": no L3 hits";
    EXPECT_GT(C.L3Misses, 0u) << Name;
    EXPECT_GT(C.TlbMisses, 0u) << Name;
  }
}

//===----------------------------------------------------------------------===//
// The address limit: 32-bit tags bound the addresses a hierarchy simulates.
//===----------------------------------------------------------------------===//

TEST(HierarchyLimit, EveryPresetReachesPastTheSimulatedHeaps) {
  // Each preset's least limit is its L1's: 64 sets of 64-byte lines, or
  // 128 on mobile. The highest byte any ref cell of any allocator kind
  // touches is 0x40000cb9e5f (2^42 + 13 MB).
  for (const MachineConfig &M : machinePresets()) {
    MemoryHierarchy H(M.Hierarchy);
    const uint64_t Want =
        M.Name == "mobile" ? (uint64_t(1) << 45) - 8192
                           : (uint64_t(1) << 44) - 4096;
    EXPECT_EQ(H.addressLimit(), Want) << M.Name;
    EXPECT_GE(H.addressLimit(), (uint64_t(1) << 44) - 4096) << M.Name;
  }
}

TEST(HierarchyLimit, TheLastByteBelowTheLimitSimulates) {
  for (const MachineConfig &M : machinePresets()) {
    MemoryHierarchy H(M.Hierarchy);
    HierarchyOracle Oracle(M.Hierarchy);
    const uint64_t Limit = H.addressLimit();
    const std::pair<uint64_t, uint64_t> Accesses[] = {
        {Limit - 1, 1}, {Limit - 100, 100}, {Limit - 1, 0}, {Limit - 8, 8}};
    for (auto [Addr, Size] : Accesses) {
      H.access(Addr, Size);
      Oracle.access(Addr, Size);
    }
    // Five lines: the 100-byte access spans the last two.
    EXPECT_EQ(H.counters().Accesses, 5u) << M.Name;
    EXPECT_TRUE(sameCounters(H.counters(), Oracle.counters())) << M.Name;
  }
}

TEST(HierarchyLimit, AnAccessReachingTheLimitThrowsAndChangesNothing) {
  for (const MachineConfig &M : machinePresets()) {
    MemoryHierarchy H(M.Hierarchy);
    HierarchyOracle Oracle(M.Hierarchy);
    const uint64_t Limit = H.addressLimit();
    // Last byte at the limit, past it, and wrapping past 2^64.
    const std::pair<uint64_t, uint64_t> Rejected[] = {
        {Limit, 1},   {Limit, 0},          {Limit - 1, 2},
        {0, Limit + 1}, {Limit - 64, 65},  {~0ull, 1},
        {~0ull - 7, 16}, {0x1000, ~0ull}};
    for (auto [Addr, Size] : Rejected) {
      // A queued access before each rejected one: a rejection must neither
      // queue a line nor drop the pending block.
      H.access(0x1000, 8);
      Oracle.access(0x1000, 8);
      const MemoryCounters Before = H.counters();
      EXPECT_THROW(H.access(Addr, Size), std::out_of_range)
          << M.Name << ": " << Size << " bytes at " << Addr;
      EXPECT_TRUE(sameCounters(H.counters(), Before)) << M.Name;
    }
    EXPECT_TRUE(sameCounters(H.counters(), Oracle.counters())) << M.Name;
  }
}

TEST(HierarchyLimit, TheTwoSetL2BoundsTheOneWay256WayGeometry) {
  // The oracle geometry whose tag space ends below 2^40: its 2-set L2.
  MemoryHierarchy H(oneWay256Way());
  EXPECT_EQ(H.addressLimit(), uint64_t(UINT32_MAX) * 2 * 64);
  H.access(H.addressLimit() - 1, 1);
  EXPECT_THROW(H.access(H.addressLimit(), 1), std::out_of_range);
  // A cold line the oracle stream drew before the limit existed.
  EXPECT_THROW(H.access((uint64_t(1) << 40) - 64, 8), std::out_of_range);
  EXPECT_EQ(H.counters().Accesses, 1u);
}

namespace {

/// Feeds every access of a run to the oracle.
class OracleObserver final : public RuntimeObserver {
public:
  explicit OracleObserver(HierarchyOracle &Oracle) : Oracle(Oracle) {}
  void onAccess(uint64_t Addr, uint64_t Size, bool) override {
    Oracle.access(Addr, Size);
  }

private:
  HierarchyOracle &Oracle;
};

class HierarchyWorkloadOracle : public ::testing::TestWithParam<std::string> {
};

} // namespace

TEST_P(HierarchyWorkloadOracle, MatchesTheRefStream) {
  // Benchmark I runs on preset I mod 4, so every preset sees workloads.
  const std::vector<std::string> &Names = workloadNames();
  size_t Index = std::find(Names.begin(), Names.end(), GetParam()) -
                 Names.begin();
  const MachineConfig &Machine =
      machinePresets()[Index % machinePresets().size()];
  auto W = createWorkload(GetParam());
  Program P;
  W->build(P);
  MemoryHierarchy Memory(Machine.Hierarchy);
  HierarchyOracle Oracle(Machine.Hierarchy);
  OracleObserver Observer(Oracle);
  SizeClassAllocator Jemalloc;
  Runtime RT(P, Jemalloc, Machine.Costs);
  RT.setMemory(&Memory);
  RT.addObserver(&Observer);
  W->run(RT, Scale::Ref, 100);
  EXPECT_TRUE(sameCounters(Memory.counters(), Oracle.counters()))
      << Machine.Name;
  EXPECT_EQ(RT.timing().memoryCycles(), Oracle.counters().StallCycles);
  EXPECT_GT(Oracle.counters().L3Misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, HierarchyWorkloadOracle,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &Info) { return Info.param; });
