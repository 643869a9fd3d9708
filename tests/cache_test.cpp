//===- tests/cache_test.cpp - Cache / TLB / hierarchy tests -------------------===//

#include "sim/Machine.h"
#include "sim/MemoryHierarchy.h"
#include "sim/TimingModel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
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
/// (the MRU probe), and scattered cold lines anywhere.
std::vector<uint64_t> lruStream(const CacheConfig &C, uint64_t Seed) {
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
      Stream.push_back(R.nextBelow(uint64_t(1) << 40));
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
  // Each preset's dTLB (entries x 4 KiB pages), driven through the fused
  // probe path (mruHit, then accessSlow on a mismatch) as MemoryHierarchy
  // drives it.
  for (const MachineConfig &M : machinePresets()) {
    const HierarchyConfig &H = M.Hierarchy;
    CacheConfig Geometry{uint64_t(H.TlbEntries) * 4096, H.TlbWays, 4096};
    Tlb T(H.TlbEntries, H.TlbWays);
    ListLru Oracle(Geometry);
    std::vector<uint64_t> Stream = lruStream(Geometry, 7);
    for (size_t I = 0; I < Stream.size(); ++I) {
      bool Hit = T.mruHit(Stream[I]) || T.accessSlow(Stream[I]);
      ASSERT_EQ(Hit, Oracle.access(Stream[I])) << M.Name << ": access " << I;
    }
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
  uint64_t Cold = M.access(0, 8);
  EXPECT_EQ(Cold, Cfg.Latency.TlbMiss + Cfg.Latency.Memory);
  // Hot access: L1 hit, TLB hit.
  uint64_t Hot = M.access(0, 8);
  EXPECT_EQ(Hot, Cfg.Latency.L1Hit);
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
  uint64_t Cycles = M.access(0, 8);
  MemoryCounters After = M.counters();
  EXPECT_EQ(After.L1Misses, Before.L1Misses + 1);
  EXPECT_EQ(After.L2Misses, Before.L2Misses); // Served by L2.
  EXPECT_EQ(Cycles, Cfg.Latency.L2Hit);
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
  T.addCompute(100);
  T.addMemory(50);
  T.addAllocatorCall();
  T.addInstrumentationOp();
  CostModel Costs;
  EXPECT_EQ(T.totalCycles(),
            100 + 50 + Costs.AllocCall + Costs.InstrumentationOp);
  EXPECT_EQ(T.instrumentationOps(), 1u);
  EXPECT_GT(T.seconds(), 0.0);
  T.reset();
  EXPECT_EQ(T.totalCycles(), 0u);
}
