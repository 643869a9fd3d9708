//===- tests/property_test.cpp - Parameterised invariant sweeps ----------------===//
//
// Property-style tests: each sweeps a component across seeds or geometry
// parameters and checks invariants rather than specific values.
//
//===----------------------------------------------------------------------===//

#include "core/GroupAllocator.h"
#include "group/Grouping.h"
#include "hds/Sequitur.h"
#include "identify/Identify.h"
#include "mem/BoundaryTagAllocator.h"
#include "mem/SizeClassAllocator.h"
#include "profile/AffinityQueue.h"
#include "sim/MemoryHierarchy.h"
#include "support/Rng.h"
#include "trace/Context.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

using namespace halo;

//===----------------------------------------------------------------------===//
// Affinity queue invariants across distances.
//===----------------------------------------------------------------------===//

class AffinityDistanceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AffinityDistanceSweep, WindowInvariants) {
  const uint64_t Distance = GetParam();
  AffinityQueue Queue(Distance);
  Rng Random(Distance * 7919 + 1);
  for (int I = 0; I < 5000; ++I) {
    uint32_t Object = static_cast<uint32_t>(Random.nextBelow(64));
    uint64_t Bytes = 1 + Random.nextBelow(32);
    const auto &Partners = Queue.push(Object, Object % 8, Bytes);
    // Never a self-partner; never a duplicate partner.
    std::set<uint32_t> Seen;
    for (const AffinityQueue::Entry &E : Partners) {
      EXPECT_NE(E.Object, Object);
      EXPECT_TRUE(Seen.insert(E.Object).second);
    }
    // The window can never hold more entries than fit in the distance
    // (minimum entry size is one byte) plus the new entry.
    EXPECT_LE(Queue.size(), Distance + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, AffinityDistanceSweep,
                         ::testing::Values(8, 16, 32, 64, 128, 512, 4096));

//===----------------------------------------------------------------------===//
// Cache invariants across geometries.
//===----------------------------------------------------------------------===//

struct CacheGeometry {
  uint64_t Size;
  uint32_t Ways;
};

class CacheGeometrySweep : public ::testing::TestWithParam<CacheGeometry> {};

TEST_P(CacheGeometrySweep, HitRateInvariants) {
  Cache C(CacheConfig{GetParam().Size, GetParam().Ways, 64});
  Rng Random(GetParam().Size ^ GetParam().Ways);
  uint64_t Accesses = 4000;
  for (uint64_t I = 0; I < Accesses; ++I)
    C.access(Random.nextBelow(GetParam().Size * 4));
  EXPECT_EQ(C.hits() + C.misses(), Accesses);
  // A working set fitting the cache must eventually hit every time.
  C.reset();
  for (int Round = 0; Round < 3; ++Round)
    for (uint64_t Addr = 0; Addr < GetParam().Size / 2; Addr += 64)
      C.access(Addr);
  uint64_t Lines = GetParam().Size / 2 / 64;
  EXPECT_EQ(C.misses(), Lines);
  EXPECT_EQ(C.hits(), 2 * Lines);
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometrySweep,
                         ::testing::Values(CacheGeometry{4096, 1},
                                           CacheGeometry{8192, 2},
                                           CacheGeometry{32768, 8},
                                           CacheGeometry{65536, 16}));

//===----------------------------------------------------------------------===//
// Allocator invariants under random operation sequences.
//===----------------------------------------------------------------------===//

class AllocatorFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

namespace {

/// Runs a random alloc/free sequence and checks the live set stays
/// disjoint and accounted.
template <typename AllocT> void fuzzAllocator(AllocT &A, uint64_t Seed) {
  Rng Random(Seed);
  std::map<uint64_t, uint64_t> Live; // addr -> size
  uint64_t LiveBytes = 0;
  for (int I = 0; I < 4000; ++I) {
    if (Live.empty() || Random.nextBool(0.6)) {
      uint64_t Size = 1 + Random.nextBelow(300);
      uint64_t Addr = A.allocate(AllocRequest{Size, 0});
      // No overlap with any live region.
      auto Next = Live.lower_bound(Addr);
      if (Next != Live.end()) {
        EXPECT_LE(Addr + Size, Next->first);
      }
      if (Next != Live.begin()) {
        auto Prev = std::prev(Next);
        EXPECT_LE(Prev->first + Prev->second, Addr);
      }
      EXPECT_TRUE(A.owns(Addr));
      EXPECT_GE(A.usableSize(Addr), Size);
      Live.emplace(Addr, Size);
      LiveBytes += Size;
    } else {
      auto It = Live.begin();
      std::advance(It, Random.nextBelow(Live.size()));
      A.deallocate(It->first);
      EXPECT_FALSE(A.owns(It->first));
      LiveBytes -= It->second;
      Live.erase(It);
    }
    EXPECT_EQ(A.liveBytes(), LiveBytes);
  }
  for (auto &[Addr, Size] : Live)
    A.deallocate(Addr);
  EXPECT_EQ(A.liveBytes(), 0u);
}

} // namespace

TEST_P(AllocatorFuzzSweep, SizeClassAllocator) {
  SizeClassAllocator A;
  fuzzAllocator(A, GetParam());
}

TEST_P(AllocatorFuzzSweep, BoundaryTagAllocator) {
  BoundaryTagAllocator A;
  fuzzAllocator(A, GetParam());
}

TEST_P(AllocatorFuzzSweep, GroupAllocatorMixedTraffic) {
  struct EvenOddPolicy : GroupPolicy {
    int32_t selectGroup(const AllocRequest &R) const override {
      return R.ImmediateSite % 3 == 2 ? -1 : int32_t(R.ImmediateSite % 3);
    }
    uint32_t numGroups() const override { return 2; }
  };
  SizeClassAllocator Backing(0x7800000000ull);
  EvenOddPolicy Policy;
  GroupAllocatorOptions Options;
  Options.ChunkSize = 1 << 16;
  Options.SlabSize = 1 << 20;
  GroupAllocator GA(Backing, Policy, Options);

  Rng Random(GetParam() * 31 + 5);
  std::map<uint64_t, uint64_t> Live;
  uint64_t GroupedLive = 0;
  for (int I = 0; I < 4000; ++I) {
    if (Live.empty() || Random.nextBool(0.6)) {
      uint64_t Size = 1 + Random.nextBelow(200);
      uint32_t Site = static_cast<uint32_t>(Random.nextBelow(3));
      uint64_t Addr = GA.allocate(AllocRequest{Size, Site});
      EXPECT_TRUE(GA.owns(Addr));
      auto Next = Live.lower_bound(Addr);
      if (Next != Live.end()) {
        EXPECT_LE(Addr + Size, Next->first);
      }
      Live.emplace(Addr, Size);
      if (Site != 2)
        GroupedLive += Size;
    } else {
      auto It = Live.begin();
      std::advance(It, Random.nextBelow(Live.size()));
      GA.deallocate(It->first);
      Live.erase(It);
    }
    EXPECT_LE(GA.groupedLiveBytes(), GroupedLive);
  }
  for (auto &[Addr, Size] : Live)
    GA.deallocate(Addr);
  EXPECT_EQ(GA.liveBytes(), 0u);
  EXPECT_EQ(GA.groupedLiveBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorFuzzSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

//===----------------------------------------------------------------------===//
// SEQUITUR round-trips across alphabets and lengths.
//===----------------------------------------------------------------------===//

struct SequiturCase {
  uint32_t Alphabet;
  int Length;
};

class SequiturSweep : public ::testing::TestWithParam<SequiturCase> {};

TEST_P(SequiturSweep, RoundTripAndUtility) {
  Rng Random(GetParam().Alphabet * 1009 + GetParam().Length);
  std::vector<uint32_t> Input;
  for (int I = 0; I < GetParam().Length; ++I)
    Input.push_back(static_cast<uint32_t>(
        Random.nextBelow(GetParam().Alphabet)));

  Sequitur S;
  for (uint32_t T : Input)
    S.append(T);
  auto Rules = S.extractRules();
  EXPECT_EQ(Sequitur::expandRule(Rules, 0, Input.size() * 2), Input);

  // Rule utility: every non-start rule is referenced at least twice.
  std::unordered_map<uint32_t, int> Uses;
  for (const auto &R : Rules)
    for (const auto &B : R.Body)
      if (B.IsRule)
        ++Uses[B.Value];
  for (uint32_t R = 1; R < Rules.size(); ++R)
    EXPECT_GE(Uses[R], 2) << "rule " << R;

  // Frequencies weighted by expansion length recompose the input length.
  uint64_t Terminals = 0;
  for (const auto &R : Rules)
    for (const auto &B : R.Body)
      if (!B.IsRule)
        Terminals += Rules[R.Id].Frequency;
  EXPECT_EQ(Terminals, Input.size());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SequiturSweep,
    ::testing::Values(SequiturCase{2, 64}, SequiturCase{2, 2000},
                      SequiturCase{3, 1000}, SequiturCase{5, 3000},
                      SequiturCase{16, 3000}, SequiturCase{100, 1000}));

//===----------------------------------------------------------------------===//
// Grouping invariants on random graphs.
//===----------------------------------------------------------------------===//

class GroupingFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroupingFuzzSweep, GroupsAreDisjointBoundedAndDeterministic) {
  Rng Random(GetParam() * 131 + 7);
  AffinityGraph G;
  uint32_t Nodes = 5 + static_cast<uint32_t>(Random.nextBelow(30));
  for (GraphNodeId N = 0; N < Nodes; ++N)
    G.addAccesses(N, 1 + Random.nextBelow(1000));
  for (GraphNodeId U = 0; U < Nodes; ++U)
    for (GraphNodeId V = U; V < Nodes; ++V)
      if (Random.nextBool(0.2))
        G.addEdgeWeight(U, V, 1 + Random.nextBelow(100));

  GroupingOptions Options;
  Options.MinEdgeWeight = 5;
  Options.GroupWeightThreshold = 0.0;
  Options.MaxGroupMembers = 4;

  std::vector<Group> Groups = buildGroups(G, Options);
  std::set<GraphNodeId> Used;
  for (const Group &Grp : Groups) {
    EXPECT_GE(Grp.Members.size(), 1u);
    EXPECT_LE(Grp.Members.size(), 4u);
    for (GraphNodeId M : Grp.Members) {
      EXPECT_TRUE(G.hasNode(M));
      EXPECT_TRUE(Used.insert(M).second) << "node in two groups";
    }
    EXPECT_EQ(Grp.Weight, G.subgraphWeight(Grp.Members));
  }
  // Popularity ordering.
  for (size_t I = 1; I < Groups.size(); ++I)
    EXPECT_GE(Groups[I - 1].Accesses, Groups[I].Accesses);
  // Determinism.
  std::vector<Group> Again = buildGroups(G, Options);
  ASSERT_EQ(Groups.size(), Again.size());
  for (size_t I = 0; I < Groups.size(); ++I)
    EXPECT_EQ(Groups[I].Members, Again[I].Members);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupingFuzzSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

//===----------------------------------------------------------------------===//
// Identification invariants on random context populations.
//===----------------------------------------------------------------------===//

class IdentifyFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IdentifyFuzzSweep, MembersAlwaysMatchTheirSelector) {
  Rng Random(GetParam() * 977 + 3);
  ContextTable T;
  std::vector<ContextId> All;
  for (int C = 0; C < 24; ++C) {
    Context Frames;
    uint32_t Depth = 1 + Random.nextBelow(6);
    for (uint32_t D = 0; D < Depth; ++D) {
      CallSiteId Site = static_cast<CallSiteId>(Random.nextBelow(12));
      Frames.push_back(CallFrame{Site, Site});
    }
    All.push_back(T.intern(reduceContext(Frames)));
  }
  std::sort(All.begin(), All.end());
  All.erase(std::unique(All.begin(), All.end()), All.end());

  // Random disjoint groups over the first contexts.
  std::vector<Group> Groups;
  size_t Taken = 0;
  while (Taken + 2 <= All.size() && Groups.size() < 3) {
    Group G;
    size_t Size = 1 + Random.nextBelow(2);
    for (size_t I = 0; I < Size && Taken < All.size(); ++I)
      G.Members.push_back(All[Taken++]);
    G.Accesses = 1000 - Taken;
    Groups.push_back(G);
  }

  IdentificationResult R = identifyGroups(Groups, T);
  ASSERT_EQ(R.Selectors.size(), Groups.size());
  // Every member's chain matches its own group's selector (the
  // conjunction only ever uses sites from the member's chain).
  for (size_t G = 0; G < Groups.size(); ++G)
    for (GraphNodeId M : Groups[G].Members)
      EXPECT_TRUE(R.Selectors[G].matchesChain(T.info(M).Chain));
  // Every selector site really is instrumentable (exists in the union).
  std::set<CallSiteId> SiteSet(R.Sites.begin(), R.Sites.end());
  for (const Selector &Sel : R.Selectors)
    for (CallSiteId Site : Sel.referencedSites())
      EXPECT_TRUE(SiteSet.count(Site));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IdentifyFuzzSweep,
                         ::testing::Values(7, 14, 21, 28, 35));

//===----------------------------------------------------------------------===//
// Context reduction is idempotent and order-preserving.
//===----------------------------------------------------------------------===//

class ReduceFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReduceFuzzSweep, IdempotentAndDuplicateFree) {
  Rng Random(GetParam());
  for (int Trial = 0; Trial < 200; ++Trial) {
    Context C;
    uint32_t Depth = Random.nextBelow(12);
    for (uint32_t D = 0; D < Depth; ++D) {
      uint32_t Pair = static_cast<uint32_t>(Random.nextBelow(5));
      C.push_back(CallFrame{Pair, Pair + 100});
    }
    Context R1 = reduceContext(C);
    EXPECT_EQ(reduceContext(R1), R1); // Idempotent.
    // No duplicate (function, site) pairs survive.
    std::set<std::pair<FunctionId, CallSiteId>> Seen;
    for (const CallFrame &F : R1)
      EXPECT_TRUE(Seen.insert({F.Function, F.Site}).second);
    // Reduction never invents frames.
    for (const CallFrame &F : R1)
      EXPECT_NE(std::find(C.begin(), C.end(), F), C.end());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReduceFuzzSweep, ::testing::Values(1, 2, 3));

//===----------------------------------------------------------------------===//
// Memory hierarchy: miss monotonicity along the levels.
//===----------------------------------------------------------------------===//

TEST(HierarchyProperty, MissCountsMonotonicAcrossLevels) {
  MemoryHierarchy M;
  Rng Random(42);
  for (int I = 0; I < 20000; ++I)
    M.access(Random.nextBelow(64 * 1024 * 1024), 8);
  MemoryCounters C = M.counters();
  EXPECT_LE(C.L2Misses, C.L1Misses);
  EXPECT_LE(C.L3Misses, C.L2Misses);
  EXPECT_LE(C.L1Misses, C.Accesses);
}
