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
#include <deque>
#include <map>
#include <ostream>
#include <set>
#include <string>
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

/// Prints a geometry for test listings; gtest's default dumps the
/// struct's bytes, padding included, so the names changed per build.
void PrintTo(const CacheGeometry &G, std::ostream *OS) {
  *OS << G.Size / 1024 << " KiB, " << G.Ways << "-way";
}

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
                                           CacheGeometry{65536, 16}),
                         [](const auto &Info) {
                           return std::to_string(Info.param.Size / 1024) +
                                  "KiB_" + std::to_string(Info.param.Ways) +
                                  "w";
                         });

//===----------------------------------------------------------------------===//
// Allocator invariants under random operation sequences.
//===----------------------------------------------------------------------===//

class AllocatorFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

namespace {

constexpr uint64_t Page = VirtualArena::PageSize;

uint64_t roundUp(uint64_t X, uint64_t To) { return (X + To - 1) / To * To; }

/// The pages VirtualArena::touch makes resident for [Addr, Addr + Size).
void touchPages(std::set<uint64_t> &Pages, uint64_t Addr, uint64_t Size) {
  for (uint64_t P = Addr / Page; P <= (Addr + Size - 1) / Page; ++P)
    Pages.insert(P);
}

/// The pages VirtualArena::purge drops: those wholly inside the range.
void purgePages(std::set<uint64_t> &Pages, uint64_t Addr, uint64_t Size) {
  for (uint64_t P = roundUp(Addr, Page) / Page; P < (Addr + Size) / Page; ++P)
    Pages.erase(P);
}

/// A request size: mostly small, sometimes up to a page, sometimes above
/// SizeClassAllocator::MaxSmall (a large allocation of its own).
uint64_t fuzzSize(Rng &Random) {
  uint64_t Roll = Random.nextBelow(100);
  if (Roll < 85)
    return 1 + Random.nextBelow(300);
  if (Roll < 95)
    return 1 + Random.nextBelow(4095);
  return SizeClassAllocator::MaxSmall + 1 + Random.nextBelow(30000);
}

/// Allocation-heavy and free-heavy phases in turn, so live sets drain and
/// chunks and runs empty out as well as fill.
bool fuzzAllocates(Rng &Random, int Op, bool Empty) {
  return Empty || Random.nextBool((Op / 500) % 2 ? 0.3 : 0.7);
}

/// Map-based reference bookkeeping for SizeClassAllocator: each live
/// object's requested and usable size by address, and the pages touched
/// and not released since.
struct SizeClassModel {
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> Live;
  std::set<uint64_t> Pages;
  uint64_t Bytes = 0;

  void allocated(const SizeClassAllocator &A, uint64_t Addr, uint64_t Size) {
    uint64_t Usable = Size > SizeClassAllocator::MaxSmall
                          ? Size
                          : A.sizeClassFor(Size);
    Live[Addr] = {Size, Usable};
    touchPages(Pages, Addr, Usable);
    Bytes += Size;
  }

  void freed(uint64_t Addr) {
    uint64_t Size = Live.at(Addr).first;
    if (Size > SizeClassAllocator::MaxSmall) // Released: munmap.
      purgePages(Pages, Addr, roundUp(Size, Page));
    Bytes -= Size;
    Live.erase(Addr);
  }

  /// Diffs \p A against the model, probing ownership at \p Probe (the
  /// address the last operation named) and the next aligned address.
  void expectMatches(const SizeClassAllocator &A, uint64_t Probe) const {
    EXPECT_EQ(A.liveBytes(), Bytes);
    EXPECT_EQ(A.liveCount(), Live.size());
    EXPECT_EQ(A.residentBytes(), Pages.size() * Page);
    for (uint64_t X : {Probe, Probe + MinAlign}) {
      auto It = Live.find(X);
      EXPECT_EQ(A.owns(X), It != Live.end()) << X;
      if (It != Live.end()) {
        EXPECT_EQ(A.usableSize(X), It->second.second) << X;
      }
    }
  }
};

/// Runs a random alloc/free sequence, checks the live set stays disjoint
/// and accounted, and calls \p After(Addr, Size, Allocated) after every
/// operation (a free passes size 0 and false).
template <typename AllocT, typename AfterFn>
void fuzzAllocator(AllocT &A, uint64_t Seed, AfterFn &&After) {
  Rng Random(Seed);
  std::map<uint64_t, uint64_t> Live; // addr -> size
  uint64_t LiveBytes = 0;
  for (int I = 0; I < 4000; ++I) {
    if (fuzzAllocates(Random, I, Live.empty())) {
      uint64_t Size = fuzzSize(Random);
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
      After(Addr, Size, true);
    } else {
      auto It = Live.begin();
      std::advance(It, Random.nextBelow(Live.size()));
      uint64_t Addr = It->first;
      A.deallocate(Addr);
      EXPECT_FALSE(A.owns(Addr));
      LiveBytes -= It->second;
      Live.erase(It);
      After(Addr, 0, false);
    }
    EXPECT_EQ(A.liveBytes(), LiveBytes);
  }
  for (auto &[Addr, Size] : Live)
    A.deallocate(Addr);
  EXPECT_EQ(A.liveBytes(), 0u);
}

/// Map-based reference for GroupAllocator's grouped side: a bump cursor
/// per group, chunk base -> live regions, the spare and purged lists, the
/// group arena's resident pages and the fragmentation peak. It predicts
/// every grouped address.
struct GroupModel {
  GroupAllocatorOptions O;
  uint64_t ArenaNext = 0x40000000000ull; ///< GroupAllocator's default base.
  uint64_t SlabCursor = 0, SlabEnd = 0;
  std::vector<std::pair<uint64_t, uint64_t>> Cursors; ///< (cursor, end)
  struct Chunk {
    uint64_t LiveRegions = 0;
    bool Current = true;
  };
  std::map<uint64_t, Chunk> Chunks;
  std::deque<uint64_t> Spare, Purged;
  std::map<uint64_t, uint64_t> Live; ///< grouped addr -> requested size.
  std::set<uint64_t> Pages;
  uint64_t Bytes = 0;
  uint64_t Recycled = 0;
  FragmentationStats Frag;

  GroupModel(const GroupAllocatorOptions &O, uint32_t Groups)
      : O(O), Cursors(Groups) {}

  uint64_t take() {
    uint64_t Base;
    std::deque<uint64_t> &From = Spare.empty() ? Purged : Spare;
    if (!From.empty()) {
      Base = From.front();
      From.pop_front();
    } else {
      if (SlabCursor + O.ChunkSize > SlabEnd) {
        SlabCursor = roundUp(ArenaNext, O.ChunkSize);
        SlabEnd = ArenaNext = SlabCursor + GroupAllocator::SlabSize;
      }
      Base = SlabCursor;
      SlabCursor += O.ChunkSize;
    }
    Chunks[Base] = Chunk();
    return Base;
  }

  void recycle(uint64_t Base) {
    Chunks.erase(Base);
    ++Recycled;
    if (Spare.size() < O.MaxSpareChunks || !O.PurgeEmptyChunks) {
      Spare.push_back(Base);
    } else {
      purgePages(Pages, Base, O.ChunkSize);
      Purged.push_back(Base);
    }
  }

  uint64_t allocate(uint32_t Group, uint64_t Size) {
    auto &[Cursor, End] = Cursors[Group];
    uint64_t Aligned = roundUp(Size, MinAlign);
    if (End == 0 || Cursor + Aligned > End) {
      if (End != 0) {
        uint64_t Old = End - O.ChunkSize;
        Chunks.at(Old).Current = false;
        if (Chunks.at(Old).LiveRegions == 0)
          recycle(Old);
      }
      uint64_t Base = take();
      Cursor = Base + GroupAllocator::ChunkHeaderSize;
      End = Base + O.ChunkSize;
    }
    uint64_t Addr = Cursor;
    Cursor += Aligned;
    ++Chunks.at(Addr & ~(O.ChunkSize - 1)).LiveRegions;
    Live[Addr] = Size;
    Bytes += Size;
    touchPages(Pages, Addr, Size);
    if (Pages.size() * Page > Frag.PeakResident) {
      Frag.PeakResident = Pages.size() * Page;
      Frag.LiveAtPeak = Bytes;
    }
    return Addr;
  }

  void free(uint64_t Addr) {
    Bytes -= Live.at(Addr);
    Live.erase(Addr);
    uint64_t Base = Addr & ~(O.ChunkSize - 1);
    Chunk &C = Chunks.at(Base);
    if (--C.LiveRegions == 0 && !C.Current)
      recycle(Base);
  }
};

} // namespace

TEST_P(AllocatorFuzzSweep, SizeClassAllocator) {
  SizeClassAllocator A;
  SizeClassModel Model;
  fuzzAllocator(A, GetParam(), [&](uint64_t Addr, uint64_t Size, bool Alloc) {
    if (Alloc)
      Model.allocated(A, Addr, Size);
    else
      Model.freed(Addr);
    Model.expectMatches(A, Addr);
  });
}

TEST_P(AllocatorFuzzSweep, BoundaryTagAllocator) {
  BoundaryTagAllocator A;
  fuzzAllocator(A, GetParam(), [](uint64_t, uint64_t, bool) {});
}

TEST_P(AllocatorFuzzSweep, GroupAllocatorMixedTraffic) {
  // Sites 0 and 1 are groups 0 and 1; site 2 and requests of at least
  // MaxGroupedSize forward to the backing allocator.
  struct EvenOddPolicy : GroupPolicy {
    int32_t selectGroup(const AllocRequest &R) const override {
      return R.ImmediateSite % 3 == 2 ? -1 : int32_t(R.ImmediateSite % 3);
    }
    uint32_t numGroups() const override { return 2; }
  };
  EvenOddPolicy Policy;
  for (uint64_t Chunk : {uint64_t(64) << 10, uint64_t(1) << 20})
    for (uint32_t Spares : {0u, 1u})
      for (bool Purge : {true, false}) {
        SCOPED_TRACE("chunk " + std::to_string(Chunk) + ", spares " +
                     std::to_string(Spares) + ", purge " +
                     std::to_string(Purge));
        GroupAllocatorOptions Options;
        Options.ChunkSize = Chunk;
        Options.MaxSpareChunks = Spares;
        Options.PurgeEmptyChunks = Purge;
        SizeClassAllocator Backing(0x7800000000ull);
        GroupAllocator GA(Backing, Policy, Options);
        GroupModel Model(Options, 2);
        SizeClassModel BackingModel;

        Rng Random(GetParam() * 31 + 5);
        std::map<uint64_t, uint32_t> Live; // addr -> site
        for (int I = 0; I < 12000; ++I) {
          uint64_t Addr;
          if (fuzzAllocates(Random, I, Live.empty())) {
            // Half the requests near the grouping limit, so even 1 MiB
            // chunks fill, retire and drain.
            uint64_t Size = Random.nextBool(0.5)
                                ? fuzzSize(Random)
                                : 1 + Random.nextBelow(MaxGroupedSize);
            uint32_t Site = static_cast<uint32_t>(Random.nextBelow(3));
            Addr = GA.allocate(AllocRequest{Size, Site});
            if (Site != 2 && Size < MaxGroupedSize)
              ASSERT_EQ(Addr, Model.allocate(Site, Size));
            else
              BackingModel.allocated(Backing, Addr, Size);
            ASSERT_TRUE(Live.emplace(Addr, Site).second);
            EXPECT_TRUE(GA.owns(Addr));
          } else {
            auto It = Live.begin();
            std::advance(It, Random.nextBelow(Live.size()));
            Addr = It->first;
            GA.deallocate(Addr);
            if (Model.Live.count(Addr))
              Model.free(Addr);
            else
              BackingModel.freed(Addr);
            Live.erase(It);
            EXPECT_FALSE(GA.owns(Addr));
          }
          // The grouped side, then the backing side, then the sums.
          for (uint64_t X : {Addr, Addr + MinAlign})
            if (Model.Live.count(X) || !BackingModel.Live.count(X)) {
              auto It = Model.Live.find(X);
              ASSERT_EQ(GA.owns(X), It != Model.Live.end()) << X;
              if (It != Model.Live.end()) {
                EXPECT_EQ(GA.usableSize(X), It->second);
              }
            }
          BackingModel.expectMatches(Backing, Addr);
          ASSERT_EQ(GA.groupedLiveBytes(), Model.Bytes);
          ASSERT_EQ(GA.liveBytes(), Model.Bytes + BackingModel.Bytes);
          ASSERT_EQ(GA.chunkCount(), Model.Chunks.size());
          ASSERT_EQ(GA.spareChunkCount(), Model.Spare.size());
          ASSERT_EQ(GA.residentBytes(),
                    (Model.Pages.size() + BackingModel.Pages.size()) * Page);
          ASSERT_EQ(GA.fragmentation().PeakResident,
                    Model.Frag.PeakResident);
          ASSERT_EQ(GA.fragmentation().LiveAtPeak, Model.Frag.LiveAtPeak);
        }
        // The phases must drain chunks, or the recycling paths go untested.
        EXPECT_GT(Model.Recycled, 0u);
        for (auto &[Addr, Site] : Live)
          GA.deallocate(Addr);
        EXPECT_EQ(GA.liveBytes(), 0u);
        EXPECT_EQ(GA.groupedLiveBytes(), 0u);
      }
}

TEST_P(AllocatorFuzzSweep, GroupAllocatorCrossesSlabs) {
  // The mixed traffic never fills a 64 MiB slab. Here every object takes
  // a least (8 KiB) chunk of its own, and a quarter of the allocations also
  // free one, so about 9,200 chunks are live at the peak: the second
  // slab's chunks must follow the model too.
  struct OneGroup : GroupPolicy {
    int32_t selectGroup(const AllocRequest &) const override { return 0; }
    uint32_t numGroups() const override { return 1; }
  } Policy;
  GroupAllocatorOptions Options;
  Options.ChunkSize = GroupAllocator::MinChunkSize;
  SizeClassAllocator Backing(0x7800000000ull);
  GroupAllocator GA(Backing, Policy, Options);
  GroupModel Model(Options, 1);
  const uint64_t PerSlab = GroupAllocator::SlabSize / Options.ChunkSize;
  // Two objects of at least this size overrun a chunk.
  const uint64_t Least =
      (Options.ChunkSize - GroupAllocator::ChunkHeaderSize) / 2 + 1;

  Rng Random(GetParam() * 17 + 3);
  std::vector<uint64_t> Live;
  auto FreeOne = [&] {
    size_t I = Random.nextBelow(Live.size());
    GA.deallocate(Live[I]);
    Model.free(Live[I]);
    Live[I] = Live.back();
    Live.pop_back();
  };
  for (uint64_t I = 0; I < PerSlab * 3 / 2; ++I) {
    uint64_t Size = Least + Random.nextBelow(MaxGroupedSize - Least);
    uint64_t Addr = GA.allocate(AllocRequest{Size, 0});
    ASSERT_EQ(Addr, Model.allocate(0, Size));
    Live.push_back(Addr);
    if (Random.nextBool(0.25))
      FreeOne();
    ASSERT_EQ(GA.chunkCount(), Model.Chunks.size());
    ASSERT_EQ(GA.spareChunkCount(), Model.Spare.size());
    ASSERT_EQ(GA.residentBytes(), Model.Pages.size() * Page);
  }
  EXPECT_EQ(GA.arena().reservationCount(), 2u);
  EXPECT_GT(Model.Recycled, 0u);
  while (!Live.empty())
    FreeOne();
  EXPECT_EQ(GA.groupedLiveBytes(), 0u);
  EXPECT_EQ(GA.residentBytes(), Model.Pages.size() * Page);
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
