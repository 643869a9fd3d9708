//===- tests/profiler_test.cpp - HeapProfiler behaviour -----------------------===//

#include "core/Pipeline.h"
#include "eval/Evaluation.h"
#include "hds/HdsPipeline.h"
#include "mem/SizeClassAllocator.h"
#include "profile/HeapProfiler.h"
#include "profile/LiveObjectMap.h"
#include "profile/RecordingArena.h"
#include "support/BinaryIO.h"
#include "support/Rng.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

using namespace halo;

namespace {

/// Two allocation sites inside one function; a scripted driver allocates
/// and accesses objects to produce known affinity patterns.
struct ProfilerHarness {
  Program P;
  FunctionId Main, F;
  CallSiteId MainToF, SiteA, SiteB, SiteC;
  SizeClassAllocator Alloc;
  ProfileOptions Options;

  ProfilerHarness() {
    Main = P.addFunction("main");
    F = P.addFunction("f");
    MainToF = P.addCallSite(Main, F, "main>f");
    SiteA = P.addMallocSite(F, "f>mallocA");
    SiteB = P.addMallocSite(F, "f>mallocB");
    SiteC = P.addMallocSite(Main, "main>mallocC");
    Options.AffinityDistance = 64;
    Options.NodeCoverage = 1.0; // Keep everything unless a test filters.
  }
};

/// LiveObjectMap picks its lookup per object: an object at the arena
/// encoding of its own id is found by arithmetic, any other through the
/// interval map. The LiveObjectMap tests run every case on both: \p Arena
/// places object \p Id at its encoding, otherwise at \p Addr.
uint64_t placeAt(bool Arena, ObjectId Id, uint64_t Addr) {
  return Arena ? RecordingArena::encode(Id) : Addr;
}

} // namespace

TEST(LiveObjectMap, InsertFindErase) {
  for (bool Arena : {false, true}) {
    SCOPED_TRACE(Arena ? "arena lookup" : "interval lookup");
    LiveObjectMap M;
    uint64_t AddrA = placeAt(Arena, 0, 1000), AddrB = placeAt(Arena, 1, 2000);
    ObjectId A = M.insert(AddrA, 64, 0, 0);
    ObjectId B = M.insert(AddrB, 32, 1, 1);
    EXPECT_EQ(M.record(A).InArena, Arena);
    EXPECT_EQ(M.find(AddrA), A);
    EXPECT_EQ(M.find(AddrA + 37), A); // Interior offset.
    EXPECT_EQ(M.find(AddrA + 63), A);
    EXPECT_EQ(M.find(AddrA + 64), ~0u); // Offset == size.
    EXPECT_EQ(M.find(AddrA - 1), ~0u); // Arena: below the arena base.
    EXPECT_EQ(M.find(AddrB + 31), B);
    EXPECT_EQ(M.liveCount(), 2u);
    EXPECT_EQ(M.erase(AddrA), A);
    EXPECT_EQ(M.find(AddrA), ~0u); // A freed object.
    EXPECT_EQ(M.find(AddrA + 37), ~0u);
    EXPECT_EQ(M.find(AddrB), B);
    EXPECT_EQ(M.liveCount(), 1u);
    EXPECT_EQ(M.totalAllocated(), 2u); // Records persist after free.
    EXPECT_FALSE(M.record(A).Live);
  }
}

TEST(LiveObjectMap, IdsAreTheAllocationOrder) {
  // Co-allocatability compares object ids as allocation times, so the Nth
  // insert must get id N, and a freed object's id is never handed out
  // again.
  for (bool Arena : {false, true}) {
    SCOPED_TRACE(Arena ? "arena lookup" : "interval lookup");
    LiveObjectMap M;
    EXPECT_EQ(M.insert(placeAt(Arena, 0, 1000), 8, 0, 0), 0u);
    EXPECT_EQ(M.insert(placeAt(Arena, 1, 2000), 8, 0, 0), 1u);
    M.erase(placeAt(Arena, 0, 1000));
    EXPECT_EQ(M.insert(placeAt(Arena, 2, 1000), 8, 0, 0), 2u);
  }
}

TEST(LiveObjectMap, ZeroSizeObjectOccupiesOneByte) {
  for (bool Arena : {false, true}) {
    SCOPED_TRACE(Arena ? "arena lookup" : "interval lookup");
    LiveObjectMap M;
    uint64_t Addr = placeAt(Arena, 0, 1000);
    ObjectId A = M.insert(Addr, 0, 0, 0);
    EXPECT_EQ(M.record(A).Size, 1u);
    EXPECT_EQ(M.find(Addr), A);
    EXPECT_EQ(M.find(Addr + 1), ~0u);
  }
}

TEST(LiveObjectMap, LookupIsChosenPerObject) {
  // Only an object at the encoding of its *own* id takes the arena path;
  // one at another id's encoding, or too large for its slot, goes through
  // the interval map, and lookups of both kinds mix in one map.
  LiveObjectMap M;
  ObjectId InArena = M.insert(RecordingArena::encode(0), 16, 0, 0);
  ObjectId Foreign = M.insert(RecordingArena::encode(7), 16, 0, 0);
  ObjectId Low = M.insert(5000, 16, 0, 0);
  ObjectId Huge = M.insert(RecordingArena::encode(3),
                           RecordingArena::SlotBytes + 16, 0, 0);
  EXPECT_TRUE(M.record(InArena).InArena);
  EXPECT_FALSE(M.record(Foreign).InArena);
  EXPECT_FALSE(M.record(Low).InArena);
  EXPECT_FALSE(M.record(Huge).InArena);
  EXPECT_EQ(M.find(RecordingArena::encode(0) + 15), InArena);
  EXPECT_EQ(M.find(RecordingArena::encode(7) + 15), Foreign);
  EXPECT_EQ(M.find(5015), Low);
  EXPECT_EQ(M.find(RecordingArena::encode(4) + 8), Huge); // Past its slot.
  EXPECT_EQ(M.find(RecordingArena::encode(1)), ~0u);
  EXPECT_EQ(M.liveCount(), 4u);
  EXPECT_EQ(M.erase(RecordingArena::encode(7)), Foreign);
  EXPECT_EQ(M.erase(RecordingArena::encode(0)), InArena);
  EXPECT_EQ(M.find(RecordingArena::encode(0)), ~0u);
  EXPECT_EQ(M.find(RecordingArena::encode(7)), ~0u);
  EXPECT_EQ(M.liveCount(), 2u);
}

TEST(RecordingArena, ObjectsTheEncodingCannotHoldThrow) {
  // In every build: a 4 GiB object would run into the next id's slot.
  // The id limit shares the branch; reaching it would take 4G objects.
  RecordingArena Arena;
  EXPECT_THROW(Arena.allocate(AllocRequest{RecordingArena::SlotBytes, 0}),
               std::length_error);
  EXPECT_THROW(Arena.allocate(AllocRequest{~0ull, 0}), std::length_error);
  // A failed request mints no id, and the largest object that fits its
  // slot is served.
  uint64_t A = Arena.allocate(AllocRequest{RecordingArena::SlotBytes - 1, 0});
  uint64_t B = Arena.allocate(AllocRequest{8, 0});
  EXPECT_EQ(A, RecordingArena::encode(0));
  EXPECT_EQ(B, RecordingArena::encode(1));
  EXPECT_EQ(Arena.idOf(A + RecordingArena::SlotBytes - 2), 0u);
  EXPECT_EQ(Arena.idOf(B + 8), ~0u);
  EXPECT_FALSE(RecordingArena::encodable(RecordingArena::MaxObjects, 8));
  EXPECT_EQ(RecordingArena::encode(RecordingArena::MaxObjects - 1) +
                (RecordingArena::SlotBytes - 1),
            ~0ull);

  // Both pipelines profile on the arena, so such a run fails loudly.
  Program P;
  FunctionId Main = P.addFunction("main");
  CallSiteId Site = P.addMallocSite(Main, "main>malloc");
  auto Huge = [&](Runtime &RT) { RT.malloc(RecordingArena::SlotBytes, Site); };
  EXPECT_THROW(optimizeBinary(P, Huge), std::length_error);
  EXPECT_THROW(optimizeBinaryHds(P, Huge), std::length_error);
}

TEST(Profiler, BuildsEdgeBetweenInterleavedContexts) {
  ProfilerHarness H;
  HeapProfiler Prof(H.P, H.Options);
  Runtime RT(H.P, H.Alloc);
  RT.addObserver(&Prof);

  // Allocate A/B pairs, then access them pairwise.
  std::vector<std::pair<uint64_t, uint64_t>> Pairs;
  {
    Runtime::Scope S(RT, H.MainToF);
    for (int I = 0; I < 50; ++I) {
      uint64_t A = RT.malloc(16, H.SiteA);
      uint64_t B = RT.malloc(16, H.SiteB);
      Pairs.emplace_back(A, B);
    }
  }
  for (auto [A, B] : Pairs) {
    RT.load(A, 16);
    RT.load(B, 16);
  }

  AffinityGraph G = Prof.takeGraph();
  // Contexts: A-context and B-context, with a strong edge between them.
  EXPECT_EQ(G.numNodes(), 2u);
  std::vector<GraphNodeId> N = G.nodes();
  EXPECT_GT(G.edgeWeight(N[0], N[1]), 40u);
}

TEST(Profiler, ContextsDistinguishedByCallPath) {
  ProfilerHarness H;
  HeapProfiler Prof(H.P, H.Options);
  Runtime RT(H.P, H.Alloc);
  RT.addObserver(&Prof);

  uint64_t A1;
  {
    Runtime::Scope S(RT, H.MainToF);
    A1 = RT.malloc(16, H.SiteA);
  }
  uint64_t C = RT.malloc(16, H.SiteC);
  RT.load(A1, 16);
  RT.load(C, 16);
  Prof.takeGraph();
  EXPECT_EQ(Prof.contexts().size(), 2u);
  // One context chains through main>f, the other does not.
  bool SawDeep = false, SawShallow = false;
  for (ContextId Id = 0; Id < Prof.contexts().size(); ++Id) {
    const ContextInfo &Info = Prof.contexts().info(Id);
    if (Info.chainContains(H.MainToF))
      SawDeep = true;
    else
      SawShallow = true;
  }
  EXPECT_TRUE(SawDeep);
  EXPECT_TRUE(SawShallow);
}

TEST(Profiler, SelfEdgeFromSameContextNeighbours) {
  ProfilerHarness H;
  HeapProfiler Prof(H.P, H.Options);
  Runtime RT(H.P, H.Alloc);
  RT.addObserver(&Prof);

  std::vector<uint64_t> Objs;
  {
    Runtime::Scope S(RT, H.MainToF);
    for (int I = 0; I < 20; ++I)
      Objs.push_back(RT.malloc(16, H.SiteA));
  }
  for (uint64_t O : Objs)
    RT.load(O, 16);
  AffinityGraph G = Prof.takeGraph();
  std::vector<GraphNodeId> N = G.nodes();
  ASSERT_EQ(N.size(), 1u);
  EXPECT_GT(G.edgeWeight(N[0], N[0]), 0u); // Loop edge.
}

TEST(Profiler, CoAllocatabilityBlocksInterveningAllocations) {
  // u and v from contexts X and Y, but an allocation from X happens
  // chronologically between them: the pair must NOT contribute.
  ProfilerHarness H;
  HeapProfiler Prof(H.P, H.Options);
  Runtime RT(H.P, H.Alloc);
  RT.addObserver(&Prof);

  uint64_t U, Mid, V;
  {
    Runtime::Scope S(RT, H.MainToF);
    U = RT.malloc(16, H.SiteA);   // Context X, seq 0.
    Mid = RT.malloc(16, H.SiteA); // Context X, seq 1 -- intervenes.
    V = RT.malloc(16, H.SiteB);   // Context Y, seq 2.
  }
  RT.load(U, 16);
  RT.load(V, 16);
  (void)Mid;
  AffinityGraph G = Prof.takeGraph();
  std::vector<GraphNodeId> N = G.nodes();
  ASSERT_EQ(N.size(), 2u);
  EXPECT_EQ(G.edgeWeight(N[0], N[1]), 0u);
}

TEST(Profiler, CoAllocatabilityAllowsAdjacentAllocations) {
  ProfilerHarness H;
  HeapProfiler Prof(H.P, H.Options);
  Runtime RT(H.P, H.Alloc);
  RT.addObserver(&Prof);

  uint64_t U, V;
  {
    Runtime::Scope S(RT, H.MainToF);
    U = RT.malloc(16, H.SiteA);
    V = RT.malloc(16, H.SiteB);
  }
  RT.load(U, 16);
  RT.load(V, 16);
  AffinityGraph G = Prof.takeGraph();
  std::vector<GraphNodeId> N = G.nodes();
  ASSERT_EQ(N.size(), 2u);
  EXPECT_EQ(G.edgeWeight(N[0], N[1]), 1u);
}

TEST(Profiler, CoAllocatabilityMatchesBruteForce) {
  // Oracle: with 8-byte accesses and an affinity distance of 16 bytes the
  // window admits only the previous macro access, so each new macro access
  // pairs with exactly one object. The pair adds one to its contexts' edge
  // iff no allocation of either context lies strictly between the two
  // objects in allocation order -- found here by scanning every allocation
  // in between.
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    Program P;
    FunctionId Main = P.addFunction("main");
    FunctionId F = P.addFunction("f");
    CallSiteId MainToF = P.addCallSite(Main, F, "main>f");
    std::vector<CallSiteId> Sites;
    for (int I = 0; I < 4; ++I)
      Sites.push_back(P.addMallocSite(F, "f>malloc" + std::to_string(I)));
    SizeClassAllocator Alloc;
    ProfileOptions Options;
    Options.AffinityDistance = 16;
    Options.NodeCoverage = 1.0;
    HeapProfiler Prof(P, Options);
    Runtime RT(P, Alloc);
    RT.addObserver(&Prof);

    Rng R(Seed);
    std::vector<uint64_t> Addr; // By ObjectId: ids follow allocation order.
    std::vector<ObjectId> Live;
    std::vector<std::pair<ObjectId, ObjectId>> Pairs; // (newer access, previous)
    uint64_t MacroAccesses = 0;
    ObjectId Last = ~0u;
    {
      Runtime::Scope S(RT, MainToF);
      for (int Step = 0; Step < 4000; ++Step) {
        uint64_t Roll = R.nextBelow(100);
        if (Live.empty() || Roll < 25) {
          Addr.push_back(RT.malloc(16, Sites[R.nextBelow(Sites.size())]));
          Live.push_back(static_cast<ObjectId>(Addr.size() - 1));
        } else if (Roll < 30) {
          size_t I = R.nextBelow(Live.size());
          RT.free(Addr[Live[I]]);
          Live[I] = Live.back();
          Live.pop_back();
        } else {
          ObjectId Obj = Live[R.nextBelow(Live.size())];
          RT.load(Addr[Obj] + R.nextBelow(9), 8);
          if (Obj == Last)
            continue; // Merges into the previous macro access.
          ++MacroAccesses;
          if (Last != ~0u)
            Pairs.emplace_back(Obj, Last);
          Last = Obj;
        }
      }
    }

    auto CtxOf = [&](ObjectId Obj) { return Prof.objects().record(Obj).Ctx; };
    std::map<std::pair<ContextId, ContextId>, uint64_t> Expected;
    uint64_t Accepted = 0, Rejected = 0;
    for (auto [New, Old] : Pairs) {
      ContextId A = CtxOf(New), B = CtxOf(Old);
      bool CoAllocatable = true;
      for (ObjectId Between = std::min(New, Old) + 1;
           Between < std::max(New, Old); ++Between)
        if (CtxOf(Between) == A || CtxOf(Between) == B)
          CoAllocatable = false;
      if (CoAllocatable)
        ++Expected[{std::min(A, B), std::max(A, B)}];
      ++(CoAllocatable ? Accepted : Rejected);
    }
    ASSERT_GT(Accepted, 50u) << "seed " << Seed;
    ASSERT_GT(Rejected, 50u) << "seed " << Seed;

    EXPECT_EQ(Prof.totalAccesses(), MacroAccesses) << "seed " << Seed;
    AffinityGraph G = Prof.takeGraph();
    ASSERT_EQ(Prof.contexts().size(), Sites.size());
    for (ContextId A = 0; A < Sites.size(); ++A)
      for (ContextId B = A; B < Sites.size(); ++B) {
        uint64_t Want = Expected[{A, B}];
        EXPECT_EQ(G.edgeWeight(A, B), Want)
            << "seed " << Seed << ": contexts " << A << ", " << B;
      }
  }
}

TEST(Profiler, CoAllocatabilityCanBeDisabled) {
  ProfilerHarness H;
  H.Options.CoAllocatability = false;
  HeapProfiler Prof(H.P, H.Options);
  Runtime RT(H.P, H.Alloc);
  RT.addObserver(&Prof);

  uint64_t U, Mid, V;
  {
    Runtime::Scope S(RT, H.MainToF);
    U = RT.malloc(16, H.SiteA);
    Mid = RT.malloc(16, H.SiteA);
    V = RT.malloc(16, H.SiteB);
  }
  RT.load(U, 16);
  RT.load(V, 16);
  (void)Mid;
  AffinityGraph G = Prof.takeGraph();
  std::vector<GraphNodeId> N = G.nodes();
  EXPECT_EQ(G.edgeWeight(N[0], N[1]), 1u);
}

TEST(Profiler, LargeObjectsExcludedFromAffinity) {
  ProfilerHarness H;
  H.Options.MaxObjectSize = 64;
  HeapProfiler Prof(H.P, H.Options);
  Runtime RT(H.P, H.Alloc);
  RT.addObserver(&Prof);

  uint64_t Big, Small;
  {
    Runtime::Scope S(RT, H.MainToF);
    Big = RT.malloc(128, H.SiteA);
    Small = RT.malloc(16, H.SiteB);
  }
  RT.load(Big, 64);
  RT.load(Small, 16);
  AffinityGraph G = Prof.takeGraph();
  // Only the small object's context accumulates accesses.
  EXPECT_EQ(G.totalAccesses(), 1u);
}

TEST(Profiler, StackAccessesIgnored) {
  ProfilerHarness H;
  HeapProfiler Prof(H.P, H.Options);
  Runtime RT(H.P, H.Alloc);
  RT.addObserver(&Prof);
  RT.load(0xdead0000, 8); // Never allocated: not heap traffic.
  AffinityGraph G = Prof.takeGraph();
  EXPECT_EQ(G.numNodes(), 0u);
  EXPECT_EQ(Prof.totalAccesses(), 0u);
}

TEST(Profiler, ReferenceTraceDeduplicatesConsecutive) {
  // HDS's profiler: object tracking plus the merged reference trace.
  ProfilerHarness H;
  ReferenceTraceRecorder Recorder;
  Runtime RT(H.P, H.Alloc);
  RT.addObserver(&Recorder);

  uint64_t A, B;
  {
    Runtime::Scope S(RT, H.MainToF);
    A = RT.malloc(16, H.SiteA);
    B = RT.malloc(16, H.SiteB);
  }
  RT.load(A, 8);
  RT.load(A, 8);
  RT.load(B, 8);
  RT.load(0xdead0000, 8); // Never allocated: not in the trace.
  RT.load(A, 8);
  EXPECT_EQ(Recorder.trace(), (std::vector<ObjectId>{0, 1, 0})); // A, B, A.
  EXPECT_EQ(Recorder.objects().record(1).ImmediateSite, H.SiteB);
  EXPECT_EQ(Recorder.objects().record(1).Size, 16u);
}

TEST(Profiler, FreedObjectAccessesIgnored) {
  ProfilerHarness H;
  HeapProfiler Prof(H.P, H.Options);
  Runtime RT(H.P, H.Alloc);
  RT.addObserver(&Prof);
  uint64_t A;
  {
    Runtime::Scope S(RT, H.MainToF);
    A = RT.malloc(16, H.SiteA);
  }
  RT.load(A, 8);
  RT.free(A);
  EXPECT_EQ(Prof.totalAccesses(), 1u);
}

TEST(Profiler, AllocationCountsPerContext) {
  ProfilerHarness H;
  HeapProfiler Prof(H.P, H.Options);
  Runtime RT(H.P, H.Alloc);
  RT.addObserver(&Prof);
  {
    Runtime::Scope S(RT, H.MainToF);
    for (int I = 0; I < 5; ++I)
      RT.malloc(16, H.SiteA);
  }
  Prof.takeGraph();
  ASSERT_EQ(Prof.contexts().size(), 1u);
  EXPECT_EQ(Prof.contexts().info(0).Allocations, 5u);
}

//===----------------------------------------------------------------------===//
// Oracle: the arena lookup against the interval map, on every workload.
//===----------------------------------------------------------------------===//

namespace {

/// What the two pipelines read from a profiling run: HALO's graph (as
/// saved), contexts and macro-access count, HDS's reference trace, and
/// every object's size, context and malloc site.
struct ProfileRun {
  std::vector<uint8_t> Graph, Contexts;
  uint64_t Accesses = 0;
  std::vector<ObjectId> Trace;
  std::vector<std::tuple<uint64_t, ContextId, CallSiteId>> HaloObjects,
      HdsObjects;
  uint64_t ArenaObjects = 0; ///< Objects the arena lookup resolved.
};

void collectObjects(
    const LiveObjectMap &Objects,
    std::vector<std::tuple<uint64_t, ContextId, CallSiteId>> &Out,
    uint64_t &ArenaObjects) {
  for (ObjectId Id = 0; Id < Objects.totalAllocated(); ++Id) {
    const ObjectRecord &Rec = Objects.record(Id);
    Out.emplace_back(Rec.Size, Rec.Ctx, Rec.ImmediateSite);
    ArenaObjects += Rec.InArena;
  }
}

/// Profiles \p Name's profile input, as the pipelines do, over a fresh
/// \p AllocT for each profiler.
template <typename AllocT> ProfileRun profileOver(const std::string &Name) {
  BenchmarkSetup Setup = paperSetup(Name);
  std::unique_ptr<Workload> W = createWorkload(Name);
  Program Prog;
  W->build(Prog);
  ProfileRun Out;
  {
    AllocT Alloc;
    Runtime RT(Prog, Alloc);
    HeapProfiler Profiler(Prog, Setup.Halo.Profile);
    RT.addObserver(&Profiler);
    W->run(RT, Setup.ProfileScale, Setup.ProfileSeed);
    BinaryWriter Graph, Contexts;
    Profiler.takeGraph().save(Graph);
    Profiler.contexts().save(Contexts);
    Out.Graph = Graph.take();
    Out.Contexts = Contexts.take();
    Out.Accesses = Profiler.totalAccesses();
    collectObjects(Profiler.objects(), Out.HaloObjects, Out.ArenaObjects);
  }
  {
    AllocT Alloc;
    Runtime RT(Prog, Alloc);
    ReferenceTraceRecorder Recorder;
    RT.addObserver(&Recorder);
    W->run(RT, Setup.ProfileScale, Setup.ProfileSeed);
    Out.Trace = Recorder.trace();
    collectObjects(Recorder.objects(), Out.HdsObjects, Out.ArenaObjects);
  }
  return Out;
}

class ProfileOracle : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(ProfileOracle, ArenaLookupMatchesTheIntervalMap) {
  // A profile depends on which object each access touches and on the
  // allocation order, never on addresses: over SizeClassAllocator every
  // object goes through the interval map, over the arena through the
  // arithmetic lookup, and both must see the same run.
  ProfileRun Interval = profileOver<SizeClassAllocator>(GetParam());
  ProfileRun Arena = profileOver<RecordingArena>(GetParam());
  EXPECT_EQ(Interval.ArenaObjects, 0u);
  EXPECT_EQ(Arena.ArenaObjects,
            Arena.HaloObjects.size() + Arena.HdsObjects.size());
  EXPECT_GT(Arena.Accesses, 0u);
  EXPECT_FALSE(Arena.Trace.empty());
  EXPECT_EQ(Interval.Accesses, Arena.Accesses);
  EXPECT_TRUE(Interval.Graph == Arena.Graph) << "affinity graphs differ";
  EXPECT_TRUE(Interval.Contexts == Arena.Contexts) << "contexts differ";
  EXPECT_TRUE(Interval.HaloObjects == Arena.HaloObjects);
  EXPECT_TRUE(Interval.Trace == Arena.Trace) << "reference traces differ";
  EXPECT_TRUE(Interval.HdsObjects == Arena.HdsObjects);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ProfileOracle,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &Info) { return Info.param; });
