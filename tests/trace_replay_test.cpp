//===- tests/trace_replay_test.cpp - Record/replay equivalence ---------------===//
//
// The replay contract: an EventTrace recorded from one workload run,
// replayed on a fresh runtime under *any* allocator configuration, must
// produce RunMetrics bit-identical to executing the workload directly
// under that configuration. Plans measure and profile by direct execution
// (Evaluation::measureDirect, Evaluation::haloArtifacts); replay stays
// for the per-layer benchmark driver, and these tests keep it equal to
// direct execution -- down to every observer callback, since replay
// re-executes the recorded run through the runtime's own entry points --
// including the pipelines: artifacts profiled from a trace save to the
// same bytes as artifacts profiled from a direct run, which is what keeps
// store entries published from traces valid.
//
//===----------------------------------------------------------------------===//

#include "eval/Evaluation.h"
#include "mem/BoundaryTagAllocator.h"
#include "mem/SizeClassAllocator.h"
#include "support/BinaryIO.h"
#include "trace/EventTrace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>

using namespace halo;

namespace {

const AllocatorKind AllKinds[] = {
    AllocatorKind::Jemalloc,     AllocatorKind::Ptmalloc,
    AllocatorKind::Halo,         AllocatorKind::Hds,
    AllocatorKind::RandomPools,  AllocatorKind::HaloInstrumentedOnly,
};

const char *kindName(AllocatorKind Kind) {
  switch (Kind) {
  case AllocatorKind::Jemalloc:
    return "jemalloc";
  case AllocatorKind::Ptmalloc:
    return "ptmalloc";
  case AllocatorKind::Halo:
    return "halo";
  case AllocatorKind::Hds:
    return "hds";
  case AllocatorKind::RandomPools:
    return "random-pools";
  case AllocatorKind::HaloInstrumentedOnly:
    return "halo-instrumented-only";
  }
  return "?";
}

/// Field-by-field bit-identity of everything a run measures.
void expectSameMetrics(const RunMetrics &Direct, const RunMetrics &Replayed,
                       const std::string &Where) {
  SCOPED_TRACE(Where);
  EXPECT_EQ(Direct.Cycles, Replayed.Cycles);
  EXPECT_DOUBLE_EQ(Direct.Seconds, Replayed.Seconds);
  EXPECT_EQ(Direct.Mem.Accesses, Replayed.Mem.Accesses);
  EXPECT_EQ(Direct.Mem.L1Misses, Replayed.Mem.L1Misses);
  EXPECT_EQ(Direct.Mem.L2Misses, Replayed.Mem.L2Misses);
  EXPECT_EQ(Direct.Mem.L3Misses, Replayed.Mem.L3Misses);
  EXPECT_EQ(Direct.Mem.TlbMisses, Replayed.Mem.TlbMisses);
  EXPECT_EQ(Direct.Mem.StallCycles, Replayed.Mem.StallCycles);
  EXPECT_EQ(Direct.Events.Calls, Replayed.Events.Calls);
  EXPECT_EQ(Direct.Events.Allocs, Replayed.Events.Allocs);
  EXPECT_EQ(Direct.Events.Frees, Replayed.Events.Frees);
  EXPECT_EQ(Direct.Events.Loads, Replayed.Events.Loads);
  EXPECT_EQ(Direct.Events.Stores, Replayed.Events.Stores);
  EXPECT_EQ(Direct.InstrumentationOps, Replayed.InstrumentationOps);
  EXPECT_EQ(Direct.Frag.PeakResident, Replayed.Frag.PeakResident);
  EXPECT_EQ(Direct.Frag.LiveAtPeak, Replayed.Frag.LiveAtPeak);
  EXPECT_EQ(Direct.GroupedAllocs, Replayed.GroupedAllocs);
  EXPECT_EQ(Direct.ForwardedAllocs, Replayed.ForwardedAllocs);
}

class TraceReplayTest : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(TraceReplayTest, ReplayMatchesDirectExecutionUnderEveryAllocator) {
  Evaluation Eval(paperSetup(GetParam()));
  for (AllocatorKind Kind : AllKinds) {
    RunMetrics Direct = Eval.measureDirect(Kind, Scale::Test, 7);
    RunMetrics Replayed =
        Eval.measure(Eval.setup().Machine, Kind, Scale::Test, 7);
    expectSameMetrics(Direct, Replayed,
                      GetParam() + " under " + kindName(Kind));
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, TraceReplayTest,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &Info) { return Info.param; });

TEST(TraceReplay, CountsMatchTheRecordedRunsStats) {
  auto W = createWorkload("health");
  Program P;
  W->build(P);

  EventTrace Trace;
  RecordingArena Arena;
  Runtime RT(P, Arena);
  TraceRecorder Recorder(Trace, Arena);
  RT.addObserver(&Recorder);
  W->run(RT, Scale::Test, 5);

  const TraceCounts &C = Trace.counts();
  const RuntimeStats &S = RT.stats();
  EXPECT_EQ(C.Calls, S.Calls);
  EXPECT_EQ(C.Returns, S.Calls); // Every Scope that enters leaves.
  EXPECT_EQ(C.Allocs + C.Reallocs, S.Allocs);
  EXPECT_EQ(C.Loads + C.RawLoads, S.Loads);
  EXPECT_EQ(C.Stores + C.RawStores, S.Stores);
  EXPECT_EQ(Trace.numObjects(), S.Allocs);
  EXPECT_GT(Trace.numEvents(), 0u);
  EXPECT_GT(Trace.byteSize(), 0u);
  // The encoding stays compact: a handful of bytes per event.
  EXPECT_LT(Trace.byteSize(), Trace.numEvents() * 8);
}

TEST(TraceReplay, ReallocCallocAndRawAccessesRoundTrip) {
  // A hand-driven program exercising the paths no workload model hits:
  // calloc's zeroing stores, realloc's allocator-dependent copy loop (the
  // recording arena's usable size is the requested size; a boundary-tag
  // allocator's is not), and raw non-heap accesses.
  Program P;
  FunctionId Main = P.addFunction("main");
  CallSiteId Site = P.addMallocSite(Main, "main>malloc");
  auto Drive = [&](Runtime &RT) {
    uint64_t A = RT.malloc(40, Site);
    RT.store(A, 40);
    uint64_t B = RT.calloc(8, 16, Site);
    RT.load(B, 128);
    A = RT.realloc(A, 200, Site); // Copies min(usableSize(A), 200) bytes.
    RT.store(A + 64, 8);
    A = RT.realloc(A, 16, Site); // Shrinking copies only 16 bytes.
    RT.load(0x1234, 8);          // Stack/global traffic: recorded raw.
    RT.compute(500);
    RT.free(A);
    RT.free(B);
    RT.free(0); // free(NULL) is a no-op and must not enter the trace.
  };

  EventTrace Trace;
  {
    RecordingArena Arena;
    Runtime RT(P, Arena);
    TraceRecorder Recorder(Trace, Arena);
    RT.addObserver(&Recorder);
    Drive(RT);
  }
  EXPECT_EQ(Trace.counts().Reallocs, 2u);
  EXPECT_EQ(Trace.counts().Allocs, 2u);
  EXPECT_EQ(Trace.counts().RawLoads, 1u);
  EXPECT_EQ(Trace.counts().Computes, 1u);
  EXPECT_EQ(Trace.numObjects(), 4u);

  // Direct vs replayed under an allocator with different usable sizes.
  {
    BoundaryTagAllocator Probe;
    EXPECT_NE(Probe.usableSize(Probe.allocate(AllocRequest{40, Site})), 40u);
  }
  auto Measure = [&](bool Replay) {
    MemoryHierarchy Memory;
    BoundaryTagAllocator Ptmalloc;
    Runtime RT(P, Ptmalloc);
    RT.setMemory(&Memory);
    if (Replay)
      RT.replay(Trace);
    else
      Drive(RT);
    return std::make_tuple(RT.timing().totalCycles(), RT.stats().Loads,
                           RT.stats().Stores, RT.stats().Allocs,
                           RT.stats().Frees, Memory.counters().L1Misses,
                           Memory.counters().Accesses);
  };
  EXPECT_EQ(Measure(false), Measure(true));
}

TEST(TraceReplay, ARawAccessPastTheAddressLimitThrowsInsteadOfSimulating) {
  // Raw addresses in a loaded trace reach the hierarchy with nothing but
  // its address limit between them and the 32-bit tags. The recording run
  // simulates no hierarchy, so nothing stops the access there.
  const uint64_t Limit = MemoryHierarchy().addressLimit();
  Program P;
  EventTrace Recorded;
  {
    RecordingArena Arena;
    Runtime RT(P, Arena);
    TraceRecorder Recorder(Recorded, Arena);
    RT.addObserver(&Recorder);
    RT.load(0x1000, 8);
    RT.store(Limit - 8, 16);
    RT.load(0x2000, 8);
  }
  ASSERT_EQ(Recorded.counts().RawLoads + Recorded.counts().RawStores, 3u);
  BinaryWriter W;
  Recorded.save(W);
  BinaryReader R(W.buffer());
  EventTrace Loaded = EventTrace::load(R);

  MemoryHierarchy Memory;
  SizeClassAllocator Jemalloc;
  Runtime RT(P, Jemalloc);
  RT.setMemory(&Memory);
  EXPECT_THROW(RT.replay(Loaded), std::out_of_range);
  EXPECT_EQ(Memory.counters().Accesses, 1u); // Only the access before it.
}

namespace {

class TracePipeline : public ::testing::TestWithParam<std::string> {};

template <typename Artifacts, typename SaveFn>
std::vector<uint8_t> savedBytes(const Artifacts &Art, SaveFn Save) {
  BinaryWriter W;
  Save(Art, W);
  return W.buffer();
}

} // namespace

TEST_P(TracePipeline, MatchesDirectProfiling) {
  // Both pipelines under the benchmark's paper parameters: profiling the
  // recorded profile-scale trace and profiling a direct run (how
  // Evaluation materialises bundles) save to the same bytes, so a store
  // bundle built from a trace serves a direct plan and vice versa.
  BenchmarkSetup Setup = paperSetup(GetParam());
  Evaluation Eval(Setup);
  const EventTrace &Trace = Eval.trace(Setup.ProfileScale, Setup.ProfileSeed);
  const Program &P = Eval.program();

  EXPECT_EQ(
      savedBytes(optimizeBinary(P, Trace, Setup.Halo, Setup.Machine),
                 saveHaloArtifacts),
      savedBytes(Eval.haloArtifacts(), saveHaloArtifacts));
  EXPECT_EQ(
      savedBytes(optimizeBinaryHds(P, Trace, Setup.Hds, Setup.Machine),
                 saveHdsArtifacts),
      savedBytes(Eval.hdsArtifacts(), saveHdsArtifacts));
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, TracePipeline,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &Info) { return Info.param; });

TEST(TraceReplay, CursorChunkDecodeMatchesReaderDecode) {
  // The chunked batch decoder must produce exactly the records the
  // sequential reader does, across chunk boundaries of any size.
  auto W = createWorkload("health");
  Program P;
  W->build(P);
  EventTrace Trace;
  {
    RecordingArena Arena;
    Runtime RT(P, Arena);
    TraceRecorder Recorder(Trace, Arena);
    RT.addObserver(&Recorder);
    W->run(RT, Scale::Test, 3);
  }

  for (size_t ChunkSize : {1u, 7u, 1024u}) {
    SCOPED_TRACE("chunk " + std::to_string(ChunkSize));
    EventTrace::Reader R = Trace.reader();
    EventTrace::Cursor Cur = Trace.cursor();
    std::vector<TraceEvent> Chunk(ChunkSize);
    uint64_t Total = 0;
    while (size_t N = Cur.fill(Chunk.data(), ChunkSize)) {
      for (size_t I = 0; I < N; ++I) {
        ASSERT_FALSE(R.atEnd());
        TraceOp Op = R.op();
        ASSERT_EQ(Chunk[I].Op, Op);
        switch (Op) {
        case TraceOp::Return:
          break;
        case TraceOp::Call:
        case TraceOp::Free:
        case TraceOp::Compute:
          EXPECT_EQ(Chunk[I].A, R.varint());
          break;
        case TraceOp::Alloc:
        case TraceOp::LoadBase:
        case TraceOp::StoreBase:
        case TraceOp::LoadRaw:
        case TraceOp::StoreRaw:
          EXPECT_EQ(Chunk[I].A, R.varint());
          EXPECT_EQ(Chunk[I].B, R.varint());
          break;
        case TraceOp::Load:
        case TraceOp::Store:
        case TraceOp::Realloc:
          EXPECT_EQ(Chunk[I].A, R.varint());
          EXPECT_EQ(Chunk[I].B, R.varint());
          EXPECT_EQ(Chunk[I].C, R.varint());
          break;
        }
        ++Total;
      }
    }
    EXPECT_TRUE(R.atEnd());
    EXPECT_TRUE(Cur.atEnd());
    EXPECT_EQ(Total, Trace.numEvents());
  }
}

namespace {

/// Every callback a runtime makes, flattened into one word stream: a tag,
/// then the callback's arguments.
class CallbackLog final : public RuntimeObserver {
public:
  std::vector<uint64_t> Seq;

  void onCall(CallSiteId Site) override { log('C', Site); }
  void onReturn(CallSiteId Site) override { log('R', Site); }
  void onAlloc(uint64_t Addr, uint64_t Size, CallSiteId Site) override {
    log('M', Addr, Size, Site);
  }
  void onFree(uint64_t Addr) override { log('F', Addr); }
  void onAccess(uint64_t Addr, uint64_t Size, bool IsStore) override {
    log(IsStore ? 'S' : 'L', Addr, Size);
  }
  void onCompute(uint64_t Cycles) override { log('P', Cycles); }
  // A direct run never batches, so a batch in a replay shows as a
  // difference rather than being forwarded to onAccess.
  void onAccessBatch(const MemAccess *Batch, size_t N) override {
    for (size_t I = 0; I < N; ++I)
      log('A', Batch[I].Addr, Batch[I].Size, Batch[I].IsStore);
  }
  void onReallocBegin(uint64_t OldAddr, uint64_t NewSize,
                      CallSiteId Site) override {
    log('B', OldAddr, NewSize, Site);
  }
  void onReallocEnd(uint64_t NewAddr) override { log('E', NewAddr); }

private:
  template <typename... Ts> void log(char Tag, Ts... Args) {
    Seq.push_back(static_cast<uint64_t>(Tag));
    (Seq.push_back(static_cast<uint64_t>(Args)), ...);
  }
};

/// The paths no registered model takes: growing and shrinking reallocs,
/// calloc's zeroing stores, non-heap traffic, under a call.
class ReallocWorkload final : public Workload {
public:
  std::string name() const override { return "realloc"; }
  void build(Program &P) override {
    FunctionId Main = P.addFunction("main");
    FunctionId Grow = P.addFunction("grow");
    SGrow = P.addCallSite(Main, Grow, "main>grow");
    SMalloc = P.addMallocSite(Grow, "grow>malloc");
  }
  void run(Runtime &RT, Scale, uint64_t Seed) override {
    Runtime::Scope Call(RT, SGrow);
    uint64_t Buf = RT.calloc(4, 16, SMalloc);
    for (uint64_t Size = 72 + Seed; Size < 20000; Size = Size * 3 / 2) {
      Buf = RT.realloc(Buf, Size, SMalloc);
      RT.store(Buf + Size / 2, 8);
      RT.load(0x1000 + Size % 512, 8); // Stack traffic: recorded raw.
      RT.compute(Size % 97);
    }
    Buf = RT.realloc(Buf, 40, SMalloc);
    RT.load(Buf, 40);
    RT.free(Buf);
  }

private:
  CallSiteId SGrow = InvalidId, SMalloc = InvalidId;
};

/// The callbacks of one run of \p W on a fresh runtime over a fresh
/// \p AllocT: the direct run, or the replay of \p Trace when it is given.
template <typename AllocT>
std::vector<uint64_t> callbacks(const Program &P, Workload &W,
                                const EventTrace *Trace) {
  AllocT Alloc;
  Runtime RT(P, Alloc);
  CallbackLog Log;
  RT.addObserver(&Log);
  if (Trace)
    RT.replay(*Trace);
  else
    W.run(RT, Scale::Test, 2);
  return std::move(Log.Seq);
}

template <typename AllocT>
void expectSameCallbacks(const Program &P, Workload &W,
                         const EventTrace &Trace) {
  std::vector<uint64_t> Direct = callbacks<AllocT>(P, W, nullptr);
  std::vector<uint64_t> Replayed = callbacks<AllocT>(P, W, &Trace);
  ASSERT_FALSE(Direct.empty());
  ASSERT_EQ(Direct.size(), Replayed.size());
  auto Diff = std::mismatch(Direct.begin(), Direct.end(), Replayed.begin());
  EXPECT_TRUE(Diff.first == Direct.end())
      << "first difference at word " << Diff.first - Direct.begin();
}

} // namespace

TEST(TraceReplay, ObserversSeeTheDirectRunsCallbacksOnEveryWorkload) {
  // Replay re-executes the recorded run through the runtime's own entry
  // points, so an observer of every hook sees exactly the callbacks --
  // arguments and order -- of a direct run under the same allocator.
  std::vector<std::unique_ptr<Workload>> Workloads;
  for (const std::string &Name : workloadNames())
    Workloads.push_back(createWorkload(Name));
  Workloads.push_back(std::make_unique<ReallocWorkload>());
  for (const std::unique_ptr<Workload> &W : Workloads) {
    SCOPED_TRACE(W->name());
    Program P;
    W->build(P);
    EventTrace Trace;
    {
      RecordingArena Arena;
      Runtime RT(P, Arena);
      TraceRecorder Recorder(Trace, Arena);
      RT.addObserver(&Recorder);
      W->run(RT, Scale::Test, 2);
    }
    if (W->name() == "realloc") {
      EXPECT_GT(Trace.counts().Reallocs, 2u);
    }
    // The boundary-tag allocator's usable sizes differ from the requested
    // ones, so replay must re-derive each realloc's copy length.
    expectSameCallbacks<SizeClassAllocator>(P, *W, Trace);
    expectSameCallbacks<BoundaryTagAllocator>(P, *W, Trace);
  }
}

TEST(TraceReplay, TraceCacheRecordsOncePerScaleAndSeed) {
  Evaluation Eval(paperSetup("ft"));
  const EventTrace &First = Eval.trace(Scale::Test, 9);
  const EventTrace &Second = Eval.trace(Scale::Test, 9);
  EXPECT_EQ(&First, &Second); // Same buffer, not a re-recording.
  const EventTrace &OtherSeed = Eval.trace(Scale::Test, 10);
  EXPECT_NE(&First, &OtherSeed);
}
