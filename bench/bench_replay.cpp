//===- bench/bench_replay.cpp - Record/replay throughput bench -----------------===//
//
// Measures the record/replay machinery against direct execution: per-event
// throughput of direct workload execution vs trace replay under the
// measurement configuration (jemalloc model + full memory hierarchy) and
// the cost of recording; plus the end-to-end effect on a Figure
// 13/14-style sweep (every allocator kind x several trials) run as a
// serial loop of direct measurements vs one plan (the same direct
// measurements, trials fanned out by runPlan).
//
// Emits rows in the repo's stable trajectory schema
//   {"bench", "nodes", "edges", "wall_ms", "trials", "host_cores", "build"}
// where nodes = trace events and edges = trace bytes for the throughput
// rows, and nodes = measured runs, edges = allocator kinds for the sweep
// rows. With --append the rows are merged into an existing
// BENCH_pipeline.json (bench/run_benches.sh runs the grouping bench
// first, then this one in append mode).
//
//   bench_replay [--append] [output.json]
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "eval/Experiment.h"
#include "mem/SizeClassAllocator.h"
#include "trace/EventTrace.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

using namespace halo;
using namespace halo::bench;

namespace {

const AllocatorKind SweepKinds[] = {
    AllocatorKind::Jemalloc,     AllocatorKind::Ptmalloc,
    AllocatorKind::Hds,          AllocatorKind::Halo,
    AllocatorKind::RandomPools,  AllocatorKind::HaloInstrumentedOnly,
};

/// The pre-batching replay loop -- one decode + dispatch per event through
/// the runtime's public API -- kept here as the baseline the batched
/// Runtime::replay (the replay_batched_* rows) is measured against. Both
/// produce bit-identical counters; only the wall clock differs.
void replayPerEvent(Runtime &RT, const EventTrace &Trace,
                    std::vector<uint64_t> &ObjAddr) {
  ObjAddr.clear();
  ObjAddr.reserve(Trace.numObjects());
  EventTrace::Reader R = Trace.reader();
  while (!R.atEnd()) {
    switch (R.op()) {
    case TraceOp::Call:
      RT.enter(static_cast<CallSiteId>(R.varint()));
      break;
    case TraceOp::Return:
      RT.leave();
      break;
    case TraceOp::Alloc: {
      CallSiteId Site = static_cast<CallSiteId>(R.varint());
      uint64_t Size = R.varint();
      ObjAddr.push_back(RT.malloc(Size, Site));
      break;
    }
    case TraceOp::Free:
      RT.free(ObjAddr[R.varint()]);
      break;
    case TraceOp::Load: {
      uint64_t Id = R.varint();
      uint64_t Offset = R.varint();
      uint64_t Size = R.varint();
      RT.load(ObjAddr[Id] + Offset, Size);
      break;
    }
    case TraceOp::Store: {
      uint64_t Id = R.varint();
      uint64_t Offset = R.varint();
      uint64_t Size = R.varint();
      RT.store(ObjAddr[Id] + Offset, Size);
      break;
    }
    case TraceOp::LoadBase: {
      uint64_t Id = R.varint();
      uint64_t Size = R.varint();
      RT.load(ObjAddr[Id], Size);
      break;
    }
    case TraceOp::StoreBase: {
      uint64_t Id = R.varint();
      uint64_t Size = R.varint();
      RT.store(ObjAddr[Id], Size);
      break;
    }
    case TraceOp::LoadRaw: {
      uint64_t Addr = R.varint();
      uint64_t Size = R.varint();
      RT.load(Addr, Size);
      break;
    }
    case TraceOp::StoreRaw: {
      uint64_t Addr = R.varint();
      uint64_t Size = R.varint();
      RT.store(Addr, Size);
      break;
    }
    case TraceOp::Compute:
      RT.compute(R.varint());
      break;
    case TraceOp::Realloc: {
      uint64_t Old = R.varint();
      CallSiteId Site = static_cast<CallSiteId>(R.varint());
      uint64_t NewSize = R.varint();
      ObjAddr.push_back(RT.realloc(ObjAddr[Old], NewSize, Site));
      break;
    }
    }
  }
}

} // namespace

int main(int Argc, char **Argv) {
  bool Append = false;
  std::string OutPath = "BENCH_pipeline.json";
  for (int I = 1; I < Argc; ++I) {
    if (std::string(Argv[I]) == "--append")
      Append = true;
    else
      OutPath = Argv[I];
  }
  const int Trials = trials();
  std::vector<BenchRow> Rows;

  std::printf("record/replay bench (trials=%d)\n\n", Trials);

  //===--------------------------------------------------------------------===//
  // Per-event throughput: record cost, then one measured run (jemalloc +
  // memory hierarchy) direct vs replayed, per workload.
  //===--------------------------------------------------------------------===//

  for (const std::string &Name : {std::string("health"),
                                  std::string("xalanc")}) {
    auto W = createWorkload(Name);
    Program P;
    W->build(P);

    EventTrace Trace;
    double RecordMs = medianMs(1, [&] {
      RecordingArena RecordAlloc;
      Runtime RT(P, RecordAlloc);
      TraceRecorder Recorder(Trace, RecordAlloc);
      RT.addObserver(&Recorder);
      W->run(RT, Scale::Ref, 100);
    });
    const uint64_t Events = Trace.numEvents();
    const uint64_t Bytes = Trace.byteSize();

    // The three measured loops interleave round-robin across trials so the
    // host's warm-up and frequency drift land evenly on all of them (this
    // box is noisy; back-to-back blocks systematically favour whichever
    // runs later).
    uint64_t Guard = 0;
    std::vector<double> DirectTimes, PerEventTimes, BatchedTimes;
    std::vector<uint64_t> ObjAddr;
    for (int T = 0; T < Trials; ++T) {
      double Start = nowMs();
      {
        MemoryHierarchy Memory;
        SizeClassAllocator Jemalloc;
        Runtime RT(P, Jemalloc);
        RT.setMemory(&Memory);
        W->run(RT, Scale::Ref, 100);
        Guard += RT.timing().totalCycles();
      }
      DirectTimes.push_back(nowMs() - Start);
      Start = nowMs();
      {
        MemoryHierarchy Memory;
        SizeClassAllocator Jemalloc;
        Runtime RT(P, Jemalloc);
        RT.setMemory(&Memory);
        replayPerEvent(RT, Trace, ObjAddr);
        Guard += RT.timing().totalCycles();
      }
      PerEventTimes.push_back(nowMs() - Start);
      Start = nowMs();
      {
        MemoryHierarchy Memory;
        SizeClassAllocator Jemalloc;
        Runtime RT(P, Jemalloc);
        RT.setMemory(&Memory);
        RT.replay(Trace);
        Guard += RT.timing().totalCycles();
      }
      BatchedTimes.push_back(nowMs() - Start);
    }
    if (Guard == 0)
      return 1; // Defeat dead-code elimination.
    auto Median = [](std::vector<double> &Times) {
      std::sort(Times.begin(), Times.end());
      return Times[Times.size() / 2];
    };
    double DirectMs = Median(DirectTimes);
    double PerEventMs = Median(PerEventTimes);
    double BatchedMs = Median(BatchedTimes);

    Rows.push_back({"replay_record_" + Name, Events, Bytes, RecordMs, 1});
    Rows.push_back({"replay_direct_" + Name, Events, Bytes, DirectMs, Trials});
    Rows.push_back({"replay_replay_" + Name, Events, Bytes, PerEventMs,
                    Trials});
    Rows.push_back({"replay_batched_" + Name, Events, Bytes, BatchedMs,
                    Trials});
    std::printf("%-8s %9llu events %9llu bytes: record %8.2f ms, "
                "direct %8.2f ms (%5.1f M ev/s),\n         per-event replay "
                "%8.2f ms (%5.1f M ev/s), batched replay %8.2f ms "
                "(%5.1f M ev/s, %.2fx vs per-event)\n",
                Name.c_str(), static_cast<unsigned long long>(Events),
                static_cast<unsigned long long>(Bytes), RecordMs, DirectMs,
                static_cast<double>(Events) / DirectMs / 1e3, PerEventMs,
                static_cast<double>(Events) / PerEventMs / 1e3, BatchedMs,
                static_cast<double>(Events) / BatchedMs / 1e3,
                PerEventMs / std::max(BatchedMs, 1e-6));
  }

  //===--------------------------------------------------------------------===//
  // End-to-end sweep: every allocator kind x Trials trials on one
  // benchmark, as a serial loop of direct measurements vs one plan (every
  // trial a direct measurement, fanned out across the pool). Pipeline
  // artifacts are materialised up front on both sides so the rows compare
  // pure measurement.
  //===--------------------------------------------------------------------===//

  {
    const std::string Name = "health";
    const int Kinds = static_cast<int>(std::size(SweepKinds));

    Evaluation DirectEval(paperSetup(Name));
    DirectEval.haloArtifacts();
    DirectEval.hdsArtifacts();
    uint64_t Guard = 0;
    double DirectStart = nowMs();
    for (AllocatorKind Kind : SweepKinds)
      for (int T = 0; T < Trials; ++T)
        Guard += DirectEval.measureDirect(Kind, Scale::Ref, 100 + T).Cycles;
    double DirectMs = nowMs() - DirectStart;

    Evaluation PlanEval(paperSetup(Name));
    PlanEval.haloArtifacts();
    PlanEval.hdsArtifacts();
    double PlanStart = nowMs();
    ExperimentSpec Spec;
    Spec.Benchmarks = {Name};
    Spec.Kinds.assign(std::begin(SweepKinds), std::end(SweepKinds));
    Spec.S = Scale::Ref;
    Spec.Trials = Trials;
    ExperimentPlan Plan = buildPlan({Spec}, {&PlanEval});
    ResultSet Results = runPlan(Plan, /*Jobs=*/0);
    for (const ResultSet::Cell &Cell : Results.cells())
      for (const RunMetrics &M : Cell.Runs)
        Guard += M.Cycles;
    double PlanMs = nowMs() - PlanStart;
    if (Guard == 0)
      return 1;

    uint64_t SweepRuns = static_cast<uint64_t>(Kinds) * Trials;
    Rows.push_back({"sweep_direct_serial", SweepRuns,
                    static_cast<uint64_t>(Kinds), DirectMs, Trials});
    Rows.push_back({"sweep_plan_parallel", SweepRuns,
                    static_cast<uint64_t>(Kinds), PlanMs, Trials});
    std::printf("\nsweep (%s, %d kinds x %d trials): direct serial "
                "%8.2f ms, plan parallel %8.2f ms  (%.2fx)\n",
                Name.c_str(), Kinds, Trials, DirectMs, PlanMs,
                DirectMs / std::max(PlanMs, 1e-6));
  }

  writeRows(OutPath, Rows, Append);
  std::printf("\n%s %s (%zu rows)\n", Append ? "appended to" : "wrote",
              OutPath.c_str(), Rows.size());
  return 0;
}
