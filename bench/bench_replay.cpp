//===- bench/bench_replay.cpp - Record/replay throughput bench -----------------===//
//
// Measures the record-once/replay-many machinery: per-event throughput of
// direct workload execution vs trace replay under the measurement
// configuration (jemalloc model + full memory hierarchy), the cost of
// recording, and the end-to-end effect on a Figure 13/14-style sweep
// (every allocator kind x several trials) run the pre-trace way (direct,
// serial) vs the trace way (one plan: shared per-seed recordings, trials
// fanned out by runPlan).
//
// Emits rows in the repo's stable trajectory schema
//   {"bench", "nodes", "edges", "wall_ms", "trials"}
// where nodes = trace events and edges = trace bytes for the throughput
// rows, and nodes = measured runs, edges = allocator kinds for the sweep
// rows. The out-of-core rows (trace_stream_*) additionally carry a
// "rss_kb" column: the process peak RSS sampled after each phase, which
// is why that section runs first -- ru_maxrss is a monotone high-water
// mark, so the streamed phases must set their marks before the in-RAM
// ones raise the floor. With --append the rows are merged into an
// existing BENCH_pipeline.json (bench/run_benches.sh runs the grouping
// bench first, then this one in append mode).
//
//   bench_replay [--append] [output.json]
//
// HALO_BENCH_TRACE_EVENTS scales the synthetic out-of-core trace (default
// 8M events; 100M+ demonstrates bounded-RSS streaming of a trace far
// larger than any in-RAM buffer this bench otherwise allocates).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "eval/Experiment.h"
#include "mem/SizeClassAllocator.h"
#include "support/Rng.h"
#include "trace/EventTrace.h"
#include "trace/TraceFile.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

using namespace halo;

namespace {

struct BenchRow {
  std::string Bench;
  uint64_t Nodes;
  uint64_t Edges;
  double WallMs;
  int Trials;
};

int trials() {
  if (const char *Env = std::getenv("HALO_BENCH_TRIALS"))
    return std::max(1, std::atoi(Env));
  return 3;
}

double nowMs() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

/// Runs \p Fn \p Trials times and returns the median wall-clock ms.
template <typename Fn> double medianMs(int Trials, Fn &&Run) {
  std::vector<double> Times;
  Times.reserve(Trials);
  for (int T = 0; T < Trials; ++T) {
    double Start = nowMs();
    Run();
    Times.push_back(nowMs() - Start);
  }
  std::sort(Times.begin(), Times.end());
  return Times[Times.size() / 2];
}

/// The process's peak resident set so far, in KiB (Linux ru_maxrss).
uint64_t peakRssKb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<uint64_t>(Usage.ru_maxrss);
}

/// Writes \p Rows as a JSON array to \p Path, with \p ExtraRows
/// (pre-rendered row strings carrying non-schema columns) appended; with
/// \p Append, merges them into the existing array instead (the grouping
/// bench owns the file's fresh write). The merge itself is the shared
/// bench::writeJsonRows.
void writeJson(const std::string &Path, const std::vector<BenchRow> &Rows,
               const std::vector<std::string> &ExtraRows, bool Append) {
  std::vector<std::string> Lines;
  Lines.reserve(Rows.size() + ExtraRows.size());
  Lines.insert(Lines.end(), ExtraRows.begin(), ExtraRows.end());
  for (const BenchRow &R : Rows) {
    char Line[256];
    int N = std::snprintf(
        Line, sizeof(Line),
        "  {\"bench\": \"%s\", \"nodes\": %llu, \"edges\": %llu, "
        "\"wall_ms\": %.3f, \"trials\": %d}",
        R.Bench.c_str(), static_cast<unsigned long long>(R.Nodes),
        static_cast<unsigned long long>(R.Edges), R.WallMs, R.Trials);
    if (N < 0 || N >= static_cast<int>(sizeof(Line))) {
      // A truncated fragment would merge into the trajectory file as
      // malformed JSON with no error.
      std::fprintf(stderr, "bench row for %s too long\n", R.Bench.c_str());
      std::exit(1);
    }
    Lines.push_back(Line);
  }
  bench::writeJsonRows(Path, Lines, Append);
}

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
  std::vector<std::string> ExtraRows;

  std::printf("record/replay bench (trials=%d)\n\n", Trials);

  //===--------------------------------------------------------------------===//
  // Out-of-core traces: a synthetic recording streamed straight to disk,
  // then replayed mmap'd against the in-RAM
  // oracle. Bit-identity of every counter is asserted (a divergence is a
  // fatal bench failure); the rows measure record-to-disk throughput,
  // mapped vs in-RAM replay wall time, and the peak-RSS mark after each
  // phase. This section runs before anything else allocates big buffers,
  // so the streamed phases' rss_kb marks genuinely bound the out-of-core
  // path's footprint.
  //===--------------------------------------------------------------------===//

  {
    uint64_t TargetEvents = 8'000'000;
    if (const char *Env = std::getenv("HALO_BENCH_TRACE_EVENTS"))
      TargetEvents = std::max(1L, std::atol(Env));

    Program P;
    FunctionId Main = P.addFunction("synthetic");
    CallSiteId Site = P.addMallocSite(Main, "synthetic>malloc");

    // Deterministic allocate/access/free churn over a bounded ring of
    // live objects: ~6 events per steady-state iteration (alloc, two
    // stores, two loads, one eviction free, amortized computes), with
    // trace-shaped operand distributions (small sizes, short offsets).
    auto Drive = [&](Runtime &RT) {
      Rng Random(7);
      std::vector<uint64_t> Ring;
      const size_t RingCap = 4096;
      size_t Next = 0;
      const uint64_t Iterations = TargetEvents / 6;
      for (uint64_t I = 0; I < Iterations; ++I) {
        uint64_t Size = 16 + Random.nextBelow(240);
        uint64_t Addr = RT.malloc(Size, Site);
        RT.store(Addr, 8);
        RT.store(Addr + (Size & ~7ull) / 2, 8);
        if (!Ring.empty()) {
          uint64_t Victim = Ring[Random.nextBelow(Ring.size())];
          RT.load(Victim, 8);
          RT.load(Victim + 8, 4);
        }
        if (Ring.size() < RingCap) {
          Ring.push_back(Addr);
        } else {
          RT.free(Ring[Next]);
          Ring[Next] = Addr;
          Next = (Next + 1) % RingCap;
        }
        if ((I & 63) == 0)
          RT.compute(100 + Random.nextBelow(400));
      }
      for (uint64_t Addr : Ring)
        RT.free(Addr);
    };

    // Phase 1: record streaming to disk -- the trace is never resident.
    char TracePath[] = "/tmp/halo_bench_trace.XXXXXX";
    int TraceFd = mkstemp(TracePath);
    if (TraceFd < 0)
      return 1;
    close(TraceFd);
    uint64_t Events = 0, RawBytes = 0;
    double RecordMs = medianMs(1, [&] {
      FILE *F = std::fopen(TracePath, "wb");
      if (!F)
        std::exit(1);
      TraceFileWriter FW(F);
      EventTrace Trace;
      Trace.streamTo(FW);
      RecordingArena RecordAlloc;
      Runtime RT(P, RecordAlloc);
      TraceRecorder Recorder(Trace, RecordAlloc);
      RT.addObserver(&Recorder);
      Drive(RT);
      if (!Trace.finishStream())
        std::exit(1);
      std::fclose(F);
      Events = Trace.numEvents();
      RawBytes = Trace.byteSize();
    });
    uint64_t RecordRss = peakRssKb();

    // Phase 2: mapped replay, pages released as each block is left behind.
    MappedTrace Mapped = MappedTrace::open(TracePath);
    unlink(TracePath); // The mapping pins the bytes; nothing leaks.
    uint64_t FileBytes = Mapped.fileBytes();
    uint64_t Guard = 0;
    double MappedMs = medianMs(Trials, [&] {
      MemoryHierarchy Memory;
      SizeClassAllocator Jemalloc;
      Runtime RT(P, Jemalloc);
      RT.setMemory(&Memory);
      RT.replay(Mapped);
      Guard += RT.timing().totalCycles();
    });
    uint64_t MappedRss = peakRssKb();

    // Phase 3: the same recording held and replayed in RAM -- the oracle,
    // and the footprint the mapped path exists to avoid.
    EventTrace InRam;
    {
      RecordingArena RecordAlloc;
      Runtime RT(P, RecordAlloc);
      TraceRecorder Recorder(InRam, RecordAlloc);
      RT.addObserver(&Recorder);
      Drive(RT);
    }
    double RamMs = medianMs(Trials, [&] {
      MemoryHierarchy Memory;
      SizeClassAllocator Jemalloc;
      Runtime RT(P, Jemalloc);
      RT.setMemory(&Memory);
      RT.replay(InRam);
      Guard += RT.timing().totalCycles();
    });
    uint64_t RamRss = peakRssKb();
    if (Guard == 0)
      return 1;

    // Bit-identity: the mapped replay and the in-RAM oracle must agree on
    // every counter.
    auto Counters = [&](auto Replay) {
      MemoryHierarchy Memory;
      SizeClassAllocator Jemalloc;
      Runtime RT(P, Jemalloc);
      RT.setMemory(&Memory);
      Replay(RT);
      const MemoryCounters C = Memory.counters();
      return std::make_tuple(RT.timing().totalCycles(), C.Accesses,
                             C.L1Misses, C.L2Misses, C.L3Misses, C.TlbMisses,
                             C.StallCycles);
    };
    auto Oracle = Counters([&](Runtime &RT) { RT.replay(InRam); });
    if (Counters([&](Runtime &RT) { RT.replay(Mapped); }) != Oracle) {
      std::fprintf(stderr, "FATAL: mapped replay diverged from in-RAM\n");
      return 1;
    }
    auto Push = [&](const std::string &Bench, double WallMs, int RowTrials,
                    uint64_t RssKb) {
      char Line[256];
      int N = std::snprintf(
          Line, sizeof(Line),
          "  {\"bench\": \"%s\", \"nodes\": %llu, \"edges\": %llu, "
          "\"wall_ms\": %.3f, \"trials\": %d, \"rss_kb\": %llu}",
          Bench.c_str(), static_cast<unsigned long long>(Events),
          static_cast<unsigned long long>(FileBytes), WallMs, RowTrials,
          static_cast<unsigned long long>(RssKb));
      if (N < 0 || N >= static_cast<int>(sizeof(Line))) {
        std::fprintf(stderr, "bench row for %s too long\n", Bench.c_str());
        std::exit(1);
      }
      ExtraRows.push_back(Line);
    };
    Push("trace_stream_record", RecordMs, 1, RecordRss);
    Push("trace_stream_replay_mapped", MappedMs, Trials, MappedRss);
    Push("trace_stream_replay_ram", RamMs, Trials, RamRss);

    std::printf(
        "out-of-core (%llu events, %llu raw -> %llu disk bytes, %zu "
        "blocks):\n"
        "         record-to-disk %8.2f ms (%5.1f M ev/s), peak rss %llu KiB\n"
        "         mapped replay  %8.2f ms (%5.1f M ev/s), peak rss %llu KiB\n"
        "         in-RAM replay  %8.2f ms (%5.1f M ev/s), peak rss %llu "
        "KiB\n\n",
        static_cast<unsigned long long>(Events),
        static_cast<unsigned long long>(RawBytes),
        static_cast<unsigned long long>(FileBytes), Mapped.numBlocks(),
        RecordMs, static_cast<double>(Events) / RecordMs / 1e3,
        static_cast<unsigned long long>(RecordRss), MappedMs,
        static_cast<double>(Events) / MappedMs / 1e3,
        static_cast<unsigned long long>(MappedRss), RamMs,
        static_cast<double>(Events) / RamMs / 1e3,
        static_cast<unsigned long long>(RamRss));
  }

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
  // benchmark, the pre-trace way (direct execution, serial) vs the trace
  // way (one plan: per-seed recordings shared by all kinds, then every
  // trial replayed across the pool). Pipeline artifacts are materialised
  // up front on both sides so the rows compare pure measurement.
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

    Evaluation TraceEval(paperSetup(Name));
    TraceEval.haloArtifacts();
    TraceEval.hdsArtifacts();
    double TraceStart = nowMs();
    ExperimentSpec Spec;
    Spec.Benchmarks = {Name};
    Spec.Kinds.assign(std::begin(SweepKinds), std::end(SweepKinds));
    Spec.S = Scale::Ref;
    Spec.Trials = Trials;
    ExperimentPlan Plan = buildPlan({Spec}, {&TraceEval});
    ResultSet Results = runPlan(Plan, /*Jobs=*/0);
    for (const ResultSet::Cell &Cell : Results.cells())
      for (const RunMetrics &M : Cell.Runs)
        Guard += M.Cycles;
    double TraceMs = nowMs() - TraceStart;
    if (Guard == 0)
      return 1;

    uint64_t SweepRuns = static_cast<uint64_t>(Kinds) * Trials;
    Rows.push_back({"sweep_direct_serial", SweepRuns,
                    static_cast<uint64_t>(Kinds), DirectMs, Trials});
    Rows.push_back({"sweep_trace_parallel", SweepRuns,
                    static_cast<uint64_t>(Kinds), TraceMs, Trials});
    std::printf("\nsweep (%s, %d kinds x %d trials): direct serial "
                "%8.2f ms, shared-trace parallel %8.2f ms  (%.2fx)\n",
                Name.c_str(), Kinds, Trials, DirectMs, TraceMs,
                DirectMs / std::max(TraceMs, 1e-6));
  }

  writeJson(OutPath, Rows, ExtraRows, Append);
  std::printf("\n%s %s (%zu rows)\n", Append ? "appended to" : "wrote",
              OutPath.c_str(), Rows.size() + ExtraRows.size());
  return 0;
}
