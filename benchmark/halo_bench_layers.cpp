//===- benchmark/halo_bench_layers.cpp - Traced per-layer run -------------===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
//
// The traced run of the repository benchmark (run.sh --trace 1). For one
// workload it calls each layer's public functions from this file, records a
// span around every call, and reports the per-layer metrics of
// BENCHMARK.json:
//
//   1. probes: for every benchmark of the workload, on the workload's scale
//      and seed -- trace recording and block decode, the HALO pipeline
//      decomposed into profile (Runtime::replay + HeapProfiler), graph
//      (buildAdjacency), group (buildGroups), identify (identifyGroups) and
//      core (InstrumentationPlan + compileSelector), the HDS pipeline, the
//      artifact store's put/get/load, measurement replay against direct
//      execution, and the simulator's ns/access on a captured stream;
//   2. the workload's request shape re-enacted in process: its plans driven
//      through PlanExecution::next()/run() from one thread per core, once
//      with spans off and once with spans on (the tracing overhead);
//   3. an in-process daemon serving two small-plan clients and one
//      big-plan client (admission, first cell, cell gaps, codec cost).
//
// Checks: the decomposed pipeline serializes byte-identical to
// optimizeBinary, replay equals direct execution, every plan completes, and
// the top-level spans cover at least 95% of the traced wall time. The spans
// are written as Chrome trace-event JSON (build-bench/trace-<workload>.json,
// loads in Perfetto or chrome://tracing) beside a per-layer self-time table.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "core/Pipeline.h"
#include "eval/Evaluation.h"
#include "eval/Experiment.h"
#include "graph/Adjacency.h"
#include "hds/HdsPipeline.h"
#include "mem/SizeClassAllocator.h"
#include "profile/HeapProfiler.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "sim/Machine.h"
#include "sim/MemoryHierarchy.h"
#include "store/ArtifactStore.h"
#include "support/BinaryIO.h"
#include "support/Executor.h"
#include "trace/EventTrace.h"
#include "trace/TraceFile.h"
#include "workloads/Workload.h"

#include <atomic>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

namespace fs = std::filesystem;
using namespace bench;
using namespace halo;

namespace {

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

struct SpanRecord {
  const char *Name;
  const char *Cat;
  std::string Args; ///< Body of a JSON object, e.g. "\"bench\": \"ft\"".
  Clock::time_point Begin, End;
  uint32_t Depth; ///< 0 = top level on its thread.
};

/// Per-thread append-only span buffers. Off by default; turning it on is
/// the only difference between the traced and untraced passes.
class SpanLog {
public:
  struct ThreadSpans {
    uint32_t Tid = 0;
    uint32_t Depth = 0;
    std::vector<SpanRecord> Spans;
  };

  static SpanLog &get() {
    static SpanLog Log;
    return Log;
  }

  std::atomic<bool> On{false};
  const Clock::time_point Origin = Clock::now();

  ThreadSpans &local() {
    thread_local ThreadSpans *Mine = nullptr;
    if (!Mine) {
      std::lock_guard<std::mutex> Lock(Mu);
      Threads.emplace_back();
      Mine = &Threads.back();
      Mine->Tid = static_cast<uint32_t>(Threads.size());
    }
    return *Mine;
  }

  /// Every thread's spans; call once the threads that recorded them ended.
  const std::deque<ThreadSpans> &threads() const { return Threads; }

private:
  std::mutex Mu;
  std::deque<ThreadSpans> Threads; ///< A deque: buffers never move.
};

/// Records one span on this thread while the log is on.
class ScopedSpan {
public:
  ScopedSpan(const char *Name, const char *Cat, std::string Args = {})
      : Name(Name), Cat(Cat), Args(std::move(Args)), Begin(Clock::now()) {
    if (SpanLog::get().On) {
      T = &SpanLog::get().local();
      Depth = T->Depth++;
    }
  }
  ~ScopedSpan() {
    if (!T)
      return;
    --T->Depth;
    T->Spans.push_back({Name, Cat, std::move(Args), Begin, Clock::now(),
                        Depth});
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  double ms() const { return msSince(Begin); }

private:
  const char *Name;
  const char *Cat;
  std::string Args;
  Clock::time_point Begin;
  SpanLog::ThreadSpans *T = nullptr;
  uint32_t Depth = 0;
};

/// Runs \p Fn inside a span and returns its wall time in ms.
template <typename Fn>
double timed(const char *Name, const char *Cat, const std::string &Args,
             const Fn &F) {
  ScopedSpan S(Name, Cat, Args);
  F();
  return S.ms();
}

std::string benchArg(const std::string &Bench) {
  return "\"bench\": \"" + Bench + "\"";
}

/// User+system CPU of this process so far, in ms.
double processCpuMs() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return (U.ru_utime.tv_sec + U.ru_stime.tv_sec) * 1e3 +
         (U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e3;
}

//===----------------------------------------------------------------------===//
// What the layers measured
//===----------------------------------------------------------------------===//

const AllocatorKind AllKinds[] = {AllocatorKind::Jemalloc, AllocatorKind::Hds,
                                  AllocatorKind::Halo};

struct Layers {
  double TraceRecordMs = 0, TraceDecodeMs = 0;
  uint64_t TraceEvents = 0, TraceRawBytes = 0, SavedRawBytes = 0,
           SavedCompBytes = 0, DecodedEvents = 0;
  double ProfileMs = 0;
  uint64_t ProfileAccesses = 0;
  double HdsMs = 0;
  uint64_t HdsGroups = 0;
  double GraphMs = 0;
  uint64_t GraphNodes = 0, GraphEdges = 0;
  double GroupMs = 0;
  uint64_t Groups = 0;
  double IdentifyMs = 0;
  uint64_t Sites = 0;
  double CoreMs = 0;
  uint64_t GroupedAllocs = 0;
  double ReplayMs = 0, DirectMs = 0;
  uint64_t ReplayEvents = 0;
  std::vector<MemAccess> SimStream;
  uint64_t Cycles[3] = {}, L1Misses[3] = {}, TlbMisses[3] = {};
  double StoreGetMs = 0, StorePutMs = 0, StoreLoadMs = 0;
  uint64_t BytesRead = 0, BytesWritten = 0, StoreHits = 0, StoreMisses = 0;
  double BuildPlanMs = 0;
  uint64_t Tasks[4] = {};
  double StageMs[4] = {};
  double PlanCpuMs = 0, PlanWallMs = 0, BarrierWaitMs = 0;
  std::vector<double> Admission, FirstCell, CellGap;
  double EncodeNsPerCell = 0, DecodeNsPerCell = 0, DaemonBusyFrac = 0;
  uint64_t TasksExecuted = 0;
  double Coverage = 0, Overhead = 0;
};

/// Captures the access stream of a replay (capped), for the simulator probe.
class AccessCapture final : public RuntimeObserver {
public:
  AccessCapture(std::vector<MemAccess> &Out, size_t Cap)
      : Out(Out), Cap(Cap) {}
  void onAccess(uint64_t Addr, uint64_t Size, bool IsStore) override {
    if (Out.size() < Cap)
      Out.push_back({Addr, static_cast<uint32_t>(Size), IsStore ? 1u : 0u});
  }
  void onAccessBatch(const MemAccess *Batch, size_t N) override {
    size_t Room = Cap - std::min(Cap, Out.size());
    Out.insert(Out.end(), Batch, Batch + std::min(N, Room));
  }

private:
  std::vector<MemAccess> &Out;
  size_t Cap;
};

/// Accesses each benchmark contributes to the simulator probe's stream.
constexpr size_t SimAccessesPerBenchmark = 300000;

//===----------------------------------------------------------------------===//
// The traced run
//===----------------------------------------------------------------------===//

class LayerRun {
public:
  LayerRun(const Options &Opts, const std::string &Name)
      : Opts(Opts), Name(Name), Benches(workloadNames()),
        S(Name == "matrix_cold_test" ? Scale::Test : Scale::Ref),
        // `halo_cli run` always measures the paper's seed base.
        Seed(Name == "cli_run" ? 100 : seedBase(Opts.Seed)),
        Workers(std::max(1u, std::thread::hardware_concurrency())) {
    Shuffler Order(Opts.Seed);
    Order.shuffle(Benches);
    if (Name == "cli_run")
      Kinds = {AllocatorKind::Halo};
    else
      Kinds.assign(std::begin(AllKinds), std::end(AllKinds));
  }

  RunResult run() {
    // Traced windows: the probes, then (after the untraced pass) the
    // traced re-enactment and the serve probe.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> Windows;
    SpanLog::get().On = true;
    Windows.emplace_back(Clock::now(), Clock::now());
    {
      ScopedSpan Top("probes", "probe");
      for (const std::string &B : Benches)
        probe(B);
      simProbe();
    }
    Windows.back().second = Clock::now();
    SpanLog::get().On = false;

    // The same work untraced, then traced, both after the probes warmed
    // every benchmark up: the difference is the cost of recording spans.
    prepareReenactment();
    double UntracedMs = reenact(/*Traced=*/false);
    SpanLog::get().On = true;
    Windows.emplace_back(Clock::now(), Clock::now());
    double TracedMs = reenact(/*Traced=*/true);
    serveProbe();
    Windows.back().second = Clock::now();
    SpanLog::get().On = false;

    L.Overhead = TracedMs / UntracedMs - 1.0;
    double WindowMs = 0;
    for (const auto &W : Windows)
      WindowMs += msBetween(W.first, W.second);
    L.Coverage = topLevelCoverageMs(Windows) / WindowMs;
    check(L.Coverage >= 0.95, "top-level spans cover " +
                                  std::to_string(L.Coverage) +
                                  " of the traced wall (< 0.95)");
    return result(UntracedMs, TracedMs, WindowMs);
  }

private:
  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      Problems.push_back(What);
    }
  }

  //===------------------------------------------------------------------===//
  // 1. Probes
  //===------------------------------------------------------------------===//

  EventTrace record(Workload &W, const Program &Prog, Scale Sc,
                    uint64_t RunSeed) {
    EventTrace T;
    RecordingArena Arena;
    Runtime RT(Prog, Arena);
    TraceRecorder Recorder(T, Arena);
    RT.addObserver(&Recorder);
    W.run(RT, Sc, RunSeed);
    return T;
  }

  void probe(const std::string &B) {
    ScopedSpan Top("probe", "probe", benchArg(B));
    std::string Arg = benchArg(B);
    std::unique_ptr<Workload> W = createWorkload(B);
    Program Prog;
    W->build(Prog);
    BenchmarkSetup Setup = paperSetup(B);

    // trace: the measurement input and the (test-scale) profile input.
    EventTrace Meas, Prof;
    L.TraceRecordMs += timed("trace.record", "trace", Arg,
                             [&] { Meas = record(*W, Prog, S, Seed); });
    L.TraceRecordMs += timed("trace.record", "trace", Arg, [&] {
      Prof = record(*W, Prog, Setup.ProfileScale, Setup.ProfileSeed);
    });
    L.TraceEvents += Meas.numEvents() + Prof.numEvents();
    L.TraceRawBytes += Meas.byteSize() + Prof.byteSize();
    BinaryWriter Image;
    Meas.save(Image);
    TraceIndex Idx = parseTraceIndex(Image.buffer().data(), Image.size());
    for (const TraceBlockInfo &Blk : Idx.Blocks) {
      L.SavedRawBytes += Blk.RawBytes;
      L.SavedCompBytes += Blk.CompBytes;
    }
    {
      std::FILE *F = std::fopen("probe.trace", "wb");
      bool Written =
          F && std::fwrite(Image.buffer().data(), 1, Image.size(), F) ==
                   Image.size();
      if ((F && std::fclose(F) != 0) || !Written)
        throw std::runtime_error("cannot write probe.trace");
      MappedTrace Mapped = MappedTrace::open("probe.trace");
      uint64_t Decoded = 0;
      L.TraceDecodeMs += timed("trace.decode", "trace", Arg, [&] {
        MappedTrace::Cursor Cur = Mapped.cursor();
        std::vector<TraceEvent> Buf(4096);
        while (size_t N = Cur.fill(Buf.data(), Buf.size()))
          Decoded += N;
      });
      L.DecodedEvents += Decoded;
      check(Decoded == Meas.numEvents(),
            B + ": the mapped cursor decoded a different event count");
    }

    // The HALO pipeline, one public call per stage, in optimizeBinary's
    // order.
    HaloArtifacts Dec;
    L.ProfileMs += timed("profile", "profile", Arg, [&] {
      SizeClassAllocator ProfileAlloc;
      Runtime RT(Prog, ProfileAlloc, Setup.Machine.Costs);
      HeapProfiler Profiler(Prog, Setup.Halo.Profile);
      RT.addObserver(&Profiler);
      RT.replay(Prof);
      Dec.Graph = Profiler.takeGraph();
      Dec.Contexts = std::move(Profiler.contexts());
      Dec.ProfiledAccesses = Profiler.totalAccesses();
    });
    L.ProfileAccesses += Dec.ProfiledAccesses;
    L.GraphMs += timed("graph.buildAdjacency", "graph", Arg,
                       [&] { Dec.Graph.buildAdjacency(); });
    L.GraphNodes += Dec.Graph.numNodes();
    L.GraphEdges += Dec.Graph.numEdges();
    L.GroupMs += timed("group.buildGroups", "group", Arg, [&] {
      Dec.Groups = buildGroups(Dec.Graph, Setup.Halo.Grouping);
    });
    L.Groups += Dec.Groups.size();
    L.IdentifyMs += timed("identify.identifyGroups", "identify", Arg, [&] {
      Dec.Identification = identifyGroups(Dec.Groups, Dec.Contexts);
    });
    L.Sites += Dec.Identification.Sites.size();
    L.CoreMs += timed("core.plan", "core", Arg, [&] {
      Dec.Plan = InstrumentationPlan(Prog, Dec.Identification.Sites);
      for (const Selector &Sel : Dec.Identification.Selectors)
        Dec.CompiledSelectors.push_back(compileSelector(Sel, Dec.Plan));
    });
    {
      ScopedSpan Check("check.optimizeBinary", "check", Arg);
      BinaryWriter Mine, Theirs;
      saveHaloArtifacts(Dec, Mine);
      saveHaloArtifacts(
          optimizeBinary(Prog, Prof, Setup.Halo, Setup.Machine), Theirs);
      check(Mine.buffer() == Theirs.buffer(),
            B + ": the decomposed pipeline differs from optimizeBinary");
    }
    HdsArtifacts Hds;
    L.HdsMs += timed("hds.optimizeBinaryHds", "hds", Arg, [&] {
      Hds = optimizeBinaryHds(Prog, Prof, Setup.Hds, Setup.Machine);
    });
    L.HdsGroups += Hds.Groups.size();

    storeProbe(B, Prog, Setup, Meas, Dec, Hds);

    // runtime + sim: replay every kind on the default machine through an
    // Evaluation seeded with the probe's own trace and artifacts.
    const MachineConfig &M = defaultMachine();
    Evaluation Eval(Setup);
    const EventTrace &Trace = Eval.addTrace(S, Seed, std::move(Meas));
    Eval.addTrace(Setup.ProfileScale, Setup.ProfileSeed, std::move(Prof));
    Eval.setHaloArtifacts(std::move(Dec));
    Eval.setHdsArtifacts(std::move(Hds));
    RunMetrics Replayed[3];
    for (size_t K = 0; K < 3; ++K) {
      double Ms = timed("runtime.replay", "runtime",
                        Arg + ", \"kind\": \"" +
                            allocatorKindName(AllKinds[K]) + "\"",
                        [&] {
                          Replayed[K] = Eval.measure(M, AllKinds[K], S, Seed);
                        });
      if (K == 0) {
        L.ReplayMs += Ms;
        L.ReplayEvents += Trace.numEvents();
      }
      L.Cycles[K] += Replayed[K].Cycles;
      L.L1Misses[K] += Replayed[K].Mem.L1Misses;
      L.TlbMisses[K] += Replayed[K].Mem.TlbMisses;
    }
    L.GroupedAllocs += Replayed[2].GroupedAllocs;
    RunMetrics Direct;
    L.DirectMs += timed("runtime.measureDirect", "runtime", Arg, [&] {
      Direct = Eval.measureDirect(M, AllocatorKind::Jemalloc, S, Seed);
    });
    const MemoryCounters &D = Direct.Mem, &R = Replayed[0].Mem;
    check(Direct.Cycles == Replayed[0].Cycles && D.Accesses == R.Accesses &&
              D.L1Misses == R.L1Misses && D.L2Misses == R.L2Misses &&
              D.L3Misses == R.L3Misses && D.TlbMisses == R.TlbMisses,
          B + ": replay differs from direct execution");

    ScopedSpan Capture("sim.capture", "sim", Arg);
    std::vector<MemAccess> Stream;
    SizeClassAllocator Jemalloc;
    Runtime RT(Prog, Jemalloc, M.Costs);
    AccessCapture Observer(Stream, SimAccessesPerBenchmark);
    RT.addObserver(&Observer);
    RT.replay(Trace);
    L.SimStream.insert(L.SimStream.end(), Stream.begin(), Stream.end());
  }

  void storeProbe(const std::string &B, const Program &Prog,
                  const BenchmarkSetup &Setup, const EventTrace &Meas,
                  const HaloArtifacts &Dec, const HdsArtifacts &Hds) {
    std::string Arg = benchArg(B);
    fs::remove_all("probe-store");
    ArtifactStore Store("probe-store");
    StoreKey TraceKey = traceStoreKey(B, S, Seed);
    StoreKey HaloKey =
        haloStoreKey(B, Setup.ProfileScale, Setup.ProfileSeed, Setup.Halo);
    StoreKey HdsKey =
        hdsStoreKey(B, Setup.ProfileScale, Setup.ProfileSeed, Setup.Hds);
    bool Put = true;
    L.StorePutMs += timed("store.put", "store", Arg, [&] {
      Put = putTrace(Store, TraceKey, Meas) &&
            putHaloArtifacts(Store, HaloKey, Dec) &&
            putHdsArtifacts(Store, HdsKey, Hds);
    });
    check(Put, B + ": a store put failed");
    for (const fs::directory_entry &E : fs::directory_iterator("probe-store"))
      L.BytesWritten += E.file_size();

    std::optional<std::vector<uint8_t>> Bytes[3];
    L.StoreGetMs += timed("store.get", "store", Arg, [&] {
      Bytes[0] = Store.get(TraceKey);
      Bytes[1] = Store.get(HaloKey);
      Bytes[2] = Store.get(HdsKey);
    });
    bool Ok = Bytes[0] && Bytes[1] && Bytes[2];
    check(Ok, B + ": a store get missed a fresh entry");
    if (!Ok)
      return;
    for (const auto &P : Bytes)
      L.BytesRead += P->size();
    L.StoreLoadMs += timed("store.load", "store", Arg, [&] {
      BinaryReader TR(Bytes[0]->data(), Bytes[0]->size());
      EventTrace::load(TR);
      BinaryReader HR(Bytes[1]->data(), Bytes[1]->size());
      loadHaloArtifacts(HR, Prog);
      BinaryReader DR(Bytes[2]->data(), Bytes[2]->size());
      loadHdsArtifacts(DR);
    });
    fs::remove_all("probe-store");
  }

  /// ns per access of MemoryHierarchy::accessBatch on every machine, over
  /// the stream the probes captured (median of three passes each).
  void simProbe() {
    for (const MachineConfig &M : machinePresets()) {
      std::vector<double> Ns;
      for (int Pass = 0; Pass < 3; ++Pass) {
        MemoryHierarchy H(M.Hierarchy);
        double Ms = timed("sim.accessBatch", "sim",
                          "\"machine\": \"" + M.Name + "\"", [&] {
                            const std::vector<MemAccess> &A = L.SimStream;
                            for (size_t I = 0; I < A.size(); I += 512)
                              H.accessBatch(A.data() + I,
                                            std::min<size_t>(512, A.size() - I));
                          });
        Ns.push_back(Ms * 1e6 / static_cast<double>(L.SimStream.size()));
      }
      SimNs[M.Name] = median(Ns);
    }
  }

  //===------------------------------------------------------------------===//
  // 2. The workload's request shape, re-enacted through PlanExecution
  //===------------------------------------------------------------------===//

  ExperimentSpec spec(std::vector<std::string> Bs,
                      std::vector<const MachineConfig *> Ms, int Trials) {
    ExperimentSpec Spec;
    Spec.Benchmarks = std::move(Bs);
    Spec.Machines = std::move(Ms);
    Spec.Kinds = Kinds;
    Spec.S = S;
    Spec.Trials = Trials;
    Spec.SeedBase = Seed;
    return Spec;
  }

  /// Set-up the re-enactment needs and neither pass times: the populated
  /// store of matrix_warm, the warm evaluations of serve_mixed, and for
  /// matrix_cold_test one discarded pass (its first pass in a process runs
  /// about twice as long as later ones, which would read as a negative
  /// tracing overhead).
  void prepareReenactment() {
    if (Name == "matrix_cold_test") {
      reenact(/*Traced=*/false);
    } else if (Name == "matrix_warm") {
      fs::remove_all("reenact-store");
      WarmStore = std::make_unique<ArtifactStore>("reenact-store");
      ExperimentSpec Populate = spec(Benches, {}, 1);
      Populate.Kinds = {AllocatorKind::Hds, AllocatorKind::Halo};
      ExperimentPlan Plan = buildPlan({Populate}, {}, WarmStore.get());
      runPlan(Plan);
    } else if (Name == "serve_mixed") {
      for (const std::string &B : Benches)
        WarmEvals.push_back(std::make_unique<Evaluation>(paperSetup(B)));
      std::vector<Evaluation *> External;
      for (auto &E : WarmEvals)
        External.push_back(E.get());
      ExperimentPlan Plan = buildPlan({spec(Benches, {}, 1)}, External);
      runPlan(Plan);
    }
  }

  /// Runs the workload's plans once; returns the wall time in ms. Only the
  /// traced pass records the eval and store metrics.
  double reenact(bool Traced) {
    ScopedSpan Top("reenact", "eval",
                   "\"workload\": \"" + Name + "\"");
    std::vector<std::pair<ExperimentSpec, ArtifactStore *>> Plans;
    std::unique_ptr<ArtifactStore> ColdStore;
    std::vector<Evaluation *> External;
    if (Name == "cli_run") {
      for (const std::string &B : Benches)
        Plans.emplace_back(spec({B}, {}, 1), nullptr);
    } else if (Name == "matrix_cold_test") {
      fs::remove_all("reenact-cold");
      ColdStore = std::make_unique<ArtifactStore>("reenact-cold");
      Plans.emplace_back(spec(Benches, {}, 3), ColdStore.get());
    } else if (Name == "matrix_warm") {
      for (const MachineConfig &M : machinePresets())
        Plans.emplace_back(spec(Benches, {&M}, 1), WarmStore.get());
    } else {
      Plans.emplace_back(spec(Benches, {&defaultMachine()}, 1), nullptr);
      for (auto &E : WarmEvals)
        External.push_back(E.get());
    }
    for (auto &P : Plans) {
      ExperimentPlan Plan;
      double BuildMs = timed("eval.buildPlan", "eval", "", [&] {
        Plan = buildPlan({P.first}, External, P.second);
      });
      if (Traced) {
        L.BuildPlanMs += BuildMs;
        if (Plan.store()) {
          L.StoreHits += Plan.numStoredRecordings() +
                         Plan.numStoredArtifacts();
          L.StoreMisses += Plan.numRecordings() + Plan.numArtifactTasks() +
                           Plan.numProfileRecordings();
        }
      }
      drive(Plan, Traced);
    }
    if (ColdStore)
      fs::remove_all("reenact-cold");
    return Top.ms();
  }

  /// Drives one plan stage by stage, like runPlan: a stage with at least
  /// one task per worker fans out over one thread per core, each calling
  /// next()/run() until the barrier; a smaller artifact or replay stage is
  /// walked on this thread with the pool nested into each task.
  void drive(ExperimentPlan &Plan, bool Traced) {
    PlanExecution Exec(Plan);
    size_t PerStage[4] = {};
    for (size_t T = 0; T < Exec.numTasks(); ++T)
      ++PerStage[Exec.stage(T)];
    Executor Nested(static_cast<int>(Workers));
    double CpuStart = processCpuMs();
    Clock::time_point Start = Clock::now();
    double BarrierMs = 0;
    // Claims and runs one task of the current stage. Every stage's tasks
    // are claimable together once the previous stage retired, so a ticket
    // below the stage's task count always gets one of them (and never a
    // task of the next stage). A failed task fails the plan; the check
    // below reports it.
    std::atomic<size_t> Tickets{0};
    auto RunNext = [&](unsigned Stage, Executor *Pool) {
      if (Tickets.fetch_add(1) >= PerStage[Stage])
        return false;
      std::optional<size_t> T = Exec.next();
      if (!T)
        return false;
      ScopedSpan Task("eval.task", "eval",
                      "\"stage\": " + std::to_string(Stage) +
                          ", \"task\": " + std::to_string(*T));
      try {
        Exec.run(*T, Pool);
      } catch (...) {
      }
      return true;
    };
    for (unsigned Stage = 0; Stage < 4; ++Stage) {
      ScopedSpan StageSpan("eval.stage", "eval",
                           "\"stage\": " + std::to_string(Stage));
      Tickets = 0;
      bool Serial = (Stage == 1 || Stage == 3) && PerStage[Stage] < Workers;
      if (Serial) {
        while (RunNext(Stage, &Nested))
          ;
      } else if (PerStage[Stage]) {
        std::vector<Clock::time_point> Done(Workers);
        std::vector<std::thread> Threads;
        for (unsigned W = 0; W < Workers; ++W)
          Threads.emplace_back([&, W] {
            while (RunNext(Stage, nullptr))
              ;
            Done[W] = Clock::now();
          });
        for (std::thread &Th : Threads)
          Th.join();
        Clock::time_point End = Clock::now();
        for (Clock::time_point D : Done)
          BarrierMs += msBetween(D, End);
      }
      if (Traced) {
        L.Tasks[Stage] += PerStage[Stage];
        L.StageMs[Stage] += StageSpan.ms();
      }
    }
    check(Exec.finished() && !Exec.failed(),
          "plan did not complete: " + Exec.failureMessage());
    if (Traced) {
      L.PlanWallMs += msSince(Start);
      L.PlanCpuMs += processCpuMs() - CpuStart;
      L.BarrierWaitMs += BarrierMs;
    }
  }

  //===------------------------------------------------------------------===//
  // 3. An in-process daemon
  //===------------------------------------------------------------------===//

  void serveProbe() {
    ScopedSpan Top("serve", "serve");
    fs::remove_all("serve-store");
    DaemonConfig Config;
    Config.SocketPath = "layers.sock";
    Config.StoreDir = "serve-store";
    HaloDaemon Daemon(Config);
    std::thread Server([&] {
      try {
        Daemon.serve();
      } catch (const std::exception &E) {
        std::fprintf(stderr, "halo_bench_layers: daemon: %s\n", E.what());
      }
    });
    struct Joiner {
      HaloDaemon &D;
      std::thread &T;
      ~Joiner() {
        D.requestShutdown();
        T.join();
      }
    } Join{Daemon, Server};

    auto Connect = [&] {
      Clock::time_point T0 = Clock::now();
      for (;;) {
        try {
          return HaloClient(Config.SocketPath);
        } catch (const std::exception &) {
          if (msSince(T0) > 60000)
            throw;
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
    };
    auto Request = [&](std::vector<std::string> Bs, const std::string &M) {
      PlanRequest R;
      R.Benchmarks = std::move(Bs);
      R.Machines = {M};
      R.Kinds = Kinds;
      R.S = S;
      R.Trials = 1;
      R.SeedBase = Seed;
      return R;
    };

    HaloClient Control = Connect();
    {
      ScopedSpan Warm("serve.warm", "serve");
      PlanOutcome O = Control.wait(
          Control.submit(Request(Benches, defaultMachine().Name)));
      check(O.Status == PlanStatus::Ok, "serve warm-up plan: " + O.Message);
    }

    // One small plan per benchmark across two clients, the big plan on a
    // third, as serve_mixed does.
    std::mutex Mu;
    std::vector<CellResultMsg> Cells;
    std::atomic<size_t> Next{0};
    std::atomic<bool> SmallDone{false};
    const std::vector<std::string> &Ms = machineNames();
    auto Small = [&] {
      HaloClient C = Connect();
      for (size_t I; (I = Next.fetch_add(1)) < Benches.size();) {
        ScopedSpan Plan("serve.small_plan", "serve", benchArg(Benches[I]));
        Clock::time_point T0 = Clock::now();
        double Admission, First = -1;
        Clock::time_point Last = T0;
        std::vector<double> Gaps;
        uint64_t Id;
        {
          ScopedSpan Submit("serve.submit", "serve");
          Id = C.submit(Request({Benches[I]}, Ms[I % Ms.size()]));
          Admission = Submit.ms();
        }
        PlanOutcome O = C.wait(Id, [&](const CellResultMsg &M) {
          Clock::time_point Now = Clock::now();
          if (First < 0)
            First = msBetween(T0, Now);
          else
            Gaps.push_back(msBetween(Last, Now));
          Last = Now;
          std::lock_guard<std::mutex> Lock(Mu);
          Cells.push_back(M);
        });
        std::lock_guard<std::mutex> Lock(Mu);
        check(O.Status == PlanStatus::Ok, "small plan: " + O.Message);
        L.Admission.push_back(Admission);
        L.FirstCell.push_back(First);
        L.CellGap.insert(L.CellGap.end(), Gaps.begin(), Gaps.end());
      }
    };
    auto Big = [&] {
      HaloClient C = Connect();
      for (size_t K = 0; !SmallDone; ++K) {
        ScopedSpan Plan("serve.big_plan", "serve");
        Clock::time_point Last = Clock::now();
        bool Started = false, Cancelled = false;
        std::vector<double> Gaps;
        uint64_t Id = C.submit(Request(Benches, Ms[K % Ms.size()]));
        PlanOutcome O = C.wait(Id, [&](const CellResultMsg &M) {
          Clock::time_point Now = Clock::now();
          if (Started)
            Gaps.push_back(msBetween(Last, Now));
          Started = true;
          Last = Now;
          if (SmallDone && !Cancelled) {
            C.cancel(Id);
            Cancelled = true;
          }
          std::lock_guard<std::mutex> Lock(Mu);
          Cells.push_back(M);
        });
        std::lock_guard<std::mutex> Lock(Mu);
        check(O.Status == PlanStatus::Ok ||
                  (O.Status == PlanStatus::Cancelled && Cancelled),
              "big plan: " + O.Message);
        L.CellGap.insert(L.CellGap.end(), Gaps.begin(), Gaps.end());
      }
    };

    uint64_t TasksBefore = Control.stats().TasksExecuted;
    double CpuStart = processCpuMs();
    Clock::time_point T0 = Clock::now();
    {
      ScopedSpan Clients("serve.clients", "serve");
      std::thread BigT(Big), A(Small), B(Small);
      A.join();
      B.join();
      SmallDone = true;
      BigT.join();
    }
    double WallMs = msSince(T0);
    L.DaemonBusyFrac =
        (processCpuMs() - CpuStart) / (WallMs * static_cast<double>(Workers));
    L.TasksExecuted = Control.stats().TasksExecuted - TasksBefore;

    // The protocol's cell codec, over every cell that streamed.
    ScopedSpan Codec("serve.codec", "serve");
    constexpr int Reps = 200;
    std::vector<std::vector<uint8_t>> Encoded(Cells.size());
    Clock::time_point E0 = Clock::now();
    for (int R = 0; R < Reps; ++R)
      for (size_t I = 0; I < Cells.size(); ++I)
        Encoded[I] = encodeCellResult(Cells[I]);
    double EncodeMs = msSince(E0);
    Clock::time_point D0 = Clock::now();
    bool RoundTrip = true;
    for (int R = 0; R < Reps; ++R)
      for (size_t I = 0; I < Cells.size(); ++I)
        RoundTrip &= decodeCellResult(Encoded[I]).CellIndex ==
                     Cells[I].CellIndex;
    double DecodeMs = msSince(D0);
    check(RoundTrip && !Cells.empty(), "cell codec round trip");
    double PerCell = 1e6 / (Reps * static_cast<double>(std::max<size_t>(
                                       Cells.size(), 1)));
    L.EncodeNsPerCell = EncodeMs * PerCell;
    L.DecodeNsPerCell = DecodeMs * PerCell;
  }

  //===------------------------------------------------------------------===//
  // Output
  //===------------------------------------------------------------------===//

  /// The time inside \p Windows (disjoint, in order) that some top-level
  /// span covers, in ms.
  double topLevelCoverageMs(
      const std::vector<std::pair<Clock::time_point, Clock::time_point>>
          &Windows) {
    std::vector<std::pair<Clock::time_point, Clock::time_point>> Ivs;
    for (const SpanLog::ThreadSpans &T : SpanLog::get().threads())
      for (const SpanRecord &S : T.Spans)
        if (S.Depth == 0)
          for (const auto &W : Windows)
            if (S.End > W.first && S.Begin < W.second)
              Ivs.emplace_back(std::max(S.Begin, W.first),
                               std::min(S.End, W.second));
    std::sort(Ivs.begin(), Ivs.end());
    double Covered = 0;
    Clock::time_point Reach = Windows.front().first;
    for (const auto &Iv : Ivs) {
      Clock::time_point From = std::max(Iv.first, Reach);
      if (Iv.second > From) {
        Covered += msBetween(From, Iv.second);
        Reach = Iv.second;
      }
    }
    return Covered;
  }

  /// Writes every span as Chrome trace-event JSON and returns the per-span
  /// table rows: name, count, total ms, self ms (minus direct children).
  std::vector<std::string> writeTrace(const std::string &Path) {
    const Clock::time_point Origin = SpanLog::get().Origin;
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      throw std::runtime_error("cannot write " + Path);
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", F);
    struct Agg {
      size_t Count = 0;
      double TotalMs = 0, SelfMs = 0;
    };
    std::map<std::string, Agg> Table;
    bool First = true;
    for (const SpanLog::ThreadSpans &T : SpanLog::get().threads()) {
      std::vector<const SpanRecord *> Sorted;
      for (const SpanRecord &S : T.Spans)
        Sorted.push_back(&S);
      std::sort(Sorted.begin(), Sorted.end(),
                [](const SpanRecord *A, const SpanRecord *B) {
                  return A->Begin != B->Begin ? A->Begin < B->Begin
                                              : A->End > B->End;
                });
      std::vector<std::pair<const SpanRecord *, double>> Stack;
      std::map<const SpanRecord *, double> ChildMs;
      for (const SpanRecord *S : Sorted) {
        while (!Stack.empty() && Stack.back().first->End <= S->Begin)
          Stack.pop_back();
        double Ms = msBetween(S->Begin, S->End);
        if (!Stack.empty())
          ChildMs[Stack.back().first] += Ms;
        Stack.emplace_back(S, Ms);
        std::fprintf(F,
                     "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {%s}}",
                     First ? "" : ",\n", S->Name, S->Cat, T.Tid,
                     msBetween(Origin, S->Begin) * 1e3, Ms * 1e3,
                     S->Args.c_str());
        First = false;
      }
      for (const SpanRecord *S : Sorted) {
        Agg &A = Table[S->Name];
        double Ms = msBetween(S->Begin, S->End);
        ++A.Count;
        A.TotalMs += Ms;
        A.SelfMs += Ms - ChildMs[S];
      }
    }
    std::fputs("\n]}\n", F);
    if (std::fclose(F) != 0)
      throw std::runtime_error("cannot write " + Path);
    std::vector<std::string> Rows = {
        "span                           count    total ms     self ms"};
    char Buf[160];
    for (const auto &Entry : Table) {
      std::snprintf(Buf, sizeof(Buf), "%-28s %7zu %11.3f %11.3f",
                    Entry.first.c_str(), Entry.second.Count,
                    Entry.second.TotalMs, Entry.second.SelfMs);
      Rows.push_back(Buf);
    }
    return Rows;
  }

  RunResult result(double UntracedMs, double TracedMs, double WindowMs) {
    auto Per = [](double Ms, uint64_t N) {
      return N ? Ms * 1e6 / static_cast<double>(N) : 0.0;
    };
    RunResult R;
    R.Workload = Name;
    std::vector<Metric> &M = R.Metrics;
    M = {
        {"trace.record_ms", "ms", L.TraceRecordMs, 0},
        {"trace.record_ns_per_event", "ns/event",
         Per(L.TraceRecordMs, L.TraceEvents), 0},
        {"trace.events", "count", static_cast<double>(L.TraceEvents), 0},
        {"trace.raw_bytes", "bytes", static_cast<double>(L.TraceRawBytes), 0},
        {"trace.lz_ratio", "ratio",
         static_cast<double>(L.SavedRawBytes) /
             static_cast<double>(std::max<uint64_t>(L.SavedCompBytes, 1)),
         0},
        {"trace.decode_ns_per_event", "ns/event",
         Per(L.TraceDecodeMs, L.DecodedEvents), 0},
        {"profile.ms", "ms", L.ProfileMs, 0},
        {"profile.ns_per_access", "ns/access",
         Per(L.ProfileMs, L.ProfileAccesses), 0},
        {"profile.accesses", "count", static_cast<double>(L.ProfileAccesses),
         0},
        {"hds.ms", "ms", L.HdsMs, 0},
        {"hds.groups", "count", static_cast<double>(L.HdsGroups), 0},
        {"graph.ms", "ms", L.GraphMs, 0},
        {"graph.nodes", "count", static_cast<double>(L.GraphNodes), 0},
        {"graph.edges", "count", static_cast<double>(L.GraphEdges), 0},
        {"group.ms", "ms", L.GroupMs, 0},
        {"group.groups", "count", static_cast<double>(L.Groups), 0},
        {"identify.ms", "ms", L.IdentifyMs, 0},
        {"identify.sites", "count", static_cast<double>(L.Sites), 0},
        {"core.plan_ms", "ms", L.CoreMs, 0},
        {"core.grouped_allocs", "count", static_cast<double>(L.GroupedAllocs),
         0},
        {"runtime.replay_ms", "ms", L.ReplayMs, 0},
        {"runtime.replay_ns_per_event", "ns/event",
         Per(L.ReplayMs, L.ReplayEvents), 0},
        {"runtime.direct_ns_per_event", "ns/event",
         Per(L.DirectMs, L.ReplayEvents), 0},
        {"runtime.replay_vs_direct", "ratio", L.ReplayMs / L.DirectMs, 0},
    };
    for (const std::string &Name : machineNames())
      M.push_back({"sim.ns_per_access." + Name, "ns/access", SimNs[Name], 3});
    M.push_back({"sim.accesses", "count",
                 static_cast<double>(L.SimStream.size()), 0});
    const char *Counter[3] = {"cycles", "l1d_misses", "tlb_misses"};
    const uint64_t *Values[3] = {L.Cycles, L.L1Misses, L.TlbMisses};
    for (int C = 0; C < 3; ++C)
      for (size_t K = 0; K < 3; ++K)
        M.push_back({std::string("sim.") + Counter[C] + "." +
                         allocatorKindName(AllKinds[K]),
                     "count", static_cast<double>(Values[C][K]), 0});
    uint64_t Lookups = L.StoreHits + L.StoreMisses;
    std::vector<Metric> Rest = {
        {"store.get_ms", "ms", L.StoreGetMs, 0},
        {"store.put_ms", "ms", L.StorePutMs, 0},
        {"store.load_ms", "ms", L.StoreLoadMs, 0},
        {"store.bytes_read", "bytes", static_cast<double>(L.BytesRead), 0},
        {"store.bytes_written", "bytes", static_cast<double>(L.BytesWritten),
         0},
        {"store.hits", "count", static_cast<double>(L.StoreHits), 0},
        {"store.misses", "count", static_cast<double>(L.StoreMisses), 0},
        {"store.hit_ratio", "ratio",
         Lookups ? static_cast<double>(L.StoreHits) / Lookups : 0.0, Lookups},
        {"eval.build_plan_ms", "ms", L.BuildPlanMs, 0},
    };
    M.insert(M.end(), Rest.begin(), Rest.end());
    for (int S = 0; S < 4; ++S)
      M.push_back({"eval.tasks.stage" + std::to_string(S), "count",
                   static_cast<double>(L.Tasks[S]), 0});
    for (int S = 0; S < 4; ++S)
      M.push_back({"eval.stage_ms.stage" + std::to_string(S), "ms",
                   L.StageMs[S], 0});
    Rest = {
        {"eval.busy_frac", "ratio",
         L.PlanCpuMs / (L.PlanWallMs * static_cast<double>(Workers)), 0},
        {"eval.barrier_wait_ms", "ms", L.BarrierWaitMs, 0},
        {"serve.admission_ms", "ms", median(L.Admission), L.Admission.size()},
        {"serve.first_cell_ms", "ms", median(L.FirstCell),
         L.FirstCell.size()},
        {"serve.cell_gap_ms", "ms", median(L.CellGap), L.CellGap.size()},
        {"serve.encode_ns_per_cell", "ns/cell", L.EncodeNsPerCell, 0},
        {"serve.decode_ns_per_cell", "ns/cell", L.DecodeNsPerCell, 0},
        {"serve.daemon_busy_frac", "ratio", L.DaemonBusyFrac, 0},
        {"serve.tasks_executed", "count", static_cast<double>(L.TasksExecuted),
         0},
        {"spans.coverage_frac", "ratio", L.Coverage, 0},
        {"spans.overhead_frac", "ratio", L.Overhead, 0},
    };
    M.insert(M.end(), Rest.begin(), Rest.end());

    std::string TracePath =
        (fs::path(Opts.WorkDir).parent_path() / ("trace-" + Name + ".json"))
            .string();
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "seed %llu, traced wall %.1f ms, re-enactment %.1f ms "
                  "untraced vs %.1f ms traced; host_cores %u, build %s, rev "
                  "%s; spans -> %s",
                  (unsigned long long)Opts.Seed, WindowMs, UntracedMs,
                  TracedMs, Workers, HALO_BENCH_BUILD_TYPE, Opts.Rev.c_str(),
                  TracePath.c_str());
    R.Notes.push_back(Buf);
    for (const std::string &Row : writeTrace(TracePath))
      R.Notes.push_back(Row);
    for (const std::string &P : Problems)
      R.Notes.push_back("FAILED: " + P);
    R.Attempted = Attempted;
    R.Failed = Failed;
    R.Correct = Failed == 0;
    return R;
  }

  const Options &Opts;
  std::string Name; ///< The workload.
  std::vector<std::string> Benches;
  Scale S;
  uint64_t Seed;
  unsigned Workers;
  std::vector<AllocatorKind> Kinds;
  Layers L;
  std::map<std::string, double> SimNs;
  std::unique_ptr<ArtifactStore> WarmStore;
  std::vector<std::unique_ptr<Evaluation>> WarmEvals;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Problems;
};

} // namespace

int main(int Argc, char **Argv) {
  Options Opts = parseOptions(Argc, Argv);
  if (Opts.SelfTest) {
    int Failures = selfTestCommon();
    std::printf("self-test: %s\n", Failures ? "FAILED" : "ok");
    return Failures ? 1 : 0;
  }
  if (Opts.Workloads.size() != 1)
    usageError(Argv[0], "the traced run takes exactly one --workload");
  Opts.WorkDir = fs::absolute(Opts.WorkDir).string();
  fs::path Start = fs::current_path();
  fs::path Work =
      fs::path(Opts.WorkDir) / ("layers-" + std::to_string(getpid()));
  std::string OutPath =
      Opts.OutPath.empty() ? "" : fs::absolute(Opts.OutPath).string();
  int Exit = 0;
  try {
    fs::create_directories(Work);
    fs::current_path(Work);
    // Evaluations in Mapped trace mode would create temp files; keep them
    // inside the work directory.
    setenv("TMPDIR", Work.c_str(), 1);
    RunResult R = LayerRun(Opts, Opts.Workloads.front()).run();
    printResult(R);
    if (!OutPath.empty() &&
        !writeRecords(OutPath, {recordJson(R, Opts.Seed, true, Opts.Rev)})) {
      std::fprintf(stderr, "halo_bench_layers: cannot write %s\n",
                   OutPath.c_str());
      Exit = 1;
    }
    if (!R.Correct)
      Exit = 1;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "halo_bench_layers: error: %s\n", E.what());
    Exit = 1;
  }
  fs::current_path(Start);
  std::error_code Ignored;
  fs::remove_all(Work, Ignored);
  return Exit;
}
