//===- bench/bench_grouping_scale.cpp - Pipeline scale bench -------------------===//
//
// Measures the profile->graph->group pipeline on synthetic affinity graphs
// far larger than the paper's workloads produce (10k-100k nodes, power-law
// degree and weight distributions), comparing the incremental buildGroups
// against the Figure 6 reference transliteration and timing the supporting
// hot paths (CSR snapshot construction, affinity-queue pushes, live-object
// lookups of arena addresses). It also times the stages a cold test-scale
// plan pays for on the real workload models, each summed over all 11
// benchmarks' profile inputs and served by the id-encoding arena as the
// pipelines serve them: the HALO profiling run (profile_halo_test; edges =
// profiled macro accesses), the HDS profiling run (profile_hds_test; edges
// = reference-trace length) and hot-stream extraction from that trace
// (sequitur_hds_test; edges = symbols appended) and the peak memory of
// the whole HDS pipeline (hds_pipeline_rss_test: each benchmark's pipeline
// runs in a forked child, taken before any other row while this process
// is small; "peak_rss_growth_mb" is the largest growth of a child's peak
// resident set over the 11, wall_ms the children's summed pipeline time),
// plus constructing each machine preset's memory hierarchy
// (hierarchy_setup_<preset>; nodes = sets, edges = tag slots over all
// levels and the dTLB). Last come the stages a warm plan pays for: the 33
// ref cells of the warm matrix on each preset (measure_ref_<preset>;
// nodes = cells, edges = simulated line accesses; the HALO and HDS bundles
// are derived before timing) and the 11 jemalloc ref runs with no
// hierarchy attached (alloc_ref_jemalloc; edges = allocator calls), whose
// difference is the simulator's share.
//
// Emits a machine-readable trajectory file (default: BENCH_pipeline.json,
// override with argv[1]) as a JSON array of rows
//   {"bench": ..., "nodes": ..., "edges": ..., "wall_ms": ..., "trials": ...,
//    "host_cores": ..., "build": ...}
// so subsequent PRs can track the perf trend. wall_ms is the median across
// trials (HALO_BENCH_TRIALS overrides the trial count). The measured-cell
// rows run on the calling thread alone and also carry "cpu_ms", that
// thread's CPU time: the median for measure_ref_<preset>, the minimum for
// alloc_ref_jemalloc, whose wall and CPU are the least over at least 15
// repetitions. That row lands in one of two modes from run to run (on a
// 4-core host one binary's median of three read either 84-86 ms or
// 117-132 ms), so a median of a few trials cannot gate a cost on it; the
// mode is set per process (the minimum read 84-94 or 109-115 ms), so
// compare it over several runs of this bench.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "eval/Evaluation.h"
#include "graph/Adjacency.h"
#include "group/Grouping.h"
#include "hds/HdsPipeline.h"
#include "mem/SizeClassAllocator.h"
#include "profile/AffinityQueue.h"
#include "profile/HeapProfiler.h"
#include "profile/LiveObjectMap.h"
#include "profile/RecordingArena.h"
#include "sim/Machine.h"
#include "support/Rng.h"
#include "workloads/Workload.h"

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace halo;
using namespace halo::bench;

namespace {

/// A synthetic affinity graph with power-law structure: hub nodes attract
/// most edges (preferential attachment to low ids), access counts and edge
/// weights follow heavy-tailed distributions, and a small fraction of nodes
/// carry loop edges (two objects of one context accessed contemporaneously).
AffinityGraph powerLawGraph(uint32_t Nodes, uint64_t Seed) {
  Rng Random(Seed);
  AffinityGraph G;
  for (uint32_t Node = 0; Node < Nodes; ++Node) {
    uint64_t Accesses =
        1 + static_cast<uint64_t>(std::pow(Random.nextDouble() + 1e-9, -0.7));
    G.addAccesses(Node, std::min<uint64_t>(Accesses, 100000));

    uint32_t Degree =
        1 + static_cast<uint32_t>(std::pow(Random.nextDouble() + 1e-9, -0.6));
    Degree = std::min(Degree, 40u);
    for (uint32_t E = 0; E < Degree; ++E) {
      // Preferential attachment: quadratic bias toward low (hub) ids.
      double R = Random.nextDouble();
      uint32_t Target = static_cast<uint32_t>(R * R * Nodes);
      if (Target >= Nodes)
        Target = Nodes - 1;
      if (Target == Node)
        continue;
      uint64_t Weight = 2 + Random.nextBelow(64);
      G.addEdgeWeight(Node, Target, Weight);
    }
    // Loop edges concentrate on a bounded set of hot contexts rather than
    // growing with graph size.
    if (Random.nextBool(std::min(0.02, 200.0 / Nodes)))
      G.addEdgeWeight(Node, Node, 2 + Random.nextBelow(32));
  }
  return G;
}

bool sameGroups(const std::vector<Group> &A, const std::vector<Group> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Members != B[I].Members || A[I].Weight != B[I].Weight ||
        A[I].Accesses != B[I].Accesses)
      return false;
  return true;
}

/// The first figure, in MB, of the "\p Field:" line (kB) of this
/// process's /proc/self/status; negative if there is none.
double statusMb(const char *Field) {
  double Mb = -1;
  if (FILE *Status = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    const size_t Len = std::strlen(Field);
    while (std::fgets(Line, sizeof(Line), Status))
      if (std::strncmp(Line, Field, Len) == 0 && Line[Len] == ':') {
        Mb = std::strtod(Line + Len + 1, nullptr) / 1024.0;
        break;
      }
    std::fclose(Status);
  }
  return Mb;
}

/// Runs \p Run in a forked child and returns how far it raised the child's
/// peak resident set above its resident set at the start, in MB, and its
/// wall-clock ms; {-1, 0} if the child failed. The parent's free heap is
/// returned to the system first, so the child inherits no resident free
/// memory that \p Run could reuse unseen, and a forked child's peak starts
/// at its resident set.
template <typename Fn> std::pair<double, double> forkedPeakGrowth(Fn &&Run) {
  malloc_trim(0);
  std::fflush(nullptr); // The child must not flush the parent's buffers.
  int Fds[2];
  if (::pipe(Fds) != 0)
    return {-1, 0};
  pid_t Child = ::fork();
  if (Child == 0) {
    // The child never returns into the caller, not even by an exception.
    bool Sent = false;
    try {
      ::close(Fds[0]);
      const double Base = statusMb("VmRSS"), Start = nowMs();
      Run();
      const double Result[2] = {statusMb("VmHWM") - Base, nowMs() - Start};
      Sent = Base >= 0 &&
             ::write(Fds[1], Result, sizeof(Result)) == sizeof(Result);
    } catch (...) {
    }
    ::_exit(Sent ? 0 : 1);
  }
  ::close(Fds[1]);
  double Result[2] = {-1, 0};
  bool Got = Child > 0 &&
             ::read(Fds[0], Result, sizeof(Result)) == sizeof(Result);
  ::close(Fds[0]);
  int Status = 0;
  if (Child > 0)
    ::waitpid(Child, &Status, 0);
  if (!Got || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    return {-1, 0};
  return {Result[0], Result[1]};
}

/// The HDS pipeline (profiling the test input, the grammar, packing) of
/// every benchmark, each run in a forked child: returns the largest peak
/// resident growth (MB) and the summed wall-clock ms, or {-1, 0} if a
/// child failed. The grammar is a cold plan's largest allocation.
std::pair<double, double> hdsPipelinePeakGrowth() {
  double MaxMb = 0, TotalMs = 0;
  for (const std::string &Name : workloadNames()) {
    std::unique_ptr<Workload> W = createWorkload(Name);
    Program Prog;
    W->build(Prog);
    const BenchmarkSetup Setup = paperSetup(Name);
    auto [Mb, Ms] = forkedPeakGrowth([&] {
      optimizeBinaryHds(
          Prog,
          [&](Runtime &RT) {
            W->run(RT, Setup.ProfileScale, Setup.ProfileSeed);
          },
          Setup.Hds, Setup.Machine);
    });
    if (Mb < 0)
      return {-1, 0};
    std::printf("HDS pipeline %-10s peak resident growth %5.1f MB, %.1f ms\n",
                Name.c_str(), Mb, Ms);
    MaxMb = std::max(MaxMb, Mb);
    TotalMs += Ms;
  }
  return {MaxMb, TotalMs};
}

} // namespace

int main(int Argc, char **Argv) {
  const std::string OutPath = Argc > 1 ? Argv[1] : "BENCH_pipeline.json";
  // Fail on an unwritable output path now, not after minutes of benching.
  if (FILE *Probe = std::fopen(OutPath.c_str(), "a"))
    std::fclose(Probe);
  else {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  const int Trials = trials();
  std::vector<BenchRow> Rows;

  // Taken first, while this process is small: every child inherits its
  // heap state, and after the rows below omnetpp's pipeline read 3-3.5 MB
  // more, which would track this bench's history, not the pipeline.
  const std::pair<double, double> HdsPipeline = hdsPipelinePeakGrowth();
  if (HdsPipeline.first < 0)
    return 1;

  GroupingOptions Options;
  Options.MinEdgeWeight = 4;
  Options.GroupWeightThreshold = 0.0005;
  Options.MaxGroupMembers = 8;

  std::printf("pipeline scale bench (trials=%d)\n\n", Trials);

  //===--------------------------------------------------------------------===//
  // Grouping: reference vs incremental on the 10k-node graph, incremental
  // alone on larger graphs (the reference is too slow beyond 10k).
  //===--------------------------------------------------------------------===//

  {
    const uint32_t N = 10000;
    AffinityGraph G = powerLawGraph(N, 42);
    std::vector<Group> Ref, Opt;
    double RefMs =
        medianMs(1, [&] { Ref = buildGroupsReference(G, Options); });
    double OptMs = medianMs(Trials, [&] { Opt = buildGroups(G, Options); });
    if (!sameGroups(Ref, Opt)) {
      std::fprintf(stderr,
                   "FATAL: optimized grouping diverged from reference\n");
      return 1;
    }
    Rows.push_back({"grouping_reference", N, G.numEdges(), RefMs, 1});
    Rows.push_back({"grouping_optimized", N, G.numEdges(), OptMs, Trials});
    std::printf("grouping %6u nodes %7llu edges: reference %10.1f ms, "
                "optimized %8.2f ms  (%.0fx, %zu groups, outputs identical)\n",
                N, static_cast<unsigned long long>(G.numEdges()), RefMs, OptMs,
                RefMs / std::max(OptMs, 1e-6), Opt.size());
  }

  for (uint32_t N : {30000u, 100000u}) {
    AffinityGraph G = powerLawGraph(N, 42 + N);
    // The absolute weight threshold scales with total accesses; zero it so
    // the larger graphs still exercise the group-keeping path.
    GroupingOptions ScaleOptions = Options;
    ScaleOptions.GroupWeightThreshold = 0.0;
    std::vector<Group> Opt;
    double OptMs =
        medianMs(Trials, [&] { Opt = buildGroups(G, ScaleOptions); });
    Rows.push_back({"grouping_optimized", N, G.numEdges(), OptMs, Trials});
    std::printf("grouping %6u nodes %7llu edges: optimized %8.2f ms "
                "(%zu groups)\n",
                N, static_cast<unsigned long long>(G.numEdges()), OptMs,
                Opt.size());
  }

  //===--------------------------------------------------------------------===//
  // Graph layer: CSR snapshot construction at 100k nodes.
  //===--------------------------------------------------------------------===//

  {
    const uint32_t N = 100000;
    AffinityGraph G = powerLawGraph(N, 7);
    uint64_t Neighbors = 0;
    double Ms = medianMs(Trials, [&] {
      AdjacencySnapshot Adj = G.buildAdjacency();
      Neighbors += Adj.numNodes(); // Defeat dead-code elimination.
    });
    Rows.push_back({"graph_build_adjacency", N, G.numEdges(), Ms, Trials});
    std::printf("buildAdjacency %u nodes %llu edges: %.2f ms\n", N,
                static_cast<unsigned long long>(G.numEdges()), Ms);
    if (Neighbors == 0)
      return 1;
  }

  //===--------------------------------------------------------------------===//
  // Profiler layer: affinity-queue pushes (the per-access hot path) and
  // live-object lookups of arena addresses.
  //===--------------------------------------------------------------------===//

  {
    const uint32_t Objects = 4096;
    const uint64_t Accesses = 2000000;
    Rng Random(1234);
    std::vector<uint32_t> Stream(Accesses);
    for (uint64_t I = 0; I < Accesses; ++I)
      Stream[I] = static_cast<uint32_t>(Random.nextBelow(Objects));
    uint64_t Partners = 0;
    double Ms = medianMs(Trials, [&] {
      AffinityQueue Queue(128);
      for (uint64_t I = 0; I < Accesses; ++I)
        Queue.access(Stream[I], Stream[I] & 63, 8,
                     [&](const AffinityQueue::Entry &) { ++Partners; });
    });
    Rows.push_back({"affinity_queue_access", Objects, Accesses, Ms, Trials});
    std::printf("affinity queue: %llu accesses over %u objects: %.2f ms "
                "(%.1f M access/s)\n",
                static_cast<unsigned long long>(Accesses), Objects, Ms,
                static_cast<double>(Accesses) / Ms / 1e3);
    if (Partners == 0)
      return 1;
  }

  {
    // Objects at their arena addresses, as every profiling run places
    // them: each lookup decodes the id from the address.
    const uint32_t Objects = 100000;
    const uint64_t Lookups = 2000000;
    LiveObjectMap Map;
    for (uint32_t I = 0; I < Objects; ++I)
      Map.insert(RecordingArena::encode(I), 48, I & 255, 0);
    Rng Random(99);
    std::vector<uint64_t> Addrs(Lookups);
    for (uint64_t I = 0; I < Lookups;) {
      // Bursts of hits on one object model real access locality (the same
      // locality the affinity queue's dedup constraint exists for).
      uint64_t Base = RecordingArena::encode(Random.nextBelow(Objects));
      uint64_t Burst = 1 + Random.nextBelow(16);
      for (uint64_t B = 0; B < Burst && I < Lookups; ++B, ++I)
        Addrs[I] = Base + Random.nextBelow(48);
    }
    uint64_t Hits = 0;
    double Ms = medianMs(Trials, [&] {
      for (uint64_t I = 0; I < Lookups; ++I)
        Hits += Map.find(Addrs[I]) != ~0u;
    });
    Rows.push_back({"live_object_find_arena", Objects, Lookups, Ms, Trials});
    std::printf("live-object map, arena addresses: %llu lookups over %u "
                "objects: %.2f ms\n",
                static_cast<unsigned long long>(Lookups), Objects, Ms);
    if (Hits == 0)
      return 1;
  }

  //===--------------------------------------------------------------------===//
  // Cold-plan stages on the workload models: profiling for each pipeline
  // and hot-stream extraction, summed over the 11 benchmarks' test inputs
  // (the paper profiles on test), then hierarchy construction per preset.
  //===--------------------------------------------------------------------===//

  {
    struct Model {
      std::unique_ptr<Workload> W;
      Program Prog;
      BenchmarkSetup Setup;
      std::vector<ObjectId> Trace;
    };
    std::vector<Model> Models(workloadNames().size());
    for (size_t I = 0; I < Models.size(); ++I) {
      Models[I].W = createWorkload(workloadNames()[I]);
      Models[I].W->build(Models[I].Prog);
      Models[I].Setup = paperSetup(workloadNames()[I]);
    }
    const uint64_t Benchmarks = Models.size();

    uint64_t Profiled = 0;
    double HaloMs = medianMs(Trials, [&] {
      Profiled = 0;
      for (Model &M : Models) {
        RecordingArena Alloc;
        Runtime RT(M.Prog, Alloc, M.Setup.Machine.Costs);
        HeapProfiler Profiler(M.Prog, M.Setup.Halo.Profile);
        RT.addObserver(&Profiler);
        M.W->run(RT, M.Setup.ProfileScale, M.Setup.ProfileSeed);
        Profiler.takeGraph();
        Profiled += Profiler.totalAccesses();
      }
    });
    Rows.push_back({"profile_halo_test", Benchmarks, Profiled, HaloMs, Trials});

    uint64_t TraceLength = 0;
    double HdsMs = medianMs(Trials, [&] {
      TraceLength = 0;
      for (Model &M : Models) {
        RecordingArena Alloc;
        Runtime RT(M.Prog, Alloc, M.Setup.Machine.Costs);
        ReferenceTraceRecorder Recorder;
        RT.addObserver(&Recorder);
        M.W->run(RT, M.Setup.ProfileScale, M.Setup.ProfileSeed);
        M.Trace = Recorder.trace();
        TraceLength += M.Trace.size();
      }
    });
    Rows.push_back({"profile_hds_test", Benchmarks, TraceLength, HdsMs, Trials});

    uint64_t Streams = 0;
    double SequiturMs = medianMs(Trials, [&] {
      for (const Model &M : Models)
        Streams += findHotStreams(M.Trace).Streams.size();
    });
    Rows.push_back(
        {"sequitur_hds_test", Benchmarks, TraceLength, SequiturMs, Trials});
    std::printf("\n11 benchmarks, test inputs: HALO profiling %.1f ms (%llu "
                "accesses), HDS profiling %.1f ms, hot streams %.1f ms (%llu "
                "trace symbols)\n",
                HaloMs, static_cast<unsigned long long>(Profiled), HdsMs,
                SequiturMs, static_cast<unsigned long long>(TraceLength));
    if (Profiled == 0 || Streams == 0)
      return 1;
    Rows.push_back({"hds_pipeline_rss_test", Benchmarks, TraceLength,
                    HdsPipeline.second, 1, -1, HdsPipeline.first});
  }

  for (const MachineConfig &M : machinePresets()) {
    // One construction is well under a millisecond on the small presets:
    // take the median over more repetitions than the other rows.
    const int Reps = std::max(Trials, 25);
    const HierarchyConfig &H = M.Hierarchy;
    uint64_t Sets = H.TlbEntries / H.TlbWays, Slots = H.TlbEntries;
    for (const CacheConfig *Level : {&H.L1, &H.L2, &H.L3}) {
      Sets += Level->SizeBytes / (uint64_t(Level->Ways) * Level->LineSize);
      Slots += Level->SizeBytes / Level->LineSize;
    }
    uint64_t Built = 0;
    double Ms = medianMs(Reps, [&] {
      MemoryHierarchy Hierarchy(H);
      Built += Hierarchy.l3().numSets();
    });
    Rows.push_back({"hierarchy_setup_" + M.Name, Sets, Slots, Ms, Reps});
    std::printf("hierarchy setup %-16s %8llu sets %9llu slots: %.3f ms\n",
                M.Name.c_str(), static_cast<unsigned long long>(Sets),
                static_cast<unsigned long long>(Slots), Ms);
    if (Built == 0)
      return 1;
  }

  //===--------------------------------------------------------------------===//
  // Measured cells: the 33 ref cells of the warm matrix (11 benchmarks x
  // jemalloc/hds/halo, HALO and HDS bundles derived beforehand) on each
  // preset, and the 11 jemalloc ref runs with no hierarchy attached (the
  // workload models, the runtime and the allocator alone).
  //===--------------------------------------------------------------------===//

  {
    const uint64_t Seed = 100; // The paper's seed, the matrices' default.
    std::vector<std::unique_ptr<Evaluation>> Evals;
    for (const std::string &Name : workloadNames()) {
      Evals.push_back(std::make_unique<Evaluation>(paperSetup(Name)));
      Evals.back()->haloArtifacts();
      Evals.back()->hdsArtifacts();
    }
    const AllocatorKind Kinds[] = {AllocatorKind::Jemalloc,
                                   AllocatorKind::Hds, AllocatorKind::Halo};
    for (const MachineConfig &M : machinePresets()) {
      uint64_t Accesses = 0;
      auto [Wall, Cpu] = medianWallCpuMs(Trials, [&] {
        Accesses = 0;
        for (auto &Eval : Evals)
          for (AllocatorKind Kind : Kinds)
            Accesses +=
                Eval->measureDirect(M, Kind, Scale::Ref, Seed).Mem.Accesses;
      });
      const uint64_t Cells = Evals.size() * std::size(Kinds);
      Rows.push_back({"measure_ref_" + M.Name, Cells, Accesses, Wall, Trials,
                      Cpu});
      std::printf("measure ref %-16s %llu cells %llu accesses: %.1f ms CPU\n",
                  M.Name.c_str(), static_cast<unsigned long long>(Cells),
                  static_cast<unsigned long long>(Accesses), Cpu);
      if (Accesses == 0)
        return 1;
    }

    uint64_t AllocatorCalls = 0;
    const int Reps = std::max(Trials, 15);
    auto [Wall, Cpu] = minWallCpuMs(Reps, [&] {
      AllocatorCalls = 0;
      for (auto &Eval : Evals) {
        SizeClassAllocator Jemalloc;
        Runtime RT(Eval->program(), Jemalloc,
                   Eval->setup().Machine.Costs);
        Eval->workload().run(RT, Scale::Ref, Seed);
        AllocatorCalls += RT.stats().Allocs + RT.stats().Frees;
      }
    });
    Rows.push_back({"alloc_ref_jemalloc", Evals.size(), AllocatorCalls, Wall,
                    Reps, Cpu});
    std::printf("jemalloc ref runs, no hierarchy: %llu allocator calls: "
                "%.1f ms CPU\n",
                static_cast<unsigned long long>(AllocatorCalls), Cpu);
    if (AllocatorCalls == 0)
      return 1;
  }

  writeRows(OutPath, Rows);
  std::printf("\nwrote %s (%zu rows)\n", OutPath.c_str(), Rows.size());
  return 0;
}
