//===- eval/Evaluation.h - Experiment harness --------------------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement harness behind every table and figure of Section 5.
/// An Evaluation wires one benchmark model to a program, runs the HALO and
/// hot-data-streams pipelines on the small *test* inputs, and measures any
/// allocator configuration on the larger *ref* inputs under a simulated
/// machine model (sim/Machine.h; the default preset is the paper's Xeon
/// W-2195) -- mirroring the paper's methodology (repeated trials, medians,
/// jemalloc default allocator everywhere), with the machine a first-class,
/// sweepable part of the measurement key.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_EVAL_EVALUATION_H
#define HALO_EVAL_EVALUATION_H

#include "core/GroupAllocator.h"
#include "core/Pipeline.h"
#include "hds/HdsPipeline.h"
#include "sim/Machine.h"
#include "trace/EventTrace.h"
#include "workloads/Workload.h"

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace halo {

/// The allocator configurations the evaluation compares.
enum class AllocatorKind {
  Jemalloc,    ///< Size-segregated baseline (the paper's default).
  Ptmalloc,    ///< Boundary-tag baseline (Section 5.1's glibc comparison).
  Halo,        ///< Rewritten binary + HALO's specialised group allocator.
  Hds,         ///< Hot-data-streams groups, immediate-call-site identified.
  RandomPools, ///< Figure 15's random four-pool strawman.
  HaloInstrumentedOnly, ///< Rewritten binary, default allocator (overhead
                        ///< probe; Section 5.2 finds it below noise).
};

/// Everything measured in one run.
struct RunMetrics {
  double Seconds = 0.0;
  uint64_t Cycles = 0;
  MemoryCounters Mem;
  RuntimeStats Events;
  uint64_t InstrumentationOps = 0;
  FragmentationStats Frag; ///< Grouped-object fragmentation (HALO/HDS only).
  uint64_t GroupedAllocs = 0;
  uint64_t ForwardedAllocs = 0;
};

/// Per-benchmark configuration: paper defaults plus the Appendix A.8 flags.
/// It holds only what a run varies -- the name, HALO's profiling and
/// grouping knobs, and the allocator options: twelve settable values. The
/// rest of the pipeline's setting is constants next to the code that reads
/// them (the node coverage, merge tolerance, maximum grouped size, slab
/// size, and the hot-data-streams parameters).
struct BenchmarkSetup {
  std::string Name;
  HaloParameters Halo;
  /// Empty (see HdsParameters); kept for benchmark/halo_bench_layers.cpp.
  HdsParameters Hds;
  /// The specialised group allocator both HALO and HDS measure with:
  /// hot-data-stream co-allocation shares HALO's allocator and its
  /// per-benchmark settings (Section 5.1). No pipeline stage reads it, so
  /// it keys no store entry.
  GroupAllocatorOptions Allocator;
  /// The machine the pipelines profile on, the default preset for every
  /// setup; it changes no artifact. A plan measures each cell on the
  /// machine its spec names (ExperimentSpec::Machines).
  static inline const MachineConfig &Machine = defaultMachine();
  /// "Workloads are profiled on small test inputs" (Section 5.1): one run
  /// of the test input at one seed, the same for every setup.
  static constexpr Scale ProfileScale = Scale::Test;
  static constexpr uint64_t ProfileSeed = 1;
};

/// Returns the paper's configuration for \p Benchmark: affinity distance
/// 128 and 1 MiB chunks, plus the artefact's per-benchmark flags (omnetpp:
/// 128 KiB chunks + always-reuse; xalanc: always-reuse; roms: at most 4
/// groups).
BenchmarkSetup paperSetup(const std::string &Benchmark);

/// One benchmark wired up for measurement: a cache of the two pipeline
/// artifact bundles plus measureDirect(), which runs one key.
///
/// Plans profile and measure by executing the workload model directly:
/// the HALO and HDS pipelines each profile one run of the profile-scale
/// input, and every (cell, trial) is one measureDirect() call. Scheduling
/// is not this class's job: trials, kinds and machines fan out through
/// runPlan (eval/Experiment.h), which fills the artifact cache and then
/// calls measureDirect() once per trial.
///
/// trace(), addTrace() and measure() are the replay path: record a run
/// once into an EventTrace and re-execute it under any configuration
/// through Runtime::replay, which equals direct execution by construction
/// (tests/trace_replay_test.cpp). No plan uses it; it stays for the
/// per-layer benchmark (benchmark/halo_bench_layers.cpp) and for
/// `halo_cli trace`.
class Evaluation {
public:
  /// Builds \p Setup's workload model. Throws std::invalid_argument if no
  /// benchmark of that name exists.
  explicit Evaluation(BenchmarkSetup Setup);

  /// The HALO pipeline output (profiled lazily, once, by running the
  /// profile-scale input under the heap profiler).
  const HaloArtifacts &haloArtifacts();

  /// The hot-data-streams pipeline output (profiled lazily, once, from
  /// its own run of the same input).
  const HdsArtifacts &hdsArtifacts();

  /// Replay path: records (once) and returns the event trace of the
  /// workload run for (\p S, \p Seed). Thread-safe; recordings of distinct
  /// keys proceed in parallel.
  const EventTrace &trace(Scale S, uint64_t Seed);

  /// Replay path: seeds the trace cache with an externally obtained
  /// recording, which replays bit-identically to one recorded here. First
  /// writer wins, exactly like trace(); returns the cached instance.
  /// Thread-safe.
  const EventTrace &addTrace(Scale S, uint64_t Seed, EventTrace Trace);

  /// Whether the pipeline artifacts are already materialised (loaded or
  /// profiled). Thread-safe: each artifact kind is guarded by its own
  /// mutex, so concurrent plans sharing this Evaluation (the serve
  /// daemon's steady state) materialise once and the losers wait.
  bool hasHaloArtifacts() const {
    std::lock_guard<std::mutex> Lock(HaloArtMutex);
    return HaloArt.has_value();
  }
  bool hasHdsArtifacts() const {
    std::lock_guard<std::mutex> Lock(HdsArtMutex);
    return HdsArt.has_value();
  }

  /// Installs externally obtained pipeline artifacts (the store's warm
  /// path); no-op if already materialised. Thread-safe, first writer
  /// wins, exactly like addTrace().
  void setHaloArtifacts(HaloArtifacts Art);
  void setHdsArtifacts(HdsArtifacts Art);

  /// Replay path: measures one configuration on one input by replaying
  /// the recording of (\p S, \p Seed) (recorded first if need be) under
  /// \p Machine's hierarchy and costs; the trace is machine-independent.
  /// Replay re-executes the recorded run, so this equals measureDirect().
  /// Safe to call concurrently: the trace and artifact caches synchronise.
  RunMetrics measure(const MachineConfig &Machine, AllocatorKind Kind,
                     Scale S, uint64_t Seed);

  /// The measurement: runs the workload model for (\p S, \p Seed) under
  /// one configuration on \p Machine. The artifacts are
  /// machine-independent, so one Evaluation measures every machine of a
  /// sweep. Safe to call concurrently.
  RunMetrics measureDirect(const MachineConfig &Machine, AllocatorKind Kind,
                           Scale S, uint64_t Seed);

  /// Median seconds / L1D misses / dTLB misses over a set of runs.
  static double medianSeconds(const std::vector<RunMetrics> &Runs);
  static double medianL1Misses(const std::vector<RunMetrics> &Runs);
  static double medianTlbMisses(const std::vector<RunMetrics> &Runs);

  const Program &program() const { return Prog; }
  const BenchmarkSetup &setup() const { return Setup; }
  Workload &workload() { return *W; }

private:
  RunMetrics measureWith(const MachineConfig &Machine, AllocatorKind Kind,
                         uint64_t Seed,
                         const std::function<void(Runtime &)> &Drive);

  BenchmarkSetup Setup;
  std::unique_ptr<Workload> W;
  Program Prog;
  std::optional<HaloArtifacts> HaloArt;
  std::optional<HdsArtifacts> HdsArt;
  /// One mutex per artifact kind, so the two pipelines still profile in
  /// parallel.
  mutable std::mutex HaloArtMutex;
  mutable std::mutex HdsArtMutex;
  /// Replay path: (scale, seed) -> recorded trace. std::map for reference
  /// stability.
  std::map<std::pair<int, uint64_t>, EventTrace> Traces;
  std::mutex TraceMutex;
};

} // namespace halo

#endif // HALO_EVAL_EVALUATION_H
