//===- tests/experiment_test.cpp - Declarative experiment plans --------------===//
//
// The plan contract: buildPlan expands specs into a deduplicated matrix
// (benchmarks by name, or per spec for specs with MakeSetup; artifact
// bundles by store key; cells by full key) with two task stages (artifact
// bundles, then one direct measurement per (cell, trial)), runPlan
// executes it bit-identically no matter how many workers ran, and every
// cell equals a serial loop of Evaluation::measureDirect for the same
// key. The comparison reduction built
// on top (comparisonRow) is pinned against the same oracle.
//
//===----------------------------------------------------------------------===//

#include "eval/Experiment.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <mutex>
#include <thread>

using namespace halo;

namespace {

/// findMachine, hard-asserted: a null entry in ExperimentSpec::Machines
/// makes buildPlan throw instead of measuring the named preset.
const MachineConfig *preset(const char *Name) {
  const MachineConfig *M = findMachine(Name);
  EXPECT_NE(M, nullptr) << Name;
  return M;
}

/// Two-benchmark, two-machine, two-kind mixed matrix at test scale: the
/// shape the plan scheduler exists for.
ExperimentSpec mixedSpec() {
  ExperimentSpec Spec;
  Spec.Benchmarks = {"ft", "health"};
  Spec.Machines = {preset("xeon-w2195"), preset("mobile")};
  Spec.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Halo};
  Spec.S = Scale::Test;
  Spec.Trials = 2;
  return Spec;
}

/// The serial oracle for one cell: \p Trials measureDirect runs
/// on \p Machine, trial T using seed SeedBase + T as a plan cell does.
std::vector<RunMetrics> directRuns(Evaluation &Oracle,
                                   const MachineConfig &Machine,
                                   AllocatorKind Kind, Scale S, int Trials,
                                   uint64_t SeedBase = 100) {
  std::vector<RunMetrics> Runs;
  for (int T = 0; T < Trials; ++T)
    Runs.push_back(Oracle.measureDirect(Machine, Kind, S, SeedBase + T));
  return Runs;
}

void expectSameRuns(const std::vector<RunMetrics> &A,
                    const std::vector<RunMetrics> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t T = 0; T < A.size(); ++T) {
    SCOPED_TRACE("trial " + std::to_string(T));
    EXPECT_EQ(A[T].Cycles, B[T].Cycles);
    EXPECT_DOUBLE_EQ(A[T].Seconds, B[T].Seconds);
    EXPECT_EQ(A[T].Mem.L1Misses, B[T].Mem.L1Misses);
    EXPECT_EQ(A[T].Mem.TlbMisses, B[T].Mem.TlbMisses);
    EXPECT_EQ(A[T].GroupedAllocs, B[T].GroupedAllocs);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Names
//===----------------------------------------------------------------------===//

TEST(ExperimentNames, KindsRoundTrip) {
  for (AllocatorKind Kind : allAllocatorKinds()) {
    std::optional<AllocatorKind> Parsed =
        parseAllocatorKind(allocatorKindName(Kind));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, Kind);
  }
  EXPECT_FALSE(parseAllocatorKind("tcmalloc").has_value());
  EXPECT_FALSE(parseAllocatorKind("").has_value());
}

TEST(ExperimentNames, ScalesRoundTrip) {
  EXPECT_EQ(parseScale(scaleName(Scale::Test)), Scale::Test);
  EXPECT_EQ(parseScale(scaleName(Scale::Ref)), Scale::Ref);
  EXPECT_FALSE(parseScale("train").has_value());
}

TEST(ExperimentNames, SpecForResolvesPresetNames) {
  PlanRequest R;
  R.Benchmarks = {"health", "ft"};
  R.Machines = {"mobile", "xeon-w2195"};
  R.Kinds = {AllocatorKind::Halo};
  R.S = Scale::Test;
  R.Trials = 2;
  R.SeedBase = 7;
  ExperimentSpec Spec = specFor(R);
  EXPECT_EQ(Spec.Benchmarks, R.Benchmarks);
  EXPECT_EQ(Spec.Machines, (std::vector<const MachineConfig *>{
                               findMachine("mobile"),
                               findMachine("xeon-w2195")}));
  EXPECT_EQ(Spec.Kinds, R.Kinds);
  EXPECT_EQ(Spec.S, Scale::Test);
  EXPECT_EQ(Spec.Trials, 2);
  EXPECT_EQ(Spec.SeedBase, 7u);
  EXPECT_FALSE(Spec.MakeSetup);
  // No machine names: the setup's own machine, as in an ExperimentSpec.
  EXPECT_TRUE(specFor(PlanRequest{}).Machines.empty());
  R.Machines = {"mobile", "cray-1"};
  EXPECT_THROW(specFor(R), std::invalid_argument);
}

//===----------------------------------------------------------------------===//
// buildPlan
//===----------------------------------------------------------------------===//

TEST(BuildPlan, DeduplicatesBenchmarksCellsAndRecordings) {
  ExperimentSpec First;
  First.Benchmarks = {"health"};
  First.Machines = {findMachine("xeon-w2195"), findMachine("mobile")};
  First.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Halo};
  First.S = Scale::Test;
  First.Trials = 2;

  // Overlaps First in one cell (jemalloc on the default machine) and in
  // every seed; adds only the HDS cell.
  ExperimentSpec Second = First;
  Second.Machines = {findMachine("xeon-w2195")};
  Second.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Hds};

  ExperimentPlan Plan = buildPlan({First, Second});
  ASSERT_EQ(Plan.benchmarks().size(), 1u);
  EXPECT_EQ(Plan.benchmarks()[0].Name, "health");
  // A fresh Evaluation and no store: both bundles materialise cold.
  ASSERT_EQ(Plan.bundles().size(), 2u);
  for (const ExperimentPlan::Bundle &B : Plan.bundles()) {
    EXPECT_FALSE(B.Stored);
    EXPECT_EQ(B.Evals,
              std::vector<Evaluation *>{Plan.benchmarks()[0].Eval});
  }
  // 4 cells from First, 1 new from Second (its jemalloc cell collapses).
  EXPECT_EQ(Plan.cells().size(), 5u);
  EXPECT_EQ(Plan.numArtifactTasks(), 2u);
  EXPECT_EQ(Plan.numMeasurements(), 10u);
  // Two stages and nothing else: the two bundles, then one direct
  // measurement per (cell, trial).
  PlanExecution Exec(Plan);
  ASSERT_EQ(Exec.numTasks(), 12u);
  for (size_t T = 0; T < Exec.numTasks(); ++T)
    EXPECT_EQ(Exec.stage(T), T < 2 ? 0u : 1u) << "task " << T;
}

TEST(BuildPlan, DistinctSeedBlocksStayDistinct) {
  ExperimentSpec Spec;
  Spec.Benchmarks = {"ft"};
  Spec.Kinds = {AllocatorKind::Jemalloc};
  Spec.S = Scale::Test;
  Spec.Trials = 2;
  ExperimentSpec Shifted = Spec;
  Shifted.SeedBase = 101; // Overlaps seed 101, adds seed 102.

  ExperimentPlan Plan = buildPlan({Spec, Shifted});
  EXPECT_EQ(Plan.cells().size(), 2u);
  // Each block measures its own trials: seed 101 runs once per block.
  EXPECT_EQ(Plan.numMeasurements(), 4u);
  EXPECT_EQ(Plan.numArtifactTasks(), 0u); // jemalloc needs no pipelines.

  // find() disambiguates same-coordinate cells by seed block.
  ResultSet Results = runPlan(Plan, /*Jobs=*/1);
  const ResultSet::Cell *First =
      Results.find("ft", defaultMachine().Name, AllocatorKind::Jemalloc,
                   Scale::Test, /*SeedBase=*/100);
  const ResultSet::Cell *Second =
      Results.find("ft", defaultMachine().Name, AllocatorKind::Jemalloc,
                   Scale::Test, /*SeedBase=*/101);
  ASSERT_NE(First, nullptr);
  ASSERT_NE(Second, nullptr);
  EXPECT_NE(First, Second);
  EXPECT_EQ(First->Key.SeedBase, 100u);
  EXPECT_EQ(Second->Key.SeedBase, 101u);
  // Seed 101 is shared by both blocks: First's trial 1 is Second's 0.
  EXPECT_EQ(First->Runs[1].Cycles, Second->Runs[0].Cycles);
}

TEST(BuildPlan, MakeSetupSpecsMeasureTheirOwnSetups) {
  // Two setups of one benchmark in one plan: each spec's cells measure
  // its own setup. A pipeline knob re-keys the HALO bundle, so each setup
  // profiles once.
  auto AtDistance = [](uint64_t Distance) {
    return [Distance](const std::string &Name) {
      BenchmarkSetup Setup = paperSetup(Name);
      Setup.Halo.Profile.AffinityDistance = Distance;
      return Setup;
    };
  };
  ExperimentSpec Near;
  Near.Benchmarks = {"health"};
  Near.Kinds = {AllocatorKind::Halo};
  Near.S = Scale::Test;
  Near.Trials = 2;
  Near.MakeSetup = AtDistance(8);
  ExperimentSpec Far = Near;
  Far.MakeSetup = AtDistance(4096);

  ExperimentPlan Plan = buildPlan({Near, Far});
  ASSERT_EQ(Plan.benchmarks().size(), 2u);
  ASSERT_EQ(Plan.cells().size(), 2u);
  EXPECT_EQ(Plan.cells()[0].Bench, 0u);
  EXPECT_EQ(Plan.cells()[1].Bench, 1u);
  ASSERT_EQ(Plan.bundles().size(), 2u);
  EXPECT_EQ(Plan.numArtifactTasks(), 2u);
  ResultSet Results = runPlan(Plan, /*Jobs=*/2);

  ASSERT_EQ(Results.size(), 2u);
  for (size_t C = 0; C < 2; ++C) {
    SCOPED_TRACE("setup " + std::to_string(C));
    Evaluation Oracle((C == 0 ? Near : Far).MakeSetup("health"));
    expectSameRuns(Results.cells()[C].Runs,
                   directRuns(Oracle, defaultMachine(), AllocatorKind::Halo,
                              Scale::Test, 2));
  }
  // The two setups measure differently, so neither cell can stand in for
  // the other.
  EXPECT_NE(Results.cells()[0].Runs[0].Cycles,
            Results.cells()[1].Runs[0].Cycles);
}

TEST(BuildPlan, SetupsDifferingOnlyInTheAllocatorShareBundles) {
  // No pipeline stage reads the allocator options, so two setups that
  // differ only there share each store key: one HALO and one HDS task,
  // each bundle copied into both Evaluations, and each setup measured
  // with its own allocator.
  auto WithChunk = [](uint64_t Chunk) {
    return [Chunk](const std::string &Name) {
      BenchmarkSetup Setup = paperSetup(Name);
      Setup.Allocator.ChunkSize = Chunk;
      return Setup;
    };
  };
  ExperimentSpec Paper;
  Paper.Benchmarks = {"xalanc"};
  Paper.Kinds = {AllocatorKind::Halo, AllocatorKind::Hds};
  Paper.S = Scale::Test;
  Paper.Trials = 1;
  Paper.SeedBase = 1;
  Paper.MakeSetup = paperSetup;
  ExperimentSpec Small = Paper;
  Small.MakeSetup = WithChunk(16 * 1024);
  ExperimentSpec Same = Paper; // Identical setups share bundles too.
  Same.MakeSetup = WithChunk(paperSetup("xalanc").Allocator.ChunkSize);

  ExperimentPlan Plan = buildPlan({Paper, Small, Same});
  ASSERT_EQ(Plan.benchmarks().size(), 3u);
  EXPECT_EQ(Plan.cells().size(), 6u);
  ASSERT_EQ(Plan.bundles().size(), 2u);
  EXPECT_EQ(Plan.numArtifactTasks(), 2u);
  std::vector<Evaluation *> All;
  for (const ExperimentPlan::Benchmark &B : Plan.benchmarks())
    All.push_back(B.Eval);
  EXPECT_TRUE(Plan.bundles()[0].Halo);
  EXPECT_FALSE(Plan.bundles()[1].Halo);
  for (const ExperimentPlan::Bundle &B : Plan.bundles())
    EXPECT_EQ(B.Evals, All);
  ResultSet Results = runPlan(Plan, /*Jobs=*/2);

  ASSERT_EQ(Results.size(), 6u);
  for (size_t Setup = 0; Setup < 3; ++Setup) {
    Evaluation Oracle(Plan.benchmarks()[Setup].Eval->setup());
    EXPECT_TRUE(Plan.benchmarks()[Setup].Eval->hasHaloArtifacts());
    EXPECT_TRUE(Plan.benchmarks()[Setup].Eval->hasHdsArtifacts());
    for (size_t K = 0; K < 2; ++K) {
      SCOPED_TRACE("setup " + std::to_string(Setup) + " kind " +
                   std::to_string(K));
      expectSameRuns(Results.cells()[Setup * 2 + K].Runs,
                     directRuns(Oracle, defaultMachine(), Paper.Kinds[K],
                                Scale::Test, 1, /*SeedBase=*/1));
    }
  }
  // The small chunks move both kinds' fragmentation; the identical setup
  // matches the paper's.
  for (size_t K = 0; K < 2; ++K) {
    const RunMetrics &P = Results.cells()[K].Runs[0];
    EXPECT_NE(P.Frag.wastedBytes(),
              Results.cells()[2 + K].Runs[0].Frag.wastedBytes());
    EXPECT_EQ(P.Cycles, Results.cells()[4 + K].Runs[0].Cycles);
  }
}

TEST(BuildPlan, OnlySpecsWithoutMakeSetupShareBenchmarksAndExternal) {
  // Specs without MakeSetup share one Evaluation per name -- the caller's
  // External one when given -- while a spec with MakeSetup gets its own,
  // even for a name the others share.
  Evaluation Eval(paperSetup("health"));
  ExperimentSpec Shared;
  Shared.Benchmarks = {"health", "ft"};
  Shared.Kinds = {AllocatorKind::Jemalloc};
  Shared.S = Scale::Test;
  Shared.Trials = 1;
  ExperimentSpec Own = Shared;
  Own.Benchmarks = {"health"};
  Own.Machines = {findMachine("mobile")};
  Own.MakeSetup = [](const std::string &Name) {
    BenchmarkSetup Setup = paperSetup(Name);
    Setup.Allocator.MaxSpareChunks = 3;
    return Setup;
  };
  ExperimentSpec AlsoShared = Shared;
  AlsoShared.Kinds = {AllocatorKind::Ptmalloc};

  ExperimentPlan Plan = buildPlan({Shared, Own, AlsoShared}, {&Eval});
  ASSERT_EQ(Plan.benchmarks().size(), 3u);
  EXPECT_EQ(Plan.benchmarks()[0].Eval, &Eval);
  EXPECT_EQ(Plan.benchmarks()[1].Name, "ft");
  EXPECT_EQ(Plan.benchmarks()[2].Name, "health");
  EXPECT_NE(Plan.benchmarks()[2].Eval, &Eval);
  EXPECT_EQ(Plan.benchmarks()[2].Eval->setup().Allocator.MaxSpareChunks, 3u);
  // Shared's two cells, Own's one, and AlsoShared's two on benchmarks 0-1.
  ASSERT_EQ(Plan.cells().size(), 5u);
  const size_t Bench[] = {0, 1, 2, 0, 1};
  for (size_t C = 0; C < 5; ++C)
    EXPECT_EQ(Plan.cells()[C].Bench, Bench[C]) << "cell " << C;
  EXPECT_TRUE(Plan.bundles().empty()); // No kind here reads a bundle.
  ResultSet Results = runPlan(Plan, /*Jobs=*/1);
  EXPECT_EQ(Results.cells()[0].Key.Machine, defaultMachine().Name);
  EXPECT_EQ(Results.cells()[2].Key.Machine, "mobile");
}

TEST(BuildPlan, RejectsUnknownBenchmarks) {
  ExperimentSpec Spec;
  Spec.Benchmarks = {"health", "gcc"};
  EXPECT_THROW(buildPlan({Spec}), std::invalid_argument);
}

TEST(BuildPlan, RejectsANullMachine) {
  // A plan cell's machine is never null: no entry stands for "some
  // default" (an empty list means the default preset).
  ExperimentSpec Spec;
  Spec.Benchmarks = {"health"};
  Spec.Machines = {preset("mobile"), nullptr};
  EXPECT_THROW(buildPlan({Spec}), std::invalid_argument);
}

//===----------------------------------------------------------------------===//
// runPlan
//===----------------------------------------------------------------------===//

TEST(RunPlan, SerialMatchesParallelBitIdentically) {
  ExperimentPlan SerialPlan = buildPlan({mixedSpec()});
  ResultSet Serial = runPlan(SerialPlan, /*Jobs=*/1);
  ExperimentPlan ParallelPlan = buildPlan({mixedSpec()});
  ResultSet Parallel = runPlan(ParallelPlan, /*Jobs=*/4);

  ASSERT_EQ(Serial.size(), 8u); // 2 benchmarks x 2 machines x 2 kinds.
  ASSERT_EQ(Parallel.size(), Serial.size());
  for (size_t C = 0; C < Serial.size(); ++C) {
    SCOPED_TRACE("cell " + std::to_string(C));
    EXPECT_EQ(Serial.cells()[C].Key.Benchmark,
              Parallel.cells()[C].Key.Benchmark);
    EXPECT_EQ(Serial.cells()[C].Key.Machine,
              Parallel.cells()[C].Key.Machine);
    EXPECT_EQ(Serial.cells()[C].Key.Kind, Parallel.cells()[C].Key.Kind);
    expectSameRuns(Serial.cells()[C].Runs, Parallel.cells()[C].Runs);
  }
}

TEST(RunPlan, EveryCellMatchesTheMeasureTrialsOracle) {
  // The plan must measure exactly what executing the workload directly,
  // one trial after another, measures for the same key.
  ExperimentPlan Plan = buildPlan({mixedSpec()});
  ResultSet Results = runPlan(Plan, /*Jobs=*/2);

  for (const char *Name : {"ft", "health"}) {
    Evaluation Oracle(paperSetup(Name));
    for (const char *MachineName : {"xeon-w2195", "mobile"})
      for (AllocatorKind Kind :
           {AllocatorKind::Jemalloc, AllocatorKind::Halo}) {
        SCOPED_TRACE(Name + std::string(" on ") + MachineName);
        const ResultSet::Cell *Cell =
            Results.find(Name, MachineName, Kind, Scale::Test);
        ASSERT_NE(Cell, nullptr);
        expectSameRuns(Cell->Runs,
                       directRuns(Oracle, *findMachine(MachineName), Kind,
                                  Scale::Test, 2));
      }
  }
}

TEST(RunPlan, EmptyMachineListUsesTheSetupMachine) {
  // The setup machine is the default preset, so a spec naming that preset
  // measures the same cell as one naming no machine.
  ExperimentSpec Spec;
  Spec.Benchmarks = {"ft"};
  Spec.Kinds = {AllocatorKind::Jemalloc};
  Spec.S = Scale::Test;
  Spec.Trials = 2;
  ExperimentSpec Named = Spec;
  Named.Machines = {findMachine(defaultMachine().Name)};
  ExperimentPlan Plan = buildPlan({Spec, Named});
  ASSERT_EQ(Plan.cells().size(), 1u);
  EXPECT_EQ(Plan.cells()[0].Machine, &defaultMachine());
  ResultSet Results = runPlan(Plan, /*Jobs=*/1);

  ASSERT_EQ(Results.size(), 1u);
  EXPECT_EQ(Results.cells()[0].Machine, &defaultMachine());
  EXPECT_EQ(Results.cells()[0].Key.Machine, defaultMachine().Name);
  Evaluation Oracle(paperSetup("ft"));
  expectSameRuns(Results.cells()[0].Runs,
                 directRuns(Oracle, defaultMachine(), AllocatorKind::Jemalloc,
                            Scale::Test, 2));
}

TEST(RunPlan, ExternalEvaluationBacksItsBenchmark) {
  Evaluation Eval(paperSetup("health"));
  ExperimentSpec Spec;
  Spec.Benchmarks = {"health"};
  Spec.Kinds = {AllocatorKind::Halo};
  Spec.S = Scale::Test;
  Spec.Trials = 1;
  ExperimentPlan Plan = buildPlan({Spec}, {&Eval});
  ASSERT_EQ(Plan.benchmarks().size(), 1u);
  // The caller's instance, not a plan-owned copy...
  EXPECT_EQ(Plan.benchmarks()[0].Eval, &Eval);
  EXPECT_FALSE(Eval.hasHaloArtifacts());
  ResultSet Results = runPlan(Plan, /*Jobs=*/1);
  // ...so it holds the bundle the plan materialised afterwards, and
  // measuring again through it reads that bundle.
  EXPECT_TRUE(Eval.hasHaloArtifacts());
  RunMetrics Again = Eval.measureDirect(defaultMachine(), AllocatorKind::Halo,
                                       Scale::Test, 100);
  ASSERT_EQ(Results.cells()[0].Runs.size(), 1u);
  EXPECT_EQ(Again.Cycles, Results.cells()[0].Runs[0].Cycles);
  EXPECT_EQ(Again.Mem.L1Misses, Results.cells()[0].Runs[0].Mem.L1Misses);
}

TEST(RunPlan, ConcurrentRunPlansMatchTheSerialOracle) {
  // Two runPlan calls racing in one process -- the serve daemon's steady
  // state -- must produce exactly what each would serially: the workload
  // registry, artifact caches, and ResultSet writes are all either
  // thread-confined or locked.
  ExperimentSpec SpecA = mixedSpec();
  ExperimentSpec SpecB;
  SpecB.Benchmarks = {"health"};
  SpecB.Machines = {preset("mobile")};
  SpecB.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Hds};
  SpecB.S = Scale::Test;
  SpecB.Trials = 3;

  ExperimentPlan OracleA = buildPlan({SpecA});
  ResultSet SerialA = runPlan(OracleA, /*Jobs=*/1);
  ExperimentPlan OracleB = buildPlan({SpecB});
  ResultSet SerialB = runPlan(OracleB, /*Jobs=*/1);

  ResultSet RacedA, RacedB;
  std::thread TA([&] {
    ExperimentPlan Plan = buildPlan({SpecA});
    RacedA = runPlan(Plan, /*Jobs=*/2);
  });
  std::thread TB([&] {
    ExperimentPlan Plan = buildPlan({SpecB});
    RacedB = runPlan(Plan, /*Jobs=*/2);
  });
  TA.join();
  TB.join();

  ASSERT_EQ(RacedA.size(), SerialA.size());
  for (size_t C = 0; C < SerialA.size(); ++C) {
    SCOPED_TRACE("plan A cell " + std::to_string(C));
    expectSameRuns(RacedA.cells()[C].Runs, SerialA.cells()[C].Runs);
  }
  ASSERT_EQ(RacedB.size(), SerialB.size());
  for (size_t C = 0; C < SerialB.size(); ++C) {
    SCOPED_TRACE("plan B cell " + std::to_string(C));
    expectSameRuns(RacedB.cells()[C].Runs, SerialB.cells()[C].Runs);
  }
}

TEST(RunPlan, ConcurrentRunPlansMayShareAnExternalEvaluation) {
  // Harder still: both racing plans measure through the SAME warm
  // Evaluation (the daemon's warm cache hands one instance to every
  // in-flight plan). Its artifact caches are internally locked, so the
  // race must be invisible in the results.
  Evaluation Shared(paperSetup("health"));
  ExperimentSpec SpecA;
  SpecA.Benchmarks = {"health"};
  SpecA.Machines = {preset("xeon-w2195")};
  SpecA.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Halo};
  SpecA.S = Scale::Test;
  SpecA.Trials = 2;
  ExperimentSpec SpecB = SpecA;
  SpecB.Machines = {preset("mobile")};
  SpecB.Kinds = {AllocatorKind::Halo, AllocatorKind::Hds};

  ExperimentPlan OracleA = buildPlan({SpecA});
  ResultSet SerialA = runPlan(OracleA, /*Jobs=*/1);
  ExperimentPlan OracleB = buildPlan({SpecB});
  ResultSet SerialB = runPlan(OracleB, /*Jobs=*/1);

  ResultSet RacedA, RacedB;
  std::thread TA([&] {
    ExperimentPlan Plan = buildPlan({SpecA}, {&Shared});
    RacedA = runPlan(Plan, /*Jobs=*/2);
  });
  std::thread TB([&] {
    ExperimentPlan Plan = buildPlan({SpecB}, {&Shared});
    RacedB = runPlan(Plan, /*Jobs=*/2);
  });
  TA.join();
  TB.join();

  ASSERT_EQ(RacedA.size(), SerialA.size());
  for (size_t C = 0; C < SerialA.size(); ++C) {
    SCOPED_TRACE("plan A cell " + std::to_string(C));
    expectSameRuns(RacedA.cells()[C].Runs, SerialA.cells()[C].Runs);
  }
  ASSERT_EQ(RacedB.size(), SerialB.size());
  for (size_t C = 0; C < SerialB.size(); ++C) {
    SCOPED_TRACE("plan B cell " + std::to_string(C));
    expectSameRuns(RacedB.cells()[C].Runs, SerialB.cells()[C].Runs);
  }
}

TEST(RunPlan, OnCellFiresExactlyOncePerCellWithFinalContents) {
  // The streaming hook serve rides on: every cell announced exactly once,
  // as soon as its last trial lands, with runs identical to what the
  // returned ResultSet ends up holding.
  ExperimentPlan Plan = buildPlan({mixedSpec()});
  const size_t NumCells = Plan.cells().size();
  std::mutex Mu;
  std::vector<int> Fired(NumCells, 0);
  std::vector<std::vector<RunMetrics>> Seen(NumCells);
  ResultSet Results = runPlan(
      Plan, /*Jobs=*/2,
      [&](size_t Cell, const ResultSet::Cell &C) {
        std::lock_guard<std::mutex> Lock(Mu);
        ASSERT_LT(Cell, NumCells);
        ++Fired[Cell];
        Seen[Cell] = C.Runs;
      });
  ASSERT_EQ(Results.size(), NumCells);
  for (size_t C = 0; C < NumCells; ++C) {
    SCOPED_TRACE("cell " + std::to_string(C));
    EXPECT_EQ(Fired[C], 1);
    expectSameRuns(Seen[C], Results.cells()[C].Runs);
  }
}

TEST(ResultSet, FindLocatesCellsByFullKey) {
  ExperimentPlan Plan = buildPlan({mixedSpec()});
  ResultSet Results = runPlan(Plan, /*Jobs=*/1);
  const ResultSet::Cell *Cell =
      Results.find("health", "mobile", AllocatorKind::Halo, Scale::Test);
  ASSERT_NE(Cell, nullptr);
  EXPECT_EQ(Cell->Machine, findMachine("mobile"));
  EXPECT_EQ(Cell->Key.Trials, 2);
  // Misses on any key dimension return null.
  EXPECT_EQ(Results.find("health", "mobile", AllocatorKind::Halo,
                         Scale::Ref),
            nullptr);
  EXPECT_EQ(Results.find("health", "server", AllocatorKind::Halo,
                         Scale::Test),
            nullptr);
  EXPECT_EQ(Results.find("roms", "mobile", AllocatorKind::Halo, Scale::Test),
            nullptr);
}

//===----------------------------------------------------------------------===//
// Wrappers: the shapes the pre-plan entry points ran, now plain plans plus
// the comparisonRow reduction.
//===----------------------------------------------------------------------===//

TEST(Wrappers, SweepMachinesMatchesManualMeasureTrials) {
  // One benchmark measured through the caller's Evaluation on several
  // machines: cells come back machine-major in request order, kinds in
  // spec order, each equal to the serial oracle.
  std::vector<const MachineConfig *> Machines = {preset("mobile"),
                                                 preset("server")};
  Evaluation Eval(paperSetup("ft"));
  ExperimentSpec Spec;
  Spec.Benchmarks = {"ft"};
  Spec.Machines = Machines;
  Spec.S = Scale::Test;
  Spec.Trials = 2;
  ExperimentPlan Plan = buildPlan({Spec}, {&Eval});
  ResultSet Results = runPlan(Plan, /*Jobs=*/2);

  ASSERT_EQ(Results.size(), 6u);
  Evaluation Oracle(paperSetup("ft"));
  for (size_t C = 0; C < Results.size(); ++C) {
    SCOPED_TRACE("cell " + std::to_string(C));
    const ResultSet::Cell &Cell = Results.cells()[C];
    EXPECT_EQ(Cell.Machine, Machines[C / 3]);
    EXPECT_EQ(Cell.Key.Kind, Spec.Kinds[C % 3]);
    expectSameRuns(Cell.Runs, directRuns(Oracle, *Machines[C / 3],
                                         Spec.Kinds[C % 3], Scale::Test, 2));
  }
}

TEST(Wrappers, CompareTechniquesMatchesManualComputation) {
  const MachineConfig &Machine = *preset("mobile");
  ExperimentSpec Spec;
  Spec.Benchmarks = {"health"};
  Spec.Machines = {&Machine};
  Spec.S = Scale::Test;
  Spec.Trials = 2;
  ExperimentPlan Plan = buildPlan({Spec});
  ResultSet Results = runPlan(Plan, /*Jobs=*/2);
  ComparisonRow Row =
      comparisonRow(Results, "health", Machine.Name, Scale::Test);

  // The headline percentages, computed by hand from the oracle's runs.
  Evaluation Oracle(paperSetup("health"));
  auto Base = directRuns(Oracle, Machine, AllocatorKind::Jemalloc,
                         Scale::Test, 2);
  auto Hds = directRuns(Oracle, Machine, AllocatorKind::Hds, Scale::Test, 2);
  auto Halo = directRuns(Oracle, Machine, AllocatorKind::Halo, Scale::Test, 2);

  EXPECT_EQ(Row.Benchmark, "health");
  EXPECT_DOUBLE_EQ(Row.HdsMissReduction,
                   percentImprovement(Evaluation::medianL1Misses(Base),
                                      Evaluation::medianL1Misses(Hds)));
  EXPECT_DOUBLE_EQ(Row.HaloMissReduction,
                   percentImprovement(Evaluation::medianL1Misses(Base),
                                      Evaluation::medianL1Misses(Halo)));
  EXPECT_DOUBLE_EQ(Row.HdsSpeedup,
                   percentImprovement(Evaluation::medianSeconds(Base),
                                      Evaluation::medianSeconds(Hds)));
  EXPECT_DOUBLE_EQ(Row.HaloSpeedup,
                   percentImprovement(Evaluation::medianSeconds(Base),
                                      Evaluation::medianSeconds(Halo)));
  // A cell the plan never measured is an error, not an all-zero row.
  EXPECT_THROW(comparisonRow(Results, "health", "server", Scale::Test),
               std::logic_error);
}

TEST(Wrappers, CompareAcrossBenchmarksRepeatsDuplicateRows) {
  // A repeated name collapses into one cell block, and every listed name
  // reduces to the same row.
  ExperimentSpec Spec;
  Spec.Benchmarks = {"ft", "ft"};
  Spec.S = Scale::Test;
  Spec.Trials = 2;
  ExperimentPlan Plan = buildPlan({Spec});
  EXPECT_EQ(Plan.cells().size(), 3u);
  ResultSet Results = runPlan(Plan, /*Jobs=*/1);
  std::vector<ComparisonRow> Rows;
  for (const std::string &Name : Spec.Benchmarks)
    Rows.push_back(
        comparisonRow(Results, Name, defaultMachine().Name, Scale::Test));
  ASSERT_EQ(Rows.size(), 2u);
  EXPECT_EQ(Rows[0].Benchmark, "ft");
  EXPECT_DOUBLE_EQ(Rows[0].HaloSpeedup, Rows[1].HaloSpeedup);
  EXPECT_DOUBLE_EQ(Rows[0].HdsMissReduction, Rows[1].HdsMissReduction);
}

//===----------------------------------------------------------------------===//
// Emitters
//===----------------------------------------------------------------------===//

TEST(Emitters, SweepRowsComputeSpeedupAgainstTheirOwnBaseline) {
  ExperimentSpec Spec;
  Spec.Benchmarks = {"health"};
  Spec.Machines = {findMachine("xeon-w2195"), findMachine("mobile")};
  Spec.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Halo};
  Spec.S = Scale::Test;
  Spec.Trials = 2;
  ExperimentPlan Plan = buildPlan({Spec});
  ResultSet Results = runPlan(Plan, /*Jobs=*/1);

  std::vector<SweepRow> Rows = sweepRows(Results);
  ASSERT_EQ(Rows.size(), 4u);
  for (size_t R = 0; R < Rows.size(); ++R) {
    SCOPED_TRACE("row " + std::to_string(R));
    const ResultSet::Cell &Cell = Results.cells()[R];
    EXPECT_EQ(Rows[R].Bench, Cell.Key.Benchmark);
    EXPECT_EQ(Rows[R].Machine, Cell.Key.Machine);
    EXPECT_EQ(Rows[R].Kind, allocatorKindName(Cell.Key.Kind));
    EXPECT_EQ(Rows[R].Trials, 2);
    double Seconds = Evaluation::medianSeconds(Cell.Runs);
    EXPECT_DOUBLE_EQ(Rows[R].WallMs, Seconds * 1e3);
    if (Cell.Key.Kind == AllocatorKind::Jemalloc) {
      EXPECT_DOUBLE_EQ(Rows[R].SpeedupPercent, 0.0);
    } else {
      const ResultSet::Cell *Base = Results.find(
          Cell.Key.Benchmark, Cell.Key.Machine, AllocatorKind::Jemalloc,
          Scale::Test);
      ASSERT_NE(Base, nullptr);
      EXPECT_DOUBLE_EQ(Rows[R].SpeedupPercent,
                       percentImprovement(
                           Evaluation::medianSeconds(Base->Runs), Seconds));
    }
  }
}

TEST(Emitters, SweepRowsRejectMissingBaselines) {
  // A non-jemalloc cell with no same-key jemalloc baseline must throw:
  // a silent 0.0 would read as a genuine "no improvement" measurement.
  ExperimentSpec Spec;
  Spec.Benchmarks = {"ft"};
  Spec.Kinds = {AllocatorKind::Hds};
  Spec.S = Scale::Test;
  Spec.Trials = 1;
  ExperimentPlan Plan = buildPlan({Spec});
  ResultSet Results = runPlan(Plan, /*Jobs=*/1);
  EXPECT_THROW(sweepRows(Results), std::logic_error);
}

TEST(Emitters, ExperimentsJsonCarriesTheFullMeasurementKey) {
  ExperimentSpec Spec;
  Spec.Benchmarks = {"ft"};
  Spec.Machines = {findMachine("mobile")};
  Spec.Kinds = {AllocatorKind::Jemalloc};
  Spec.S = Scale::Test;
  Spec.Trials = 1;
  Spec.SeedBase = 7;
  ExperimentPlan Plan = buildPlan({Spec});
  ResultSet Results = runPlan(Plan, /*Jobs=*/1);

  char *Buffer = nullptr;
  size_t Size = 0;
  FILE *Out = open_memstream(&Buffer, &Size);
  ASSERT_NE(Out, nullptr);
  writeExperimentsJson(Out, Results);
  std::fclose(Out);
  std::string Json(Buffer, Size);
  free(Buffer);

  EXPECT_NE(Json.find("\"bench\": \"ft\""), std::string::npos);
  EXPECT_NE(Json.find("\"machine\": \"mobile\""), std::string::npos);
  EXPECT_NE(Json.find("\"kind\": \"jemalloc\""), std::string::npos);
  EXPECT_NE(Json.find("\"scale\": \"test\""), std::string::npos);
  EXPECT_NE(Json.find("\"seed_base\": 7"), std::string::npos);
  EXPECT_NE(Json.find("\"median_seconds\""), std::string::npos);
  EXPECT_NE(Json.find("\"runs\""), std::string::npos);
}
