//===- bench/figures.cpp - Section 5's figures and tables ---------------------===//
//
// Regenerates the paper's evaluation, one table row per figure, table or
// ablation: Figure 9's povray groups, Figures 12-15, Table 1, the Section
// 5.1 baseline claim, the Section 4.1/4.2/5.2 ablations and the Section
// 5.2 representation claim on roms.
//
//   figures            prints every row, in table order
//   figures NAME...    prints only the named rows
//
// Every row that measures does so through one plan (ExperimentSpec +
// buildPlan + runPlan). Rows that report medians run HALO_BENCH_TRIALS
// trials (default 3); the single-run tables and ablations run one trial
// at seed 100. The golden_figures_<name> ctests pin each row's stdout at
// HALO_BENCH_TRIALS=1.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "eval/Experiment.h"
#include "eval/Report.h"
#include "support/Format.h"
#include "support/Stats.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <string>
#include <vector>

using namespace halo;

namespace {

/// \p Kinds on every benchmark in \p Benchmarks at ref scale, \p Trials
/// trials per cell from seed 100, on the default machine. A spec with
/// \p MakeSetup measures its own setups, beside any other spec's.
ExperimentSpec spec(std::vector<std::string> Benchmarks,
                    std::vector<AllocatorKind> Kinds, int Trials,
                    std::function<BenchmarkSetup(const std::string &)>
                        MakeSetup = nullptr) {
  ExperimentSpec Spec;
  Spec.Benchmarks = std::move(Benchmarks);
  Spec.Kinds = std::move(Kinds);
  Spec.Trials = Trials;
  Spec.MakeSetup = std::move(MakeSetup);
  return Spec;
}

/// The one measurement path of every row: \p Specs as one plan over
/// every core, kept with its results so a row can read each setup's cells
/// and artifacts. Plan benchmarks are numbered in the order the specs
/// first name them. A benchmark of a spec without MakeSetup that is named
/// by an Evaluation in \p External is measured through it -- its setup,
/// and any artifacts it already holds -- instead of a paperSetup() one.
struct Measured {
  ExperimentPlan Plan;
  ResultSet Results;

  explicit Measured(const std::vector<ExperimentSpec> &Specs,
                    const std::vector<Evaluation *> &External = {})
      : Plan(buildPlan(Specs, External)), Results(runPlan(Plan)) {}

  /// The per-trial runs of plan benchmark \p Bench under \p Kind; exits
  /// if the plan never measured that cell.
  const std::vector<RunMetrics> &runs(size_t Bench, AllocatorKind Kind) {
    for (size_t C = 0; C < Plan.cells().size(); ++C)
      if (Plan.cells()[C].Bench == Bench && Plan.cells()[C].Kind == Kind)
        return Results.cells()[C].Runs;
    std::fprintf(stderr, "no %s cell for benchmark %zu\n",
                 allocatorKindName(Kind), Bench);
    std::exit(1);
  }

  Evaluation &eval(size_t Bench) { return *Plan.benchmarks()[Bench].Eval; }
};

/// The title suffix of the rows that report medians over \p Trials.
std::string mediansOf(int Trials) {
  return " (median of " + std::to_string(Trials) + " trials)";
}

/// Paper reference values, read off Figures 13/14 (approximate, in
/// percent).
struct PaperRow {
  double HdsMiss, HaloMiss, HdsSpeed, HaloSpeed;
};

PaperRow paperFigures(const std::string &Benchmark) {
  if (Benchmark == "health")
    return {17, 20, 21, 28};
  if (Benchmark == "ft")
    return {12, 14, 8, 10};
  if (Benchmark == "analyzer")
    return {9, 10, 6, 7};
  if (Benchmark == "ammp")
    return {10, 12, 8, 10};
  if (Benchmark == "art")
    return {15, 18, 10, 13};
  if (Benchmark == "equake")
    return {8, 10, 6, 8};
  if (Benchmark == "povray")
    return {2, 10, 0, 1};
  if (Benchmark == "omnetpp")
    return {0, 8, 0, 4};
  if (Benchmark == "xalanc")
    return {1, 18, 0, 16};
  if (Benchmark == "leela")
    return {2, 10, 0, 1};
  if (Benchmark == "roms")
    return {-3, 0, -1, 0};
  return {0, 0, 0, 0};
}

/// Table 1 of the paper (exact values), in the paper's order.
struct PaperFragRow {
  const char *Benchmark;
  double Percent;
  const char *Bytes;
};

const PaperFragRow PaperTable1[] = {
    {"health", 0.01, "31.98KiB"}, {"equake", 0.05, "12.08KiB"},
    {"analyzer", 0.13, "4.31KiB"}, {"ammp", 0.20, "40.97KiB"},
    {"art", 0.62, "11.70KiB"},     {"ft", 2.06, "4.05KiB"},
    {"povray", 26.47, "37.06KiB"}, {"roms", 93.60, "29.95KiB"},
    {"leela", 99.99, "2.05MiB"}};

//===----------------------------------------------------------------------===//
// Rows
//===----------------------------------------------------------------------===//

/// Figure 9: "Allocation groups generated by instrumenting the povray test
/// workload", as a group listing plus a DOT graph (nodes = allocation
/// contexts coloured by group, edge thickness = affinity weight, light
/// edges hidden to reduce visual noise).
void fig9PovrayGroups() {
  Evaluation Eval(paperSetup("povray"));
  const HaloArtifacts &Art = Eval.haloArtifacts();

  Report R("Figure 9: povray allocation groups (test workload)");
  R.setColumns({"group", "members", "weight", "accesses", "selector"});
  for (size_t G = 0; G < Art.Groups.size(); ++G) {
    std::string Members;
    for (GraphNodeId M : Art.Groups[G].Members) {
      if (!Members.empty())
        Members += ", ";
      Members += Art.Contexts.describe(M, Eval.program());
    }
    R.addRow({std::to_string(G), Members,
              std::to_string(Art.Groups[G].Weight),
              std::to_string(Art.Groups[G].Accesses),
              Art.Identification.Selectors[G].describe(Eval.program())});
  }
  R.addNote("graph: " + std::to_string(Art.Graph.numNodes()) + " nodes, " +
            std::to_string(Art.Graph.numEdges()) + " edges after the 90% "
            "coverage filter");
  R.addNote("the paper's figure groups Copy_CSG with Copy_Plane, exactly "
            "the hot pair of Section 3's motivation");
  R.print();

  // Hide light edges like the paper ("edges with weight less than 200,000
  // are hidden"); scale the cutoff to this model's traffic.
  uint64_t Cutoff = Art.Graph.totalAccesses() / 100;
  std::printf("\n%s\n", Art.groupsAsDot(Eval.program(), Cutoff).c_str());
}

/// Figure 12: "Time taken by omnetpp at various affinity distances", with
/// the unmodified-jemalloc median as the dashed baseline. The paper picks
/// A = 128 from this sweep.
void fig12AffinityDistance() {
  Report R("Figure 12: omnetpp execution time vs affinity distance");
  R.setColumns({"affinity distance", "median time (sim s)", "vs baseline"});
  const int Trials = bench::trials();
  // One plan: jemalloc on the paper's setup, then HALO at each distance
  // (a setup each, profiled concurrently).
  std::vector<ExperimentSpec> Specs = {
      spec({"omnetpp"}, {AllocatorKind::Jemalloc}, Trials)};
  for (int Power = 3; Power <= 17; Power += 2)
    Specs.push_back(spec({"omnetpp"}, {AllocatorKind::Halo}, Trials,
                         [Power](const std::string &Name) {
                           BenchmarkSetup Setup = paperSetup(Name);
                           Setup.Halo.Profile.AffinityDistance =
                               uint64_t(1) << Power;
                           return Setup;
                         }));
  Measured M(Specs);
  double BaseTime =
      Evaluation::medianSeconds(M.runs(0, AllocatorKind::Jemalloc));
  for (size_t I = 1; I < Specs.size(); ++I) {
    double Time = Evaluation::medianSeconds(M.runs(I, AllocatorKind::Halo));
    R.addRow({"2^" + std::to_string(2 * I + 1), formatDouble(Time, 4),
              formatPercent(percentImprovement(BaseTime, Time))});
  }
  R.addRow({"baseline (jemalloc)", formatDouble(BaseTime, 4), "-"});
  R.addNote("the paper picks A = 128 (2^7): good gains at low profiling "
            "overhead; distances sweep 2^3..2^17 as in Figure 12");
  R.print();
}

/// Figures 13 and 14 reduce one plan -- jemalloc, HDS and HALO on every
/// benchmark -- to the percentage by which HALO and hot-data-stream
/// co-allocation [11] reduce L1D misses (13) or execution time (14)
/// against jemalloc, medians over repeated trials.
struct Comparison {
  const char *Title;
  double ComparisonRow::*Hds;
  double ComparisonRow::*Halo;
  double PaperRow::*PaperHds;
  double PaperRow::*PaperHalo;
  const char *Notes[2];
};

const Comparison Fig13 = {
    "Figure 13: L1D cache miss reduction vs jemalloc",
    &ComparisonRow::HdsMissReduction,
    &ComparisonRow::HaloMissReduction,
    &PaperRow::HdsMiss,
    &PaperRow::HaloMiss,
    {"paper columns are approximate bar heights from Figure 13",
     "expected shape: HALO wins everywhere; HDS matches on the six "
     "prior-work benchmarks, fails on povray/omnetpp/xalanc/leela, "
     "degrades roms/omnetpp"}};

const Comparison Fig14 = {
    "Figure 14: execution time improvement vs jemalloc",
    &ComparisonRow::HdsSpeedup,
    &ComparisonRow::HaloSpeedup,
    &PaperRow::HdsSpeed,
    &PaperRow::HaloSpeed,
    {"paper columns are approximate bar heights from Figure 14",
     "povray and leela are compute-bound: their miss reductions do not "
     "move execution time (Section 5.2)"}};

void comparisonFigure(const Comparison &Fig) {
  const int Trials = bench::trials();
  Report R(Fig.Title + mediansOf(Trials));
  R.setColumns({"benchmark", "Chilimbi et al.", "HALO", "paper HDS~",
                "paper HALO~"});
  Measured M({spec(
      workloadNames(),
      {AllocatorKind::Jemalloc, AllocatorKind::Hds, AllocatorKind::Halo},
      Trials)});
  for (const std::string &Name : workloadNames()) {
    ComparisonRow Row = comparisonRow(M.Results, Name, defaultMachine().Name);
    PaperRow Paper = paperFigures(Name);
    R.addRow({Name, formatPercent(Row.*Fig.Hds), formatPercent(Row.*Fig.Halo),
              formatPercent(Paper.*Fig.PaperHds, 0),
              formatPercent(Paper.*Fig.PaperHalo, 0)});
  }
  for (const char *Note : Fig.Notes)
    R.addNote(Note);
  R.print();
}

/// Figure 15: execution-time change under "an allocator that randomly
/// assigns small objects to one of four bump allocated pools" -- HALO with
/// an extremely poor grouping algorithm. The benchmarks it hurts are the
/// placement-sensitive ones HALO helps.
void fig15RandomPools() {
  const int Trials = bench::trials();
  Report R("Figure 15: speedup under the random four-pool allocator" +
           mediansOf(Trials));
  R.setColumns({"benchmark", "speedup", "sensitive?"});
  const std::vector<std::string> &Names = workloadNames();
  Measured M({spec(
      Names, {AllocatorKind::Jemalloc, AllocatorKind::RandomPools}, Trials)});
  for (size_t I = 0; I < Names.size(); ++I) {
    double Speedup = percentImprovement(
        Evaluation::medianSeconds(M.runs(I, AllocatorKind::Jemalloc)),
        Evaluation::medianSeconds(M.runs(I, AllocatorKind::RandomPools)));
    R.addRow(
        {Names[I], formatPercent(Speedup), Speedup < -3.0 ? "yes" : "no"});
  }
  R.addNote("the paper reports slowdowns of up to ~60% for the placement-"
            "sensitive benchmarks and no change for the insensitive ones "
            "(roms et al.), aligning with where HALO helps");
  R.print();
}

/// Table 1: "Fragmentation behaviour of grouped objects at peak memory
/// usage", for the nine benchmarks the paper lists, in its order.
void table1Fragmentation() {
  Report R("Table 1: fragmentation of grouped objects at peak usage");
  R.setColumns({"benchmark", "frag (%)", "frag (bytes)", "paper (%)",
                "paper (bytes)"});
  std::vector<std::string> Names;
  for (const PaperFragRow &Paper : PaperTable1)
    Names.push_back(Paper.Benchmark);
  Measured M({spec(Names, {AllocatorKind::Halo}, 1)});
  for (size_t I = 0; I < Names.size(); ++I) {
    const PaperFragRow &Paper = PaperTable1[I];
    const FragmentationStats &Frag = M.runs(I, AllocatorKind::Halo)[0].Frag;
    R.addRow({Paper.Benchmark, formatPercent(Frag.wastedPercent()),
              formatBytes(static_cast<double>(Frag.wastedBytes())),
              formatPercent(Paper.Percent), Paper.Bytes});
  }
  R.addNote("percentages can be large while absolute waste stays small: "
            "grouped objects are a small fraction of all allocations");
  R.print();
}

/// Section 5.1: "[jemalloc] universally outperforms ptmalloc2 from glibc
/// 2.27, reducing L1 data-cache misses by as much as 32%".
void baselineAllocators() {
  const int Trials = bench::trials();
  Report R("Section 5.1: jemalloc vs ptmalloc2 baselines" +
           mediansOf(Trials));
  R.setColumns({"benchmark", "L1D miss reduction", "time improvement"});
  double MaxMiss = 0.0;
  int Wins = 0, Total = 0;
  const std::vector<std::string> &Names = workloadNames();
  Measured M({spec(
      Names, {AllocatorKind::Ptmalloc, AllocatorKind::Jemalloc}, Trials)});
  for (size_t I = 0; I < Names.size(); ++I) {
    const auto &Pt = M.runs(I, AllocatorKind::Ptmalloc);
    const auto &Je = M.runs(I, AllocatorKind::Jemalloc);
    double Miss = percentImprovement(Evaluation::medianL1Misses(Pt),
                                     Evaluation::medianL1Misses(Je));
    double Time = percentImprovement(Evaluation::medianSeconds(Pt),
                                     Evaluation::medianSeconds(Je));
    MaxMiss = std::max(MaxMiss, Miss);
    ++Total;
    Wins += Miss >= 0.0;
    R.addRow({Names[I], formatPercent(Miss), formatPercent(Time)});
  }
  R.addNote("jemalloc reduces L1D misses on " + std::to_string(Wins) + "/" +
            std::to_string(Total) + " benchmarks, by up to " +
            formatPercent(MaxMiss) + " (paper: up to 32%)");
  R.print();
}

/// Appendix A.8's allocator flags on omnetpp, whose artefact configuration
/// deviates from the defaults (128 KiB chunks, always-reused chunks): big
/// chunks fragment under churn, purging costs re-touch traffic.
void ablationChunkSize() {
  Report R("Chunk-size / spare-chunk sweep on omnetpp (HALO vs jemalloc)");
  R.setColumns({"chunk size", "spares", "purge", "speedup", "frag %",
                "frag bytes"});
  struct Config {
    uint64_t Chunk;
    uint32_t Spares;
    bool Purge;
  };
  const Config Configs[] = {
      {64 * 1024, 0, false},  {128 * 1024, 0, false}, // Paper's omnetpp flags.
      {128 * 1024, 1, true},  {512 * 1024, 0, false},
      {1024 * 1024, 0, false}, {1024 * 1024, 1, true}, // Global defaults.
  };
  // One plan: jemalloc on the paper's setup, then HALO under each
  // allocator setting. No profile reads the allocator options, so the six
  // setups share one bundle and omnetpp profiles once.
  std::vector<ExperimentSpec> Specs = {
      spec({"omnetpp"}, {AllocatorKind::Jemalloc}, 1)};
  for (const Config &C : Configs)
    Specs.push_back(
        spec({"omnetpp"}, {AllocatorKind::Halo}, 1, [C](const std::string &N) {
          BenchmarkSetup Setup = paperSetup(N);
          Setup.Allocator.ChunkSize = C.Chunk;
          Setup.Allocator.MaxSpareChunks = C.Spares;
          Setup.Allocator.PurgeEmptyChunks = C.Purge;
          return Setup;
        }));
  Measured M(Specs);
  double Jemalloc = M.runs(0, AllocatorKind::Jemalloc)[0].Seconds;
  for (size_t I = 0; I < std::size(Configs); ++I) {
    const Config &C = Configs[I];
    const RunMetrics &Halo = M.runs(I + 1, AllocatorKind::Halo)[0];
    R.addRow({formatBytes(double(C.Chunk)), std::to_string(C.Spares),
              C.Purge ? "yes" : "no",
              formatPercent(percentImprovement(Jemalloc, Halo.Seconds)),
              formatPercent(Halo.Frag.wastedPercent()),
              formatBytes(double(Halo.Frag.wastedBytes()))});
  }
  R.addNote("smaller chunks recycle faster under omnetpp's event churn; "
            "always-reuse avoids repeatedly faulting purged pages back in "
            "(the artefact's omnetpp/xalanc quirk)");
  R.print();
}

/// Section 4.1's affinity-queue constraints (deduplication, no double
/// counting, co-allocatability), each disabled in turn: how do the groups
/// and the resulting performance change? Co-allocatability guards against
/// groups that cannot be co-located at runtime.
void ablationConstraints() {
  struct Config {
    const char *Label;
    bool Dedup, NoDouble, CoAlloc;
  };
  const Config Configs[] = {
      {"all constraints (paper)", true, true, true},
      {"no deduplication", false, true, true},
      {"no double-count guard", true, false, true},
      {"no co-allocatability", true, true, false},
  };
  const std::vector<std::string> Names = {"health", "omnetpp", "roms"};
  // One plan: jemalloc on the paper's setups (benchmarks 0-2), then HALO
  // under each configuration (benchmarks 3-5, 6-8, ...).
  std::vector<ExperimentSpec> Specs = {
      spec(Names, {AllocatorKind::Jemalloc}, 1)};
  for (const Config &C : Configs)
    Specs.push_back(
        spec(Names, {AllocatorKind::Halo}, 1, [C](const std::string &N) {
          BenchmarkSetup Setup = paperSetup(N);
          Setup.Halo.Profile.Dedup = C.Dedup;
          Setup.Halo.Profile.NoDoubleCount = C.NoDouble;
          Setup.Halo.Profile.CoAllocatability = C.CoAlloc;
          return Setup;
        }));
  Measured M(Specs);
  for (size_t B = 0; B < Names.size(); ++B) {
    Report R("Affinity constraint ablation: " + Names[B]);
    R.setColumns({"configuration", "groups", "edge weight", "HALO speedup"});
    double Jemalloc = M.runs(B, AllocatorKind::Jemalloc)[0].Seconds;
    for (size_t I = 0; I < std::size(Configs); ++I) {
      const size_t Setup = (I + 1) * Names.size() + B;
      const HaloArtifacts &Art = M.eval(Setup).haloArtifacts();
      uint64_t EdgeWeight = 0;
      for (const AffinityGraph::Edge &E : Art.Graph.edges())
        EdgeWeight += E.Weight;
      double Halo = M.runs(Setup, AllocatorKind::Halo)[0].Seconds;
      R.addRow({Configs[I].Label, std::to_string(Art.Groups.size()),
                std::to_string(EdgeWeight),
                formatPercent(percentImprovement(Jemalloc, Halo))});
    }
    R.addNote("dropping co-allocatability admits groups whose members "
              "cannot actually be placed together (e.g. randomly-accessed "
              "persistent pools), diluting or reversing gains");
    R.addNote("edge weight: the affinity graph's total after the 90% "
              "coverage filter");
    R.print();
    std::printf("\n");
  }
}

/// Section 4.2: the paper's density-guided greedy grouping (Figures 6-8)
/// against a naive connectivity-based clusterer (connected components of
/// the thresholded graph, mechanically split), standing in for the
/// "standard modularity, HCS, or cut-based clustering techniques" the
/// paper found less amenable to region-based co-allocation.
void ablationGrouping() {
  Report R("Grouping algorithm ablation (HALO speedup vs jemalloc)");
  R.setColumns({"benchmark", "density greedy (paper)", "groups",
                "connected components", "groups"});
  const std::vector<std::string> Names = {"health", "povray", "xalanc",
                                          "omnetpp"};
  Measured Paper({spec(Names, {AllocatorKind::Jemalloc, AllocatorKind::Halo},
                       1)});

  // The same profile regrouped into connected components, identified and
  // compiled like any bundle, in a second Evaluation per benchmark.
  std::deque<Evaluation> Components; // Evaluations do not move.
  std::vector<Evaluation *> ComponentEvals;
  for (size_t I = 0; I < Names.size(); ++I) {
    Evaluation &E = Paper.eval(I);
    HaloArtifacts Art = E.haloArtifacts();
    Art.Groups = buildComponentGroups(Art.Graph, E.setup().Halo.Grouping);
    Art.Identification = identifyGroups(Art.Groups, Art.Contexts);
    deriveSelectors(Art, E.program());
    ComponentEvals.push_back(&Components.emplace_back(E.setup()));
    ComponentEvals.back()->setHaloArtifacts(std::move(Art));
  }
  Measured Naive({spec(Names, {AllocatorKind::Halo}, 1)}, ComponentEvals);

  for (size_t I = 0; I < Names.size(); ++I) {
    double Base = Paper.runs(I, AllocatorKind::Jemalloc)[0].Seconds;
    auto Speedup = [&](Measured &M) {
      return formatPercent(percentImprovement(
          Base, M.runs(I, AllocatorKind::Halo)[0].Seconds));
    };
    R.addRow({Names[I], Speedup(Paper),
              std::to_string(Paper.eval(I).haloArtifacts().Groups.size()),
              Speedup(Naive),
              std::to_string(Naive.eval(I).haloArtifacts().Groups.size())});
  }
  R.addNote("connected components lump weakly related contexts together, "
            "so pools mix hot and lukewarm data; the paper's density "
            "objective builds tighter groups");
  R.print();
}

/// Section 5.2's control experiment: each instrumented binary run without
/// its specialised allocator. The paper finds "noise from the surrounding
/// system is far greater than the effects of HALO's instrumentation".
void ablationInstrumentation() {
  Report R("Instrumented binary without the specialised allocator");
  R.setColumns({"benchmark", "instr ops", "time overhead", "L1D misses"});
  const std::vector<std::string> &Names = workloadNames();
  Measured M({spec(
      Names, {AllocatorKind::Jemalloc, AllocatorKind::HaloInstrumentedOnly},
      1)});
  for (size_t I = 0; I < Names.size(); ++I) {
    const RunMetrics &Base = M.runs(I, AllocatorKind::Jemalloc)[0];
    const RunMetrics &Instr =
        M.runs(I, AllocatorKind::HaloInstrumentedOnly)[0];
    double Overhead = -percentImprovement(Base.Seconds, Instr.Seconds);
    R.addRow({Names[I], std::to_string(Instr.InstrumentationOps),
              formatPercent(Overhead, 4),
              Instr.Mem.L1Misses == Base.Mem.L1Misses ? "unchanged"
                                                      : "CHANGED"});
  }
  R.addNote("instrumentation adds set/unset bit operations only; memory "
            "behaviour is identical and the cycle overhead is far below "
            "the paper's system noise floor");
  R.print();
}

/// Section 5.2 on roms: "HALO's affinity graph can represent over 90% of
/// all salient accesses in this program using only 31 nodes, the
/// hot-data-stream-based approach requires over 150,000 streams".
void romsStreamsVsNodes() {
  Report R("Section 5.2: representation sizes on roms (test input)");
  R.setColumns({"representation", "size", "covers"});

  Evaluation Eval(paperSetup("roms"));
  const HaloArtifacts &Halo = Eval.haloArtifacts();
  const HdsArtifacts &Hds = Eval.hdsArtifacts();

  R.addRow({"HALO affinity graph nodes",
            std::to_string(Halo.Graph.numNodes()),
            "90% of salient accesses"});
  R.addRow({"HDS grammar rules",
            std::to_string(Hds.Analysis.GrammarRules), "whole trace"});
  R.addRow({"HDS candidate streams",
            std::to_string(Hds.Analysis.CandidateStreams), "-"});
  R.addRow({"HDS hot streams selected",
            std::to_string(Hds.Analysis.Streams.size()),
            "90% coverage target"});
  R.addRow({"HDS trace length", std::to_string(Hds.Analysis.TraceLength),
            "-"});
  R.addNote("paper: 31 graph nodes vs >150,000 streams; the orders of "
            "magnitude (tens vs many thousands) are the reproduced claim");
  R.print();

  // The same contrast on a prior-work benchmark, where both stay small.
  Evaluation Health(paperSetup("health"));
  Report R2("Same comparison on health (regular, HDS-friendly)");
  R2.setColumns({"representation", "size"});
  R2.addRow({"HALO affinity graph nodes",
             std::to_string(Health.haloArtifacts().Graph.numNodes())});
  R2.addRow({"HDS hot streams selected",
             std::to_string(Health.hdsArtifacts().Analysis.Streams.size())});
  R2.print();
}

struct Figure {
  const char *Name;
  void (*Print)();
};

const Figure Figures[] = {
    {"fig9_povray_groups", fig9PovrayGroups},
    {"fig12_affinity_distance", fig12AffinityDistance},
    {"fig13_miss_reduction", [] { comparisonFigure(Fig13); }},
    {"fig14_speedup", [] { comparisonFigure(Fig14); }},
    {"fig15_random_pools", fig15RandomPools},
    {"table1_fragmentation", table1Fragmentation},
    {"baseline_allocators", baselineAllocators},
    {"ablation_chunk_size", ablationChunkSize},
    {"ablation_constraints", ablationConstraints},
    {"ablation_grouping", ablationGrouping},
    {"ablation_instrumentation", ablationInstrumentation},
    {"roms_streams_vs_nodes", romsStreamsVsNodes},
};

} // namespace

int main(int Argc, char **Argv) {
  std::vector<const Figure *> Selected;
  for (int I = 1; I < Argc; ++I) {
    const Figure *Found = nullptr;
    for (const Figure &F : Figures)
      if (std::strcmp(F.Name, Argv[I]) == 0)
        Found = &F;
    if (!Found) {
      std::fprintf(stderr, "error: unknown figure '%s'\nusage: figures "
                           "[NAME...]; names:\n", Argv[I]);
      for (const Figure &F : Figures)
        std::fprintf(stderr, "  %s\n", F.Name);
      return 1;
    }
    Selected.push_back(Found);
  }
  if (Selected.empty())
    for (const Figure &F : Figures)
      Selected.push_back(&F);
  for (size_t I = 0; I < Selected.size(); ++I) {
    if (I > 0)
      std::printf("\n");
    Selected[I]->Print();
  }
  return 0;
}
