//===- eval/Experiment.h - Declarative experiment plans ---------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The declarative measurement API behind every table and figure: the
/// paper's evaluation is a matrix -- benchmarks x allocator kinds x
/// machines x trials -- and an ExperimentSpec names a block of that matrix
/// directly instead of going through a bespoke driver per figure.
///
/// buildPlan() expands specs into a deduplicated task DAG over one
/// Evaluation per benchmark setup: each HALO/HDS pipeline artifact bundle
/// the cells need materialises once per store key (profiled by running the
/// profile-scale input) and is shared by every setup keying to it, and
/// every requested (cell, trial) is then one direct run of the workload
/// model (Evaluation::measureDirect). runPlan() executes that DAG on a
/// single support/Executor pool in two deterministic stages (pipeline
/// artifacts, then measurements) whose task lists span *all* benchmarks
/// and machines -- so a mixed sweep keeps every worker busy instead of
/// sharding along only one axis -- and lands the results in a ResultSet
/// keyed by the full measurement key. Every value is a deterministic
/// function of its key, so runPlan's output is bit-identical no matter how
/// many workers ran (tests/experiment_test.cpp holds the invariant).
///
/// Specs, buildPlan and runPlan are the one measurement path: every bench,
/// figure driver, halo_cli subcommand and the serve daemon goes through
/// them. SweepRow and ComparisonRow are reductions over a ResultSet; the
/// JSON and table emitters here are the single output path shared by
/// halo_cli's run, sweep, plot, and experiments subcommands.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_EVAL_EXPERIMENT_H
#define HALO_EVAL_EXPERIMENT_H

#include "eval/Evaluation.h"
#include "eval/Report.h"
#include "store/ArtifactStore.h"

#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace halo {

class Executor;

/// The stable spelling of \p Kind used in JSON output and CLI flags.
const char *allocatorKindName(AllocatorKind Kind);

/// Parses an allocatorKindName() spelling; std::nullopt for unknown names.
std::optional<AllocatorKind> parseAllocatorKind(const std::string &Name);

/// All kinds, in declaration order, for CLI listings.
const std::vector<AllocatorKind> &allAllocatorKinds();

/// The stable spelling of \p S ("test" / "ref").
const char *scaleName(Scale S);

/// Parses a scaleName() spelling; std::nullopt for unknown names.
std::optional<Scale> parseScale(const std::string &Name);

/// One axis-product block of the evaluation matrix: every benchmark in
/// \p Benchmarks measured under every machine in \p Machines with every
/// allocator kind in \p Kinds, \p Trials trials each. Specs are purely
/// declarative -- nothing profiles or runs until runPlan().
struct ExperimentSpec {
  std::vector<std::string> Benchmarks;
  /// Machines to measure under. Empty means {&defaultMachine()}: a spec
  /// naming the default preset and one naming none measure the same cells.
  std::vector<const MachineConfig *> Machines;
  std::vector<AllocatorKind> Kinds = {AllocatorKind::Jemalloc,
                                      AllocatorKind::Hds,
                                      AllocatorKind::Halo};
  Scale S = Scale::Ref;
  /// Trial T of every cell runs seed SeedBase + T. The paper runs 11
  /// trials and reports medians; seeds stand in for run-to-run variation.
  int Trials = 3;
  uint64_t SeedBase = 100;
  /// Per-benchmark configuration; null means paperSetup(). A spec that
  /// sets it owns its benchmarks: one Evaluation for each setup it makes,
  /// and cells no other spec shares, so one plan can measure several
  /// setups of one benchmark (a sweep is one spec per setup). Specs that
  /// leave it null share one Evaluation per benchmark name.
  std::function<BenchmarkSetup(const std::string &)> MakeSetup;
};

/// The most trials one cell may ask for. The serve protocol bounds a
/// request's Trials by it, and so does halo_cli's --trials, so a request
/// too large for the wire fails before anything runs.
inline constexpr int MaxTrials = 1 << 16;

/// An ExperimentSpec by name: benchmark names, machine *preset* names,
/// kinds, scale, trials, seed base. halo_cli's measuring commands build
/// one from their flags, and a serve client sends one to the daemon
/// (serve/Protocol.h encodes it). Setups stay implicit: specFor() leaves
/// MakeSetup to the caller.
struct PlanRequest {
  std::vector<std::string> Benchmarks;
  /// Preset names; empty means the default preset, as in ExperimentSpec.
  std::vector<std::string> Machines;
  std::vector<AllocatorKind> Kinds = {AllocatorKind::Jemalloc,
                                      AllocatorKind::Hds,
                                      AllocatorKind::Halo};
  Scale S = Scale::Ref;
  int Trials = 3; ///< 1 to MaxTrials.
  uint64_t SeedBase = 100;
};

/// The one PlanRequest -> ExperimentSpec conversion, shared by halo_cli,
/// the serve daemon and the "served = local" oracle, so a request means
/// the same plan everywhere. Machine names resolve through findMachine();
/// throws std::invalid_argument naming an unknown preset. MakeSetup stays
/// null (paperSetup()).
ExperimentSpec specFor(const PlanRequest &R);

/// The full key of one measured cell: what was measured, on what, how.
struct MeasurementKey {
  std::string Benchmark;
  std::string Machine; ///< MachineConfig::Name the cell ran under.
  AllocatorKind Kind = AllocatorKind::Jemalloc;
  Scale S = Scale::Ref;
  uint64_t SeedBase = 100;
  int Trials = 0;
};

/// Where every plan's measurements land: one entry per cell, in plan
/// order, each holding the per-trial RunMetrics (Runs[T] is seed
/// SeedBase + T). The emitters below are the one output path for every
/// measurement scenario.
class ResultSet {
public:
  struct Cell {
    MeasurementKey Key;
    /// The machine the cell ran on, never null in a plan's results: a
    /// preset, or a caller-owned config the spec named.
    const MachineConfig *Machine = nullptr;
    std::vector<RunMetrics> Runs;
  };

  const std::vector<Cell> &cells() const { return Cells; }
  bool empty() const { return Cells.empty(); }
  size_t size() const { return Cells.size(); }

  /// The first cell matching (\p Benchmark, \p Machine, \p Kind, \p S)
  /// and, when given, \p SeedBase / \p Trials (plans can hold several
  /// seed/trial blocks of the same coordinate); null if the plan never
  /// measured it.
  const Cell *find(const std::string &Benchmark, const std::string &Machine,
                   AllocatorKind Kind, Scale S,
                   std::optional<uint64_t> SeedBase = std::nullopt,
                   std::optional<int> Trials = std::nullopt) const;

  /// Reassembles a ResultSet from externally produced cells, in the order
  /// given -- the serve client's path: cells streamed through the daemon
  /// come back byte-identical to a local runPlan once ordered by their
  /// plan cell index. Unlike plan-produced sets, Machine pointers here
  /// are whatever the caller resolved (findMachine on the key's name) and
  /// may be null for machines this process has no config for; the
  /// emitters only read the Key.
  static ResultSet fromCells(std::vector<Cell> Cells);

private:
  friend class PlanExecution;
  std::vector<Cell> Cells;
};

/// A deduplicated, executable expansion of one or more specs. Introspect
/// it to see what runPlan() will do; the counts are what the dedup saved.
class ExperimentPlan {
public:
  /// One benchmark setup: the Evaluation its cells measure through (owned
  /// by the plan, or borrowed from the caller).
  struct Benchmark {
    std::string Name;
    Evaluation *Eval = nullptr;
  };

  /// One HALO or HDS artifact bundle the cells need and some Evaluation
  /// lacks, with its one task: a store load, or a materialisation that is
  /// then published. Setups that differ only in what measurement reads
  /// (the allocator options) share its store key, and so the bundle; the
  /// task copies it into every Evaluation listed.
  struct Bundle {
    StoreKey Key;
    bool Halo = false;   ///< The HALO bundle; else the HDS one.
    bool Stored = false; ///< A store hit at buildPlan time: a load task.
                         ///< runPlan still self-heals if the entry
                         ///< disappears or decodes corrupt, by recomputing
                         ///< (and re-publishing) inline.
    std::vector<Evaluation *> Evals; ///< Every Evaluation that needs it.
  };

  /// One cell: a (benchmark, machine, kind) coordinate plus its trial
  /// block. Machine is never null.
  struct Cell {
    size_t Bench = 0; ///< Index into benchmarks().
    const MachineConfig *Machine = nullptr;
    AllocatorKind Kind = AllocatorKind::Jemalloc;
    Scale S = Scale::Ref;
    int Trials = 0;
    uint64_t SeedBase = 100;
  };

  const std::vector<Benchmark> &benchmarks() const { return Benchmarks; }
  const std::vector<Cell> &cells() const { return Cells; }
  const std::vector<Bundle> &bundles() const { return Bundles; }

  /// HALO/HDS pipeline materialisations the plan will run (store hits
  /// are loads, and resident bundles cost nothing: neither is counted).
  size_t numArtifactTasks() const;
  /// Total measurement tasks (cells x their trials), one direct run each.
  size_t numMeasurements() const;
  /// Pipeline artifact bundles resolved from the artifact store.
  size_t numStoredArtifacts() const;
  /// Always 0: plans record no traces. Kept only for callers that still
  /// count recordings (benchmark/halo_bench_layers.cpp).
  size_t numRecordings() const { return 0; }
  /// Always 0, like numRecordings().
  size_t numProfileRecordings() const { return 0; }
  /// Always 0, like numRecordings(): plans never load a stored trace.
  size_t numStoredRecordings() const { return 0; }
  /// The store consulted at build time and published to at run time.
  ArtifactStore *store() const { return Store; }

private:
  friend ExperimentPlan buildPlan(const std::vector<ExperimentSpec> &Specs,
                                  const std::vector<Evaluation *> &External,
                                  ArtifactStore *Store);
  friend class PlanExecution;
  std::vector<Benchmark> Benchmarks;
  std::vector<Cell> Cells;
  std::vector<Bundle> Bundles;
  std::vector<std::unique_ptr<Evaluation>> Owned;
  ArtifactStore *Store = nullptr;
};

/// Expands \p Specs into a plan. A spec with MakeSetup gets its own
/// benchmarks, one Evaluation per name it lists; specs without it share
/// one per name. Identical cells of one benchmark deduplicate entirely. A
/// benchmark of the specs without MakeSetup that is named by an
/// Evaluation in \p External is measured through that caller instance
/// instead of a plan-owned one. Throws std::invalid_argument for unknown
/// benchmarks and for a null entry in a spec's Machines.
///
/// Artifact work is one bundle per distinct haloStoreKey/hdsStoreKey the
/// cells need, whichever setups need it. A bundle that every Evaluation
/// needing it already holds is resident -- no task, no store lookup, no
/// publish -- so a plan over warm Evaluations runs measurements only.
/// With \p Store, every other bundle key is looked up in the
/// content-addressed store: hits turn into load tasks (pruning the
/// materialise work from the DAG -- a fully warm plan schedules none),
/// misses run cold and publish their bundles for the next plan. Results
/// are bit-identical either way: loaded artifacts rebuild their derived
/// state deterministically.
ExperimentPlan buildPlan(const std::vector<ExperimentSpec> &Specs,
                         const std::vector<Evaluation *> &External = {},
                         ArtifactStore *Store = nullptr);

/// Invoked as soon as every trial of one cell has been measured (from
/// whichever worker thread finished the cell's last measurement): the index is
/// the cell's position in ExperimentPlan::cells() order, the reference is
/// into the eventual ResultSet and stays valid until take()/return. This
/// is how serve streams per-cell results while the plan is still running,
/// on the same execution path a local runPlan takes. Callbacks must be
/// thread-safe; a throwing callback fails its cell's task.
using CellCompletionFn =
    std::function<void(size_t CellIndex, const ResultSet::Cell &Cell)>;

/// One plan's work flattened into claimable tasks with stage barriers:
/// the execution engine under runPlan, and the unit the serve daemon's
/// scheduler multiplexes -- many PlanExecutions, one shared pool, tasks
/// interleaved fairly across clients. Scheduling *policy* stays with the
/// callers; this class owns only what a task does and when it is legal
/// to start (ROADMAP: no bespoke scheduling semantics outside the plan
/// scheduler).
///
/// The tasks come in two stages -- pipeline artifacts, then measurements
/// -- and next() enforces the stage barrier: a measurement becomes
/// claimable only once every artifact task retired. Distinct tasks of one
/// stage are safe to run from concurrent threads (the artifact caches
/// synchronise; each measurement writes only its own slot), and every
/// interleaving yields bit-identical results because every value is a
/// deterministic function of its task's key.
class PlanExecution {
public:
  /// Binds to \p Plan, which must outlive this object and not move (and
  /// must not back a second concurrent PlanExecution: claim state lives
  /// here but results accumulate per plan). \p OnCell fires immediately
  /// (on this thread) for degenerate zero-trial cells.
  explicit PlanExecution(ExperimentPlan &Plan,
                         CellCompletionFn OnCell = nullptr);

  size_t numTasks() const { return Tasks.size(); }

  /// The stage of task \p Task: 0 pipeline artifacts, 1 measurements.
  unsigned stage(size_t Task) const { return Tasks[Task].Stage; }

  /// Claims the next runnable task id, in deterministic ascending order;
  /// std::nullopt when nothing is runnable *right now* -- the plan
  /// finished, was cancelled or failed, or the current stage's remaining
  /// tasks are all claimed elsewhere (in which case more may become
  /// runnable once they retire). Thread-safe.
  std::optional<size_t> next();

  /// Runs one claimed task on the calling thread. A throwing task marks
  /// the whole plan failed (remaining tasks are abandoned) and rethrows;
  /// claimed tasks always retire, success or not. The pool parameter is
  /// ignored; it stays so existing two-argument callers keep compiling.
  void run(size_t Task, Executor * = nullptr);

  /// Stops handing out tasks; claimed ones finish normally. Idempotent.
  void cancel();

  bool cancelled() const;
  bool failed() const;
  /// The first task failure's text ("" while !failed()).
  std::string failureMessage() const;

  /// True once no task will ever run again: everything retired, or the
  /// plan was cancelled/failed and every claimed task has retired.
  bool finished() const;

  /// Moves the results out (call once, after finished()). Cells whose
  /// measurements never ran -- cancelled or failed plans -- keep
  /// default-constructed RunMetrics in their slots.
  ResultSet take() { return std::move(Results); }

private:
  struct TaskData {
    unsigned Stage = 0;
    size_t Bundle = 0; ///< Stage 0.
    size_t Cell = 0;   ///< Stage 1.
    int Trial = 0;     ///< Stage 1.
  };

  void runArtifact(const ExperimentPlan::Bundle &B);
  void runMeasurement(const TaskData &T);

  ExperimentPlan &Plan;
  CellCompletionFn OnCell;
  ResultSet Results;
  std::vector<TaskData> Tasks;
  size_t StageEnd[2] = {0, 0}; ///< Cumulative task counts.
  /// Trials still unmeasured per cell; the task that takes a cell's count
  /// to zero fires OnCell.
  std::vector<int> CellsRemaining;

  mutable std::mutex Mu;
  size_t NextTask = 0; ///< Tasks claimed so far (claims are a prefix).
  size_t Retired = 0;  ///< Claimed tasks that finished, success or not.
  bool CancelFlag = false;
  bool FailFlag = false;
  std::exception_ptr FirstError;
};

/// Executes \p Plan on one Executor pool (\p Jobs as resolveJobs()
/// interprets it) in two stages -- pipeline artifacts, then measurements
/// -- each a flat task list spanning every benchmark and machine in the
/// plan. One rule
/// schedules every stage: its tasks fan out over the pool, each running
/// serially on its worker. Results are bit-identical to a serial run
/// regardless of Jobs.
///
/// \p OnCell, when given, fires as each cell's last trial lands (see
/// CellCompletionFn) -- the serve daemon's streaming hook; the returned
/// ResultSet is unchanged by it.
ResultSet runPlan(ExperimentPlan &Plan, int Jobs = 0,
                  CellCompletionFn OnCell = nullptr);

//===----------------------------------------------------------------------===//
// Shared emitters: the one JSON / table output path.
//===----------------------------------------------------------------------===//

/// The `halo_cli run` JSON document: per-run metrics plus medians for one
/// cell's trial block (byte-stable; pinned by the golden_run_json check).
void writeRunsJson(FILE *Out, const std::string &Benchmark,
                   const std::string &Config,
                   const std::vector<RunMetrics> &Runs);

/// One BENCH_machines.json row: a (benchmark, machine, allocator kind)
/// cell of a cross-machine sweep, reduced to medians.
struct SweepRow {
  std::string Bench;
  std::string Machine;
  std::string Kind;
  double WallMs = 0.0; ///< Median simulated run time, in ms.
  int Trials = 0;
  double L1dMisses = 0.0; ///< Median per-run L1D misses.
  double TlbMisses = 0.0; ///< Median per-run dTLB misses.
  double SpeedupPercent = 0.0; ///< vs jemalloc on the same machine.
};

/// Reduces \p Results to sweep rows in cell order. speedup_percent
/// compares each cell against the jemalloc cell sharing its (benchmark,
/// machine, scale, seed block); jemalloc rows read 0, and a non-jemalloc
/// cell without a baseline throws std::logic_error rather than reading
/// as a genuine "no improvement".
std::vector<SweepRow> sweepRows(const ResultSet &Results);

/// The BENCH_machines.json document (byte-stable).
void writeSweepJson(FILE *Out, const std::vector<SweepRow> &Rows);

/// The `halo_cli sweep` table.
Report sweepReport(const std::vector<SweepRow> &Rows);

/// The data behind one bar pair of Figures 13/14.
struct ComparisonRow {
  std::string Benchmark;
  double HdsMissReduction = 0.0;  ///< % L1D misses removed vs jemalloc.
  double HaloMissReduction = 0.0;
  double HdsSpeedup = 0.0;        ///< % execution time removed vs jemalloc.
  double HaloSpeedup = 0.0;
};

/// Reduces \p Benchmark's jemalloc, HDS and HALO cells on \p Machine at
/// scale \p S to the paper's two headline percentages (medians over each
/// cell's trials). Throws std::logic_error if \p Results lacks one of the
/// three cells rather than reading as a genuine "no improvement" row.
ComparisonRow comparisonRow(const ResultSet &Results,
                            const std::string &Benchmark,
                            const std::string &Machine,
                            Scale S = Scale::Ref);

/// The unified experiments JSON: one object per cell, keyed by the full
/// measurement key, with medians and the per-run metrics.
void writeExperimentsJson(FILE *Out, const ResultSet &Results);

/// The `halo_cli experiments` table: one row per cell, medians only.
Report experimentsReport(const ResultSet &Results);

} // namespace halo

#endif // HALO_EVAL_EXPERIMENT_H
