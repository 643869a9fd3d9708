//===- eval/Experiment.cpp - Declarative experiment plans --------------------===//

#include "eval/Experiment.h"

#include "store/ArtifactStore.h"
#include "support/Executor.h"
#include "support/Format.h"
#include "support/Stats.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <tuple>

using namespace halo;

//===----------------------------------------------------------------------===//
// Names
//===----------------------------------------------------------------------===//

const char *halo::allocatorKindName(AllocatorKind Kind) {
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
    return "halo-instrumented";
  }
  return "?";
}

const std::vector<AllocatorKind> &halo::allAllocatorKinds() {
  static const std::vector<AllocatorKind> Kinds = {
      AllocatorKind::Jemalloc,    AllocatorKind::Ptmalloc,
      AllocatorKind::Halo,        AllocatorKind::Hds,
      AllocatorKind::RandomPools, AllocatorKind::HaloInstrumentedOnly};
  return Kinds;
}

std::optional<AllocatorKind> halo::parseAllocatorKind(const std::string &Name) {
  for (AllocatorKind Kind : allAllocatorKinds())
    if (Name == allocatorKindName(Kind))
      return Kind;
  return std::nullopt;
}

const char *halo::scaleName(Scale S) {
  return S == Scale::Test ? "test" : "ref";
}

std::optional<Scale> halo::parseScale(const std::string &Name) {
  if (Name == "test")
    return Scale::Test;
  if (Name == "ref")
    return Scale::Ref;
  return std::nullopt;
}

ExperimentSpec halo::specFor(const PlanRequest &R) {
  ExperimentSpec Spec;
  Spec.Benchmarks = R.Benchmarks;
  for (const std::string &Name : R.Machines) {
    const MachineConfig *M = findMachine(Name);
    if (!M)
      throw std::invalid_argument("unknown machine '" + Name + "'");
    Spec.Machines.push_back(M);
  }
  Spec.Kinds = R.Kinds;
  Spec.S = R.S;
  Spec.Trials = R.Trials;
  Spec.SeedBase = R.SeedBase;
  return Spec;
}

//===----------------------------------------------------------------------===//
// ResultSet
//===----------------------------------------------------------------------===//

const ResultSet::Cell *ResultSet::find(const std::string &Benchmark,
                                       const std::string &Machine,
                                       AllocatorKind Kind, Scale S,
                                       std::optional<uint64_t> SeedBase,
                                       std::optional<int> Trials) const {
  for (const Cell &C : Cells)
    if (C.Key.Kind == Kind && C.Key.S == S && C.Key.Benchmark == Benchmark &&
        C.Key.Machine == Machine &&
        (!SeedBase || C.Key.SeedBase == *SeedBase) &&
        (!Trials || C.Key.Trials == *Trials))
      return &C;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// buildPlan
//===----------------------------------------------------------------------===//

size_t ExperimentPlan::numArtifactTasks() const {
  return Bundles.size() - numStoredArtifacts();
}

size_t ExperimentPlan::numStoredArtifacts() const {
  return std::count_if(Bundles.begin(), Bundles.end(),
                       [](const Bundle &B) { return B.Stored; });
}

size_t ExperimentPlan::numMeasurements() const {
  size_t N = 0;
  for (const Cell &C : Cells)
    N += static_cast<size_t>(std::max(C.Trials, 0));
  return N;
}

/// Whether \p E already holds \p U's artifacts.
static bool holds(const Evaluation *E, const ExperimentPlan::Bundle &U) {
  return U.Halo ? E->hasHaloArtifacts() : E->hasHdsArtifacts();
}

ExperimentPlan halo::buildPlan(const std::vector<ExperimentSpec> &Specs,
                               const std::vector<Evaluation *> &External,
                               ArtifactStore *Store) {
  ExperimentPlan Plan;
  Plan.Store = Store;

  // Benchmark B belongs to spec Owner[B] if that spec makes its own
  // setups, and to every spec without MakeSetup if Owner[B] is
  // Specs.size(); those share one Evaluation per name.
  std::vector<size_t> Owner;
  auto FindBenchmark = [&](const std::string &Name, size_t S) -> size_t {
    const ExperimentSpec &Spec = Specs[S];
    const size_t Key = Spec.MakeSetup ? S : Specs.size();
    for (size_t B = 0; B < Plan.Benchmarks.size(); ++B)
      if (Owner[B] == Key && Plan.Benchmarks[B].Name == Name)
        return B;
    Evaluation *Eval = nullptr;
    if (!Spec.MakeSetup)
      for (Evaluation *E : External)
        if (E && E->setup().Name == Name)
          Eval = E;
    if (!Eval) {
      Plan.Owned.push_back(std::make_unique<Evaluation>(
          Spec.MakeSetup ? Spec.MakeSetup(Name) : paperSetup(Name)));
      Eval = Plan.Owned.back().get();
    }
    Plan.Benchmarks.push_back({Name, Eval});
    Owner.push_back(Key);
    return Plan.Benchmarks.size() - 1;
  };

  // Per benchmark, whether its cells need the HALO and the HDS bundle.
  std::vector<std::pair<bool, bool>> Needs;
  for (size_t S = 0; S < Specs.size(); ++S) {
    const ExperimentSpec &Spec = Specs[S];
    std::vector<const MachineConfig *> Machines =
        Spec.Machines.empty()
            ? std::vector<const MachineConfig *>{&defaultMachine()}
            : Spec.Machines;
    if (std::count(Machines.begin(), Machines.end(), nullptr))
      throw std::invalid_argument("buildPlan: a null machine in a spec");
    const int Trials = std::max(Spec.Trials, 0);
    for (const std::string &Name : Spec.Benchmarks) {
      size_t BI = FindBenchmark(Name, S);
      Needs.resize(Plan.Benchmarks.size());
      for (const MachineConfig *M : Machines) {
        for (AllocatorKind Kind : Spec.Kinds) {
          // Identical cells collapse: the matrix is a set, not a list.
          bool Duplicate = false;
          for (const ExperimentPlan::Cell &C : Plan.Cells)
            if (C.Bench == BI && C.Machine == M && C.Kind == Kind &&
                C.S == Spec.S && C.Trials == Trials &&
                C.SeedBase == Spec.SeedBase) {
              Duplicate = true;
              break;
            }
          if (Duplicate)
            continue;
          ExperimentPlan::Cell C;
          C.Bench = BI;
          C.Machine = M;
          C.Kind = Kind;
          C.S = Spec.S;
          C.Trials = Trials;
          C.SeedBase = Spec.SeedBase;
          Plan.Cells.push_back(C);
          Needs[BI].first |= Kind == AllocatorKind::Halo ||
                             Kind == AllocatorKind::HaloInstrumentedOnly;
          Needs[BI].second |= Kind == AllocatorKind::Hds;
        }
      }
    }
  }

  // One bundle per distinct store key the cells need, listing every
  // Evaluation that needs it: setups that share a key share one profile
  // or load. A bundle all of them already hold is resident and dropped:
  // no task, no store lookup, and so no republish -- Evaluation caches
  // never evict, so it cannot go missing before runPlan. Every other one
  // consults the store, where a hit prunes a materialise task from the
  // DAG. contains() fully validates entries, so a truncated or
  // bit-flipped file plans as a miss (the cold path re-profiles and
  // re-publishes it).
  for (size_t BI = 0; BI < Plan.Benchmarks.size(); ++BI) {
    const ExperimentPlan::Benchmark &B = Plan.Benchmarks[BI];
    const BenchmarkSetup &Setup = B.Eval->setup();
    for (bool Halo : {true, false}) {
      if (!(Halo ? Needs[BI].first : Needs[BI].second))
        continue;
      StoreKey Key = Halo ? haloStoreKey(B.Name, Setup.ProfileScale,
                                         Setup.ProfileSeed, Setup.Halo)
                          : hdsStoreKey(B.Name, Setup.ProfileScale,
                                        Setup.ProfileSeed, Setup.Hds);
      auto It = std::find_if(Plan.Bundles.begin(), Plan.Bundles.end(),
                             [&](const ExperimentPlan::Bundle &U) {
                               return U.Key.Hash == Key.Hash;
                             });
      if (It == Plan.Bundles.end())
        It = Plan.Bundles.insert(It, {std::move(Key), Halo, false, {}});
      It->Evals.push_back(B.Eval);
    }
  }
  auto Resident = [](const ExperimentPlan::Bundle &U) {
    return std::all_of(U.Evals.begin(), U.Evals.end(),
                       [&](Evaluation *E) { return holds(E, U); });
  };
  Plan.Bundles.erase(std::remove_if(Plan.Bundles.begin(), Plan.Bundles.end(),
                                    Resident),
                     Plan.Bundles.end());
  for (ExperimentPlan::Bundle &U : Plan.Bundles)
    U.Stored = Store && Store->contains(U.Key);
  return Plan;
}

//===----------------------------------------------------------------------===//
// PlanExecution
//===----------------------------------------------------------------------===//

ResultSet ResultSet::fromCells(std::vector<Cell> CellsIn) {
  ResultSet Results;
  Results.Cells = std::move(CellsIn);
  return Results;
}

PlanExecution::PlanExecution(ExperimentPlan &PlanIn,
                             CellCompletionFn OnCellIn)
    : Plan(PlanIn), OnCell(std::move(OnCellIn)) {
  Results.Cells.resize(Plan.Cells.size());
  CellsRemaining.resize(Plan.Cells.size(), 0);
  for (size_t C = 0; C < Plan.Cells.size(); ++C) {
    const ExperimentPlan::Cell &PC = Plan.Cells[C];
    const ExperimentPlan::Benchmark &B = Plan.Benchmarks[PC.Bench];
    ResultSet::Cell &RC = Results.Cells[C];
    RC.Machine = PC.Machine;
    RC.Key.Benchmark = B.Name;
    RC.Key.Machine = RC.Machine->Name;
    RC.Key.Kind = PC.Kind;
    RC.Key.S = PC.S;
    RC.Key.SeedBase = PC.SeedBase;
    RC.Key.Trials = PC.Trials;
    RC.Runs.resize(static_cast<size_t>(PC.Trials));
    CellsRemaining[C] = PC.Trials;
  }

  // Stage 0: pipeline artifacts, one independent task per bundle --
  // either a store load or a cold materialise-and-publish (a corrupt
  // stored bundle falls back to materialising).
  for (size_t U = 0; U < Plan.Bundles.size(); ++U) {
    TaskData T;
    T.Bundle = U;
    Tasks.push_back(T);
  }
  StageEnd[0] = Tasks.size();

  // Stage 1: measurements, one task per (cell, trial), each a direct run
  // of the workload model. Every artifact is cached by then, so tasks
  // only read shared state; slot (C, T) always holds seed SeedBase + T,
  // making the ResultSet bit-identical to a serial run no matter the
  // interleaving.
  for (size_t C = 0; C < Plan.Cells.size(); ++C)
    for (int Trial = 0; Trial < Plan.Cells[C].Trials; ++Trial) {
      TaskData T;
      T.Stage = 1;
      T.Cell = C;
      T.Trial = Trial;
      Tasks.push_back(T);
    }
  StageEnd[1] = Tasks.size();

  // Zero-trial cells have no measurement task to complete them; they are
  // complete (empty) from the start.
  if (OnCell)
    for (size_t C = 0; C < CellsRemaining.size(); ++C)
      if (CellsRemaining[C] == 0)
        OnCell(C, Results.Cells[C]);
}

std::optional<size_t> PlanExecution::next() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (CancelFlag || FailFlag)
    return std::nullopt;
  // The current stage is the first whose tasks have not all retired; its
  // unclaimed tasks are runnable, later stages wait behind the barrier.
  unsigned Stage = 0;
  while (Stage < 2 && Retired >= StageEnd[Stage])
    ++Stage;
  if (Stage == 2 || NextTask >= StageEnd[Stage])
    return std::nullopt;
  return NextTask++;
}

void PlanExecution::runArtifact(const ExperimentPlan::Bundle &B) {
  // A bundle some Evaluation already holds (a concurrent plan sharing it
  // got there first) was published by whoever materialised or loaded it,
  // so it is only copied. A stored bundle loads; one that vanished or
  // decodes corrupt since buildPlan falls back to materialising inline,
  // so the run self-heals instead of failing. Only a bundle this task
  // materialised is published. Every other Evaluation gets a copy.
  ArtifactStore *Store = Plan.Store;
  auto Holder = std::find_if(B.Evals.begin(), B.Evals.end(),
                             [&](Evaluation *E) { return holds(E, B); });
  const bool Fetch = Holder == B.Evals.end() && Store;
  Evaluation &From = Holder != B.Evals.end() ? **Holder : *B.Evals.front();
  if (B.Halo) {
    std::optional<HaloArtifacts> Loaded;
    if (Fetch && B.Stored)
      Loaded = getHaloArtifacts(*Store, B.Key, From.program());
    if (Loaded)
      From.setHaloArtifacts(std::move(*Loaded));
    const HaloArtifacts &Art = From.haloArtifacts();
    if (Fetch && !Loaded)
      putHaloArtifacts(*Store, B.Key, Art);
    for (Evaluation *E : B.Evals)
      if (E != &From)
        E->setHaloArtifacts(Art);
  } else {
    std::optional<HdsArtifacts> Loaded;
    if (Fetch && B.Stored)
      Loaded = getHdsArtifacts(*Store, B.Key);
    if (Loaded)
      From.setHdsArtifacts(std::move(*Loaded));
    const HdsArtifacts &Art = From.hdsArtifacts();
    if (Fetch && !Loaded)
      putHdsArtifacts(*Store, B.Key, Art);
    for (Evaluation *E : B.Evals)
      if (E != &From)
        E->setHdsArtifacts(Art);
  }
}

void PlanExecution::runMeasurement(const TaskData &Task) {
  const ExperimentPlan::Cell &PC = Plan.Cells[Task.Cell];
  Evaluation &E = *Plan.Benchmarks[PC.Bench].Eval;
  uint64_t Seed = PC.SeedBase + static_cast<uint64_t>(Task.Trial);
  Results.Cells[Task.Cell].Runs[static_cast<size_t>(Task.Trial)] =
      E.measureDirect(*PC.Machine, PC.Kind, PC.S, Seed);
}

void PlanExecution::run(size_t Task, Executor *) {
  const TaskData &T = Tasks[Task];
  try {
    if (T.Stage == 0) {
      runArtifact(Plan.Bundles[T.Bundle]);
    } else {
      runMeasurement(T);
      bool CellDone;
      {
        std::lock_guard<std::mutex> Lock(Mu);
        CellDone = --CellsRemaining[T.Cell] == 0;
      }
      // Fired from the finishing worker, outside the claim lock; the
      // cell's slots are all written, so the reference is stable. A
      // throwing callback fails this task like any other error.
      if (CellDone && OnCell)
        OnCell(T.Cell, Results.Cells[T.Cell]);
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      FailFlag = true;
      if (!FirstError)
        FirstError = std::current_exception();
      ++Retired;
    }
    throw;
  }
  std::lock_guard<std::mutex> Lock(Mu);
  ++Retired;
}

void PlanExecution::cancel() {
  std::lock_guard<std::mutex> Lock(Mu);
  CancelFlag = true;
}

bool PlanExecution::cancelled() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return CancelFlag;
}

bool PlanExecution::failed() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return FailFlag;
}

std::string PlanExecution::failureMessage() const {
  std::exception_ptr Error;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Error = FirstError;
  }
  if (!Error)
    return "";
  try {
    std::rethrow_exception(Error);
  } catch (const std::exception &E) {
    return E.what();
  } catch (...) {
    return "unknown error";
  }
}

bool PlanExecution::finished() const {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Retired == Tasks.size())
    return true;
  // Cancelled or failed: done once the already-claimed tasks drain.
  return (CancelFlag || FailFlag) && Retired == NextTask;
}

//===----------------------------------------------------------------------===//
// runPlan
//===----------------------------------------------------------------------===//

ResultSet halo::runPlan(ExperimentPlan &Plan, int Jobs,
                        CellCompletionFn OnCell) {
  PlanExecution Exec(Plan, std::move(OnCell));
  // One pool drives both stages; the stage task lists are flat across
  // every benchmark and machine, so a mixed sweep fills the pool at cell
  // granularity instead of sharding along a single axis.
  Executor Pool(Jobs);
  for (;;) {
    // Nothing is in flight between batches, so next() drains exactly one
    // whole stage per iteration (the barrier admits no more).
    std::vector<size_t> Batch;
    while (std::optional<size_t> T = Exec.next())
      Batch.push_back(*T);
    if (Batch.empty())
      break;
    Pool.parallelFor(Batch.size(), [&](size_t I) { Exec.run(Batch[I]); });
  }
  return Exec.take();
}

//===----------------------------------------------------------------------===//
// Emitters
//===----------------------------------------------------------------------===//

/// The per-run JSON object shared by the run document and the unified
/// experiments document (field set and formatting are byte-pinned by the
/// golden_run_json check).
static void writeRunObject(FILE *Out, const RunMetrics &M) {
  std::fprintf(Out,
               "{\"seconds\": %.9f, \"cycles\": %llu, "
               "\"l1d_accesses\": %llu, \"l1d_misses\": %llu, "
               "\"l2_misses\": %llu, \"l3_misses\": %llu, "
               "\"tlb_misses\": %llu, \"grouped_allocs\": %llu, "
               "\"forwarded_allocs\": %llu, \"frag_percent\": %.4f, "
               "\"frag_bytes\": %llu}",
               M.Seconds, (unsigned long long)M.Cycles,
               (unsigned long long)M.Mem.Accesses,
               (unsigned long long)M.Mem.L1Misses,
               (unsigned long long)M.Mem.L2Misses,
               (unsigned long long)M.Mem.L3Misses,
               (unsigned long long)M.Mem.TlbMisses,
               (unsigned long long)M.GroupedAllocs,
               (unsigned long long)M.ForwardedAllocs, M.Frag.wastedPercent(),
               (unsigned long long)M.Frag.wastedBytes());
}

void halo::writeRunsJson(FILE *Out, const std::string &Benchmark,
                         const std::string &Config,
                         const std::vector<RunMetrics> &Runs) {
  std::fprintf(Out,
               "{\n  \"benchmark\": \"%s\",\n  \"configuration\": \"%s\",\n"
               "  \"runs\": [\n",
               Benchmark.c_str(), Config.c_str());
  for (size_t I = 0; I < Runs.size(); ++I) {
    std::fputs("    ", Out);
    writeRunObject(Out, Runs[I]);
    std::fprintf(Out, "%s\n", I + 1 < Runs.size() ? "," : "");
  }
  std::fprintf(Out,
               "  ],\n  \"median_seconds\": %.9f,\n"
               "  \"median_l1d_misses\": %.0f\n}\n",
               Evaluation::medianSeconds(Runs),
               Evaluation::medianL1Misses(Runs));
}

std::vector<SweepRow> halo::sweepRows(const ResultSet &Results) {
  // speedup% compares each cell against the jemalloc cell sharing every
  // non-kind key dimension (benchmark, machine, scale, seed block);
  // keyed by content, not position, so the cell layout is free to change
  // without mislabelling rows, and mixed-scale result sets never borrow
  // a baseline from the wrong scale. The machine is the resolved POINTER
  // (distinct caller-owned configs may share a name but are distinct
  // cells), matching how the plan itself keys cells.
  using BaselineKey =
      std::tuple<std::string, const MachineConfig *, int, uint64_t, int>;
  auto KeyOf = [](const ResultSet::Cell &Cell) {
    return BaselineKey{Cell.Key.Benchmark, Cell.Machine,
                       static_cast<int>(Cell.Key.S), Cell.Key.SeedBase,
                       Cell.Key.Trials};
  };
  std::map<BaselineKey, double> BaselineSeconds;
  for (const ResultSet::Cell &Cell : Results.cells())
    if (Cell.Key.Kind == AllocatorKind::Jemalloc)
      BaselineSeconds[KeyOf(Cell)] = Evaluation::medianSeconds(Cell.Runs);

  std::vector<SweepRow> Rows;
  Rows.reserve(Results.size());
  for (const ResultSet::Cell &Cell : Results.cells()) {
    double Seconds = Evaluation::medianSeconds(Cell.Runs);
    SweepRow Row;
    Row.Bench = Cell.Key.Benchmark;
    Row.Machine = Cell.Key.Machine;
    Row.Kind = allocatorKindName(Cell.Key.Kind);
    Row.WallMs = Seconds * 1e3;
    Row.Trials = Cell.Key.Trials;
    Row.L1dMisses = Evaluation::medianL1Misses(Cell.Runs);
    Row.TlbMisses = Evaluation::medianTlbMisses(Cell.Runs);
    if (Cell.Key.Kind == AllocatorKind::Jemalloc) {
      Row.SpeedupPercent = 0.0;
    } else {
      auto Baseline = BaselineSeconds.find(KeyOf(Cell));
      // A missing baseline must fail loudly: a silent 0.0 would read as
      // a genuine "no improvement" measurement.
      if (Baseline == BaselineSeconds.end())
        throw std::logic_error(
            "sweepRows: no jemalloc baseline cell for " +
            Cell.Key.Benchmark + " on " + Cell.Key.Machine);
      Row.SpeedupPercent = percentImprovement(Baseline->second, Seconds);
    }
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

void halo::writeSweepJson(FILE *Out, const std::vector<SweepRow> &Rows) {
  std::fputs("[\n", Out);
  for (size_t I = 0; I < Rows.size(); ++I) {
    const SweepRow &R = Rows[I];
    std::fprintf(Out,
                 "  {\"bench\": \"%s\", \"machine\": \"%s\", "
                 "\"kind\": \"%s\", \"wall_ms\": %.6f, \"trials\": %d, "
                 "\"l1d_misses\": %.0f, \"tlb_misses\": %.0f, "
                 "\"speedup_percent\": %.4f}%s\n",
                 R.Bench.c_str(), R.Machine.c_str(), R.Kind.c_str(),
                 R.WallMs, R.Trials, R.L1dMisses, R.TlbMisses,
                 R.SpeedupPercent, I + 1 < Rows.size() ? "," : "");
  }
  std::fputs("]\n", Out);
}

Report halo::sweepReport(const std::vector<SweepRow> &Rows) {
  Report Table("Cross-machine sweep: median run time / misses per machine");
  Table.setColumns({"bench", "machine", "kind", "wall_ms", "l1d_misses",
                    "tlb_misses", "speedup%"});
  for (const SweepRow &R : Rows)
    Table.addRow({R.Bench, R.Machine, R.Kind, formatDouble(R.WallMs, 3),
                  formatDouble(R.L1dMisses, 0), formatDouble(R.TlbMisses, 0),
                  formatDouble(R.SpeedupPercent, 2)});
  Table.addNote("wall_ms: median simulated run time on that machine; "
                "speedup%: vs jemalloc on the same machine");
  return Table;
}

ComparisonRow halo::comparisonRow(const ResultSet &Results,
                                  const std::string &Benchmark,
                                  const std::string &Machine, Scale S) {
  const ResultSet::Cell *Base =
      Results.find(Benchmark, Machine, AllocatorKind::Jemalloc, S);
  const ResultSet::Cell *Hds =
      Results.find(Benchmark, Machine, AllocatorKind::Hds, S);
  const ResultSet::Cell *Halo =
      Results.find(Benchmark, Machine, AllocatorKind::Halo, S);
  // A missing cell is a plan/lookup logic error; an all-zero row would
  // read as a genuine "no improvement" measurement.
  if (!Base || !Hds || !Halo)
    throw std::logic_error("comparisonRow: no jemalloc/hds/halo cell for " +
                           Benchmark + " on " + Machine);

  ComparisonRow Row;
  Row.Benchmark = Benchmark;
  Row.HdsMissReduction =
      percentImprovement(Evaluation::medianL1Misses(Base->Runs),
                         Evaluation::medianL1Misses(Hds->Runs));
  Row.HaloMissReduction =
      percentImprovement(Evaluation::medianL1Misses(Base->Runs),
                         Evaluation::medianL1Misses(Halo->Runs));
  Row.HdsSpeedup = percentImprovement(Evaluation::medianSeconds(Base->Runs),
                                      Evaluation::medianSeconds(Hds->Runs));
  Row.HaloSpeedup = percentImprovement(Evaluation::medianSeconds(Base->Runs),
                                       Evaluation::medianSeconds(Halo->Runs));
  return Row;
}

void halo::writeExperimentsJson(FILE *Out, const ResultSet &Results) {
  std::fputs("[\n", Out);
  const std::vector<ResultSet::Cell> &Cells = Results.cells();
  for (size_t C = 0; C < Cells.size(); ++C) {
    const ResultSet::Cell &Cell = Cells[C];
    std::fprintf(Out,
                 "  {\"bench\": \"%s\", \"machine\": \"%s\", "
                 "\"kind\": \"%s\", \"scale\": \"%s\", \"trials\": %d, "
                 "\"seed_base\": %llu,\n"
                 "   \"median_seconds\": %.9f, \"median_l1d_misses\": %.0f, "
                 "\"median_tlb_misses\": %.0f,\n"
                 "   \"runs\": [\n",
                 Cell.Key.Benchmark.c_str(), Cell.Key.Machine.c_str(),
                 allocatorKindName(Cell.Key.Kind), scaleName(Cell.Key.S),
                 Cell.Key.Trials, (unsigned long long)Cell.Key.SeedBase,
                 Evaluation::medianSeconds(Cell.Runs),
                 Evaluation::medianL1Misses(Cell.Runs),
                 Evaluation::medianTlbMisses(Cell.Runs));
    for (size_t R = 0; R < Cell.Runs.size(); ++R) {
      std::fputs("     ", Out);
      writeRunObject(Out, Cell.Runs[R]);
      std::fprintf(Out, "%s\n", R + 1 < Cell.Runs.size() ? "," : "");
    }
    std::fprintf(Out, "   ]}%s\n", C + 1 < Cells.size() ? "," : "");
  }
  std::fputs("]\n", Out);
}

Report halo::experimentsReport(const ResultSet &Results) {
  Report Table("Experiment matrix: one row per (benchmark, machine, kind) "
               "cell");
  Table.setColumns({"bench", "machine", "kind", "scale", "trials", "wall_ms",
                    "l1d_misses", "tlb_misses"});
  for (const ResultSet::Cell &Cell : Results.cells())
    Table.addRow({Cell.Key.Benchmark, Cell.Key.Machine,
                  allocatorKindName(Cell.Key.Kind), scaleName(Cell.Key.S),
                  std::to_string(Cell.Key.Trials),
                  formatDouble(Evaluation::medianSeconds(Cell.Runs) * 1e3, 3),
                  formatDouble(Evaluation::medianL1Misses(Cell.Runs), 0),
                  formatDouble(Evaluation::medianTlbMisses(Cell.Runs), 0)});
  Table.addNote("wall_ms: median simulated run time; every cell is keyed by "
                "the full measurement key");
  return Table;
}
