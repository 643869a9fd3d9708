//===- bench/bench_experiments.cpp - Plan scheduler vs sequential sweeps -----===//
//
// The cross-dimension scheduling bench: a mixed evaluation matrix
// (2 benchmarks x 2 machines x 3 allocator kinds) run two ways --
//
//   plan:       one buildPlan/runPlan call whose record and replay stages
//               span every benchmark and machine at once, and
//   sequential: one runPlan call per benchmark, back to back (each
//               parallel internally, but the pool drains and refills at
//               every benchmark boundary).
//
// Both produce bit-identical cells (asserted); the rows record the
// wall-clock of each scheduling shape. On a single-core host the two
// collapse to the same work and the rows document parity; the win needs
// cores, where the plan keeps all workers busy across the whole matrix.
//
// A second pair of rows benches the content-addressed artifact store
// (store/ArtifactStore.h): the same plan runs twice against a fresh temp
// store -- "store_cold" records and publishes, "store_warm" re-plans
// against the populated store, must schedule zero record/materialise
// tasks (asserted), and replays bit-identically (asserted). The warm
// row's speedup_percent is its improvement over the cold row: the
// record/profile work the store deleted from the DAG.
//
// Rows append to BENCH_machines.json ({"bench", "machine", "kind",
// "wall_ms", "trials", ...}): bench "experiments_mixed", machine the
// matrix shape, kind "plan" / "sequential" / "store_cold" /
// "store_warm"; the plan row's speedup_percent is its improvement over
// the sequential row.
//
//   bench_experiments [--append] [BENCH_machines.json]
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "eval/Experiment.h"
#include "store/ArtifactStore.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <dirent.h>
#include <unistd.h>

using namespace halo;

namespace {

double nowMs() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

const char *const Benchmarks[] = {"health", "ft"};
const char *const Machines[] = {"xeon-w2195", "mobile"};

struct OutRow {
  std::string Kind;
  double WallMs = 0.0;
  int Trials = 0;
  double SpeedupPercent = 0.0;
};

/// Renders the rows in BENCH_machines.json's schema and merges them into
/// the file via the shared bench::writeJsonRows (the sweep owns the
/// file's fresh write, we append).
void writeJson(const std::string &Path, const std::vector<OutRow> &Rows,
               bool Append) {
  std::string MatrixName = std::string(Benchmarks[0]) + "+" + Benchmarks[1] +
                           "/" + Machines[0] + "+" + Machines[1];
  std::vector<std::string> Lines;
  Lines.reserve(Rows.size());
  for (const OutRow &R : Rows) {
    char Line[256];
    int N = std::snprintf(
        Line, sizeof(Line),
        "  {\"bench\": \"experiments_mixed\", \"machine\": \"%s\", "
        "\"kind\": \"%s\", \"wall_ms\": %.6f, \"trials\": %d, "
        "\"l1d_misses\": 0, \"tlb_misses\": 0, "
        "\"speedup_percent\": %.4f}",
        MatrixName.c_str(), R.Kind.c_str(), R.WallMs, R.Trials,
        R.SpeedupPercent);
    if (N < 0 || N >= static_cast<int>(sizeof(Line))) {
      // A truncated fragment would merge into the trajectory file as
      // malformed JSON with no error.
      std::fprintf(stderr, "bench_experiments: row too long\n");
      std::exit(1);
    }
    Lines.push_back(Line);
  }
  bench::writeJsonRows(Path, Lines, Append);
}

void expectIdentical(const RunMetrics &A, const RunMetrics &B,
                     const char *Where) {
  if (A.Cycles != B.Cycles || A.Mem.L1Misses != B.Mem.L1Misses ||
      A.Mem.TlbMisses != B.Mem.TlbMisses) {
    std::fprintf(stderr,
                 "bench_experiments: plan and sequential sweeps diverged "
                 "(%s)\n",
                 Where);
    std::exit(1);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  bool Append = false;
  std::string OutPath;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--append") == 0)
      Append = true;
    else
      OutPath = Argv[I];
  }

  const int Trials = bench::trials();
  std::vector<const MachineConfig *> MachinePtrs;
  for (const char *Name : Machines) {
    const MachineConfig *M = findMachine(Name);
    if (!M) {
      // A null entry would silently mean "the setup's machine" to the
      // plan; a renamed preset must fail loudly instead.
      std::fprintf(stderr, "bench_experiments: unknown machine preset %s\n",
                   Name);
      return 1;
    }
    MachinePtrs.push_back(M);
  }

  // Plan shape: the whole matrix in one spec; record and replay tasks
  // span both benchmarks and both machines.
  double PlanStart = nowMs();
  ExperimentSpec Spec;
  Spec.Benchmarks.assign(std::begin(Benchmarks), std::end(Benchmarks));
  Spec.Machines = MachinePtrs;
  Spec.S = Scale::Ref;
  Spec.Trials = Trials;
  ExperimentPlan Plan = buildPlan({Spec});
  ResultSet Results = runPlan(Plan, /*Jobs=*/0);
  double PlanMs = nowMs() - PlanStart;

  // Sequential shape: one plan per benchmark, back to back.
  double SeqStart = nowMs();
  std::vector<ResultSet> Sequential;
  for (const char *Name : Benchmarks) {
    ExperimentSpec One = Spec;
    One.Benchmarks = {Name};
    ExperimentPlan OnePlan = buildPlan({One});
    Sequential.push_back(runPlan(OnePlan, /*Jobs=*/0));
  }
  double SeqMs = nowMs() - SeqStart;

  // Scheduling must never change the numbers: every sequential cell has a
  // bit-identical twin in the whole-matrix plan's ResultSet.
  size_t SequentialCells = 0;
  for (const ResultSet &One : Sequential)
    SequentialCells += One.size();
  if (SequentialCells != Results.size()) {
    std::fprintf(stderr, "bench_experiments: sequential plans lost cells\n");
    return 1;
  }
  for (const ResultSet &One : Sequential)
    for (const ResultSet::Cell &Cell : One.cells()) {
      const ResultSet::Cell *Twin =
          Results.find(Cell.Key.Benchmark, Cell.Key.Machine, Cell.Key.Kind,
                       Cell.Key.S);
      if (!Twin || Twin->Runs.size() != Cell.Runs.size()) {
        std::fprintf(stderr, "bench_experiments: missing plan cell\n");
        return 1;
      }
      for (size_t T = 0; T < Cell.Runs.size(); ++T)
        expectIdentical(Cell.Runs[T], Twin->Runs[T],
                        Cell.Key.Benchmark.c_str());
    }

  // Store shape: the same plan twice against a fresh temp store -- the
  // first run records cold and publishes, the second must schedule zero
  // record/materialise tasks and replay bit-identically from the store.
  char StoreTemplate[] = "/tmp/halo_bench_store.XXXXXX";
  const char *StoreDir = mkdtemp(StoreTemplate);
  if (!StoreDir) {
    std::fprintf(stderr, "bench_experiments: mkdtemp failed\n");
    return 1;
  }
  double ColdMs, WarmMs;
  {
    ArtifactStore Store((std::string(StoreDir)));
    double ColdStart = nowMs();
    ExperimentPlan ColdPlan = buildPlan({Spec}, {}, &Store);
    ResultSet ColdResults = runPlan(ColdPlan, /*Jobs=*/0);
    ColdMs = nowMs() - ColdStart;

    double WarmStart = nowMs();
    ExperimentPlan WarmPlan = buildPlan({Spec}, {}, &Store);
    if (WarmPlan.numRecordings() != 0 || WarmPlan.numArtifactTasks() != 0 ||
        WarmPlan.numProfileRecordings() != 0) {
      // A warm plan that still records would silently bench the cold path
      // twice and report a fake parity.
      std::fprintf(stderr,
                   "bench_experiments: warm plan still schedules %zu "
                   "recording(s), %zu artifact task(s), %zu profile(s)\n",
                   WarmPlan.numRecordings(), WarmPlan.numArtifactTasks(),
                   WarmPlan.numProfileRecordings());
      return 1;
    }
    ResultSet WarmResults = runPlan(WarmPlan, /*Jobs=*/0);
    WarmMs = nowMs() - WarmStart;

    if (WarmResults.size() != ColdResults.size() ||
        WarmResults.size() != Results.size()) {
      std::fprintf(stderr, "bench_experiments: store runs lost cells\n");
      return 1;
    }
    for (size_t C = 0; C < ColdResults.size(); ++C) {
      for (size_t T = 0; T < ColdResults.cells()[C].Runs.size(); ++T) {
        expectIdentical(ColdResults.cells()[C].Runs[T],
                        WarmResults.cells()[C].Runs[T], "store warm");
        // And the store changed nothing vs the storeless plan above.
        expectIdentical(Results.cells()[C].Runs[T],
                        ColdResults.cells()[C].Runs[T], "store cold");
      }
    }
  }
  // Remove the temp store; the rows, not the entries, are the artifact.
  if (DIR *D = opendir(StoreDir)) {
    while (struct dirent *E = readdir(D)) {
      std::string Name = E->d_name;
      if (Name != "." && Name != "..")
        unlink((std::string(StoreDir) + "/" + Name).c_str());
    }
    closedir(D);
  }
  rmdir(StoreDir);

  std::vector<OutRow> Rows(4);
  Rows[0] = {"plan", PlanMs, Trials,
             percentImprovement(SeqMs, PlanMs)};
  Rows[1] = {"sequential", SeqMs, Trials, 0.0};
  Rows[2] = {"store_cold", ColdMs, Trials, 0.0};
  Rows[3] = {"store_warm", WarmMs, Trials,
             percentImprovement(ColdMs, WarmMs)};

  Report Table("Mixed sweep scheduling: one plan vs back-to-back sweeps");
  Table.setColumns({"shape", "wall_ms", "trials", "vs sequential"});
  for (const OutRow &R : Rows)
    Table.addRow({R.Kind, formatDouble(R.WallMs, 3),
                  std::to_string(R.Trials),
                  formatPercent(R.SpeedupPercent, 2)});
  Table.addNote("2 benchmarks x 2 machines x 3 kinds, jobs=0 (hardware "
                "concurrency), bit-identical cells asserted; the plan's "
                "cross-dimension stages need cores to pull ahead");
  Table.addNote("store_cold populates a fresh artifact store; store_warm "
                "re-plans against it, schedules zero record/materialise "
                "tasks (asserted), and replays bit-identically");
  Table.print();

  if (!OutPath.empty()) {
    writeJson(OutPath, Rows, Append);
    std::printf("\n%s %s (%zu rows)\n", Append ? "appended to" : "wrote",
                OutPath.c_str(), Rows.size());
  }
  return 0;
}
