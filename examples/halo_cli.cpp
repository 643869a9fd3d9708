//===- examples/halo_cli.cpp - Artefact-style command-line driver --------------===//
//
// Mirrors the workflow of the paper's artefact (Appendix A.5): the halo
// tool's `baseline`, `run`, and `plot` commands, which carry out baseline
// and HALO-optimised runs for each workload and plot results. Run output
// is JSON "containing the specific data points for each run" (A.6);
// `plot` renders ASCII bar charts of the Figure 13/14 series. The
// artefact's per-benchmark flags (A.8) are accepted too.
//
// Every command is one row of the Commands table below: the benchmarks
// it takes, the flags it accepts, and its handler. Parsing, usage() and
// dispatch all read that table, so a flag or positional outside a row is
// a usage error naming the commands that take it. `halo_cli` with no
// arguments prints the table.
//
// Every measuring command turns its flags into one PlanRequest
// (requestFor) and measures the ExperimentSpec specFor() makes of it
// through the one plan scheduler (eval/Experiment.h) -- the conversion
// the serve daemon (serve/Server.h) applies to a `client run` request, so
// a served plan's JSON is byte-identical to a local `experiments` run of
// the same flags ("served = local"). Measurements run on a simulated
// machine model (sim/Machine.h); the default preset is xeon-w2195, the
// paper's evaluation machine.
//
// --store-dir DIR (or $HALO_STORE) attaches the content-addressed artifact
// store (store/ArtifactStore.h): HALO/HDS bundles hit in the store load
// instead of re-profiling, and cold ones publish for the next invocation;
// warm results are bit-identical to cold ones. --out writes a command's
// JSON document through FILE.tmp renamed into place (an existing device
// or FIFO is written directly); a failed write exits 1 and leaves the
// previous file alone.
//
//===----------------------------------------------------------------------===//

#include "eval/Evaluation.h"
#include "eval/Experiment.h"
#include "eval/Report.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "store/ArtifactStore.h"
#include "support/Executor.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include <sys/stat.h>

using namespace halo;

namespace {

/// Flag bits: each command row accepts a mask of these, positionals
/// included.
namespace flag {
enum : unsigned {
  Trials = 1u << 0,
  Jobs = 1u << 1,
  Machine = 1u << 2,
  Machines = 1u << 3,
  Kinds = 1u << 4,
  Scale = 1u << 5,
  SeedBase = 1u << 6,
  Out = 1u << 7,
  StoreDir = 1u << 8,
  Socket = 1u << 9,
  ChunkSize = 1u << 10,
  MaxSpareChunks = 1u << 11,
  MaxGroups = 1u << 12,
  AffinityDistance = 1u << 13,
  /// Positionals: one benchmark right after the command, or a list.
  Benchmark = 1u << 14,
  BenchmarkList = 1u << 15,
  /// The BenchmarkSetup knobs of the artefact's per-benchmark flags.
  Setup = ChunkSize | MaxSpareChunks | MaxGroups | AffinityDistance,
  /// What every local measuring command takes.
  Measure = Trials | Jobs | Machine | Setup,
  /// The matrix axes beyond one machine and the compared kinds.
  Matrix = Machines | Kinds | Scale | SeedBase,
};
} // namespace flag

/// One flag: its spelling, its value, and for a numeric flag the range
/// the value must fit (Max == 0 marks a text flag).
struct FlagInfo {
  unsigned Bit;
  const char *Name;
  const char *Value; ///< The value's placeholder in usage().
  uint64_t Min, Max;
  const char *Help;
};

const FlagInfo Flags[] = {
    {flag::Trials, "--trials", "N", 1, MaxTrials,
     "trials per cell (default 3)"},
    {flag::Jobs, "--jobs", "N", 0, INT_MAX,
     "workers (0, the default: $HALO_JOBS, else all cores)"},
    {flag::Machine, "--machine", "NAME", 0, 0, "machine to measure"},
    {flag::Machines, "--machines", "NAME,...|all", 0, 0, "machines to measure"},
    {flag::Kinds, "--kinds", "KIND,...", 0, 0, "allocator kinds to measure"},
    {flag::Scale, "--scale", "test|ref", 0, 0, "input scale (default ref)"},
    {flag::SeedBase, "--seed-base", "N", 0, UINT64_MAX,
     "trial T runs seed N+T (default 100)"},
    {flag::Out, "--out", "FILE", 0, 0, "write the JSON document to FILE"},
    {flag::StoreDir, "--store-dir", "DIR", 0, 0,
     "artifact store (default $HALO_STORE)"},
    {flag::Socket, "--socket", "PATH", 0, 0, "the daemon's Unix socket"},
    {flag::ChunkSize, "--chunk-size", "BYTES", 1, UINT64_MAX,
     "group allocator chunk size (a power of two)"},
    {flag::MaxSpareChunks, "--max-spare-chunks", "N", 0, INT_MAX,
     "empty chunks kept for reuse"},
    {flag::MaxGroups, "--max-groups", "N", 1, UINT32_MAX, "max HALO groups"},
    {flag::AffinityDistance, "--affinity-distance", "BYTES", 1, UINT64_MAX,
     "HALO affinity distance"},
};

struct Command;

/// A parsed command line: the row it names and the flags it gave.
struct CliOptions {
  const Command *Cmd = nullptr;
  std::vector<std::string> Benchmarks;
  std::map<unsigned, std::string> Texts; ///< Given text flags, by bit.
  std::map<unsigned, uint64_t> Numbers;  ///< Given numeric flags, by bit.

  bool has(unsigned Flag) const {
    return Texts.count(Flag) || Numbers.count(Flag);
  }
  /// A text flag's value; "" when not given.
  std::string text(unsigned Flag) const {
    auto It = Texts.find(Flag);
    return It == Texts.end() ? "" : It->second;
  }
  /// A numeric flag's value; \p Default when not given.
  uint64_t number(unsigned Flag, uint64_t Default) const {
    auto It = Numbers.find(Flag);
    return It == Numbers.end() ? Default : It->second;
  }
  std::string outPath() const { return text(flag::Out); } ///< "" = stdout.
  std::string socketPath() const { return text(flag::Socket); }
  /// --jobs; 0, the default, explicitly requests "pick for me", which
  /// halo::resolveJobs (support/Executor.h) alone decides.
  int jobs() const { return static_cast<int>(number(flag::Jobs, 0)); }
};

/// One row of the command table.
struct Command {
  const char *Name; ///< "run", or a verb row such as "store ls".
  unsigned Accepts;  ///< Flag and positional bits.
  unsigned Requires; ///< Flag bits it cannot run without.
  int (*Run)(const CliOptions &);
  const char *Help;
};

[[noreturn]] void usage();

[[noreturn]] void usageError(const std::string &Message) {
  std::fprintf(stderr, "halo_cli: error: %s\n", Message.c_str());
  usage();
}

/// \p Names joined by spaces, for listings and error messages.
std::string joined(const std::vector<std::string> &Names) {
  std::string Text;
  for (const std::string &Name : Names)
    Text += (Text.empty() ? "" : " ") + Name;
  return Text;
}

/// Space-joined allocator kind names for error messages.
std::string knownKinds() {
  std::string Known;
  for (AllocatorKind Kind : allAllocatorKinds())
    Known += (Known.empty() ? "" : " ") + std::string(allocatorKindName(Kind));
  return Known;
}

/// Strict argument cursor: yields arguments in order and owns the
/// error-checked value parsing.
class FlagParser {
public:
  FlagParser(int Argc, char **Argv, int First)
      : Argc(Argc), Argv(Argv), I(First) {}

  bool done() const { return I >= Argc; }
  std::string next() { return Argv[I++]; }

  /// The raw value following flag \p Flag; errors if none is left.
  const char *value(const std::string &Flag) {
    if (I >= Argc)
      usageError("flag " + Flag + " expects a value");
    return Argv[I++];
  }

  /// Strict decimal parse: the whole value must be digits and fit
  /// [Min, Max] (atoi's silent "--trials x" -> 0, and a narrowing cast's
  /// silent "--trials 4294967296" -> 0, are exactly the bugs this
  /// forbids).
  uint64_t unsignedValue(const std::string &Flag, uint64_t Min,
                         uint64_t Max = UINT64_MAX) {
    const char *Text = value(Flag);
    errno = 0;
    char *End = nullptr;
    unsigned long long Parsed = std::strtoull(Text, &End, 10);
    // The digit check comes first: strtoull itself would accept (and
    // negate) a leading sign or skip leading blanks.
    if (!std::isdigit(static_cast<unsigned char>(*Text)) || *End != '\0')
      usageError("invalid value for " + Flag + ": '" + Text +
                 "' (expected a number)");
    if (errno == ERANGE || Parsed > Max)
      usageError("value for " + Flag + " out of range: '" + Text + "'");
    if (Parsed < Min)
      usageError("value for " + Flag + " too small: '" + Text + "'");
    return Parsed;
  }

private:
  int Argc;
  char **Argv;
  int I;
};

/// True when \p Path names an existing file that is not a regular file (a
/// device such as /dev/null, or a FIFO). Such a --out target is written in
/// place: renaming a temp file over it would replace the node itself.
bool writesInPlace(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && !S_ISREG(St.st_mode);
}

/// The temp file of the --out document being written ("" when none), so a
/// command that fails after opening it leaves only the previous file:
/// discardOutput() removes it, and main calls that for a command that
/// throws.
std::string OpenTemp;

/// Opens the --out path for one JSON document ("" = stdout). Callers
/// open BEFORE measuring so an unwritable path fails fast instead of
/// discarding an arbitrarily long run; the stream actually targets
/// Path + ".tmp" so an interrupted or failed run never clobbers the
/// previous file — closeOutput() renames it into place on success.
/// Devices and FIFOs (writesInPlace) are opened directly instead.
FILE *openOutput(const std::string &Path) {
  if (Path.empty())
    return stdout;
  bool InPlace = writesInPlace(Path);
  std::string Target = InPlace ? Path : Path + ".tmp";
  FILE *Out = std::fopen(Target.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "halo_cli: cannot write %s\n", Path.c_str());
    std::exit(1);
  }
  if (!InPlace)
    OpenTemp = Target;
  return Out;
}

/// Removes the temp file openOutput() opened, if any.
void discardOutput() {
  if (!OpenTemp.empty())
    std::remove(OpenTemp.c_str());
  OpenTemp.clear();
}

/// Closes an openOutput() stream, moves the temp file into place, and
/// acknowledges file writes; \p Detail is appended to the notice
/// (e.g. " (12 rows)"). A failed write (ENOSPC, EIO, ...) removes the
/// temp file, leaving any previous document untouched, and exits 1.
void closeOutput(FILE *Out, const std::string &Path,
                 const std::string &Detail = "") {
  if (Out == stdout)
    return;
  // fflush surfaces an error a buffered write deferred, ferror one an
  // earlier write already hit, and fclose can still fail on its own.
  errno = 0;
  bool Failed = std::fflush(Out) != 0 || std::ferror(Out);
  int Errno = errno;
  if (std::fclose(Out) != 0 && !Failed) {
    Failed = true;
    Errno = errno;
  }
  if (Failed) {
    discardOutput();
    std::fprintf(stderr, "halo_cli: cannot write %s: %s\n", Path.c_str(),
                 Errno ? std::strerror(Errno) : "write error");
    std::exit(1);
  }
  if (!OpenTemp.empty() && std::rename(OpenTemp.c_str(), Path.c_str()) != 0) {
    discardOutput();
    std::fprintf(stderr, "halo_cli: cannot move %s into place\n",
                 Path.c_str());
    std::exit(1);
  }
  OpenTemp.clear();
  std::printf("wrote %s%s\n", Path.c_str(), Detail.c_str());
}

/// Opens the artifact store the options select: --store-dir, else
/// $HALO_STORE, else none. Opened BEFORE measuring (like openOutput) so a
/// bad or unwritable directory fails fast with the usage message instead
/// of silently turning every warm run cold.
std::optional<ArtifactStore> openStore(const CliOptions &Opts) {
  std::string Dir = Opts.text(flag::StoreDir);
  if (Dir.empty())
    if (const char *Env = std::getenv("HALO_STORE"))
      Dir = Env;
  if (Dir.empty())
    return std::nullopt;
  try {
    return ArtifactStore(std::move(Dir));
  } catch (const std::runtime_error &E) {
    usageError(E.what());
  }
}

/// The paper's setup for \p Benchmark with the setup flags applied.
BenchmarkSetup setupFor(const CliOptions &Opts, const std::string &Benchmark) {
  BenchmarkSetup Setup = paperSetup(Benchmark);
  GroupAllocatorOptions &A = Setup.Allocator;
  A.ChunkSize = Opts.number(flag::ChunkSize, A.ChunkSize);
  A.MaxSpareChunks = static_cast<uint32_t>(
      Opts.number(flag::MaxSpareChunks, A.MaxSpareChunks));
  Setup.Halo.Grouping.MaxGroups = static_cast<uint32_t>(
      Opts.number(flag::MaxGroups, Setup.Halo.Grouping.MaxGroups));
  Setup.Halo.Profile.AffinityDistance = Opts.number(
      flag::AffinityDistance, Setup.Halo.Profile.AffinityDistance);
  return Setup;
}

/// A comma-list flag's items (none when not given); empty items are
/// rejected.
std::vector<std::string> listOf(const CliOptions &Opts, unsigned Flag,
                                const std::string &Name) {
  std::vector<std::string> Items;
  if (!Opts.has(Flag))
    return Items;
  std::string Text = Opts.text(Flag);
  for (size_t Start = 0; Start <= Text.size();) {
    size_t Comma = std::min(Text.find(',', Start), Text.size());
    if (Comma == Start)
      usageError("empty item in " + Name + " list '" + Text + "'");
    Items.push_back(Text.substr(Start, Comma - Start));
    Start = Comma + 1;
  }
  return Items;
}

/// Rejects a malformed --machine, --scale, --machines or --kinds value, and
/// a --chunk-size the group allocator would reject, as the parser meets
/// it, as unsignedValue does for numbers, so a repeated flag cannot hide a
/// bad earlier value and nothing is opened or measured first. (Names
/// inside --machines and --kinds are checked where requestFor resolves
/// them.)
void checkValue(const CliOptions &Opts, const FlagInfo &F) {
  if (F.Bit == flag::ChunkSize &&
      !validChunkSize(Opts.number(flag::ChunkSize, 0)))
    usageError("invalid value for --chunk-size: '" +
               std::to_string(Opts.number(flag::ChunkSize, 0)) +
               "' (expected a power of two from " +
               std::to_string(GroupAllocator::MinChunkSize) + " to " +
               std::to_string(GroupAllocator::SlabSize) + ")");
  std::string Value = Opts.text(F.Bit);
  if (F.Bit == flag::Machine && !findMachine(Value))
    usageError("unknown machine '" + Value + "' for --machine (available: " +
               joined(machineNames()) + ")");
  if (F.Bit == flag::Scale && !parseScale(Value))
    usageError("unknown scale '" + Value +
               "' for --scale (available: test ref)");
  if (F.Bit == flag::Machines || F.Bit == flag::Kinds)
    listOf(Opts, F.Bit, F.Name);
}

/// Where every measuring command's flags become its one PlanRequest
/// -- its benchmarks (none = all), machines (--machines names or `all`,
/// else the --machine preset, else the default preset), kinds,
/// scale, trials and seed base. A flag outside the command's row keeps
/// its default here; commands override only the fields they fix.
PlanRequest requestFor(const CliOptions &Opts) {
  // Both would name the measured machines; accepting both would silently
  // drop one.
  if (Opts.has(flag::Machine) && Opts.has(flag::Machines))
    usageError("--machine and --machines cannot be combined (list every "
               "measured machine in --machines)");
  PlanRequest R;
  R.Benchmarks = Opts.Benchmarks.empty() ? workloadNames() : Opts.Benchmarks;
  for (const std::string &Name : listOf(Opts, flag::Machines, "--machines")) {
    if (Name == "all")
      R.Machines.insert(R.Machines.end(), machineNames().begin(),
                        machineNames().end());
    else if (findMachine(Name))
      R.Machines.push_back(Name);
    else
      usageError("unknown machine '" + Name + "' in --machines (available: " +
                 joined(machineNames()) + " all)");
  }
  if (Opts.has(flag::Machine))
    R.Machines = {Opts.text(flag::Machine)};
  if (Opts.has(flag::Kinds))
    R.Kinds.clear();
  for (const std::string &Name : listOf(Opts, flag::Kinds, "--kinds")) {
    std::optional<AllocatorKind> Kind = parseAllocatorKind(Name);
    if (!Kind)
      usageError("unknown allocator kind '" + Name +
                 "' in --kinds (available: " + knownKinds() + ")");
    R.Kinds.push_back(*Kind);
  }
  R.S = parseScale(Opts.text(flag::Scale)).value_or(R.S);
  R.Trials = static_cast<int>(Opts.number(flag::Trials, R.Trials));
  R.SeedBase = Opts.number(flag::SeedBase, R.SeedBase);
  return R;
}

/// The local plan for \p R: specFor's spec, each benchmark set up with the
/// command's setup flags, against \p Store (which must outlive the run).
ExperimentPlan planFor(const CliOptions &Opts, const PlanRequest &R,
                       ArtifactStore *Store) {
  ExperimentSpec Spec = specFor(R);
  Spec.MakeSetup = [&Opts](const std::string &Name) {
    return setupFor(Opts, Name);
  };
  return buildPlan({Spec}, {}, Store);
}

/// baseline, run and hds: a 1x1x1 plan, same scheduler and emitter as the
/// big sweeps.
template <AllocatorKind Kind> int runSingle(const CliOptions &Opts) {
  PlanRequest R = requestFor(Opts);
  R.Kinds = {Kind};
  std::optional<ArtifactStore> Store = openStore(Opts);
  FILE *Out = openOutput(Opts.outPath());
  ExperimentPlan Plan = planFor(Opts, R, Store ? &*Store : nullptr);
  ResultSet Results = runPlan(Plan, Opts.jobs());
  writeRunsJson(Out, R.Benchmarks.front(), Opts.Cmd->Name,
                Results.cells().front().Runs);
  closeOutput(Out, Opts.outPath());
  return 0;
}

void asciiBar(const char *Label, double Percent, double FullScale) {
  int Width = static_cast<int>(40.0 * std::abs(Percent) / FullScale);
  if (Width > 40)
    Width = 40;
  std::printf("  %-10s %+6.2f%% %s%.*s\n", Label, Percent,
              Percent < 0 ? "-" : "", Width,
              "########################################");
}

int runPlot(const CliOptions &Opts) {
  // plot takes no --kinds: the request's default kinds are the three the
  // figure compares.
  PlanRequest R = requestFor(Opts);
  std::string Machine =
      R.Machines.empty() ? defaultMachine().Name : R.Machines.front();
  std::printf("HALO vs jemalloc on %s (top: L1D miss reduction, bottom: "
              "speedup), %d trial(s)\n\n",
              Machine.c_str(), R.Trials);
  // Cells fan out at benchmark x kind x trial granularity, and each row
  // reduces its benchmark's three cells (repeated names repeat the row).
  ExperimentPlan Plan = planFor(Opts, R, /*Store=*/nullptr);
  ResultSet Results = runPlan(Plan, Opts.jobs());
  for (const std::string &Name : R.Benchmarks) {
    ComparisonRow Row = comparisonRow(Results, Name, Machine);
    std::printf("%s\n", Row.Benchmark.c_str());
    asciiBar("hds", Row.HdsMissReduction, 40.0);
    asciiBar("halo", Row.HaloMissReduction, 40.0);
    asciiBar("hds", Row.HdsSpeedup, 40.0);
    asciiBar("halo", Row.HaloSpeedup, 40.0);
  }
  return 0;
}

int runMachines(const CliOptions &) {
  Report Table("Machine presets (sim/Machine.h)");
  Table.setColumns({"machine", "geometry", "lat L1/L2/L3/mem/TLB",
                    "description"});
  for (const MachineConfig &M : machinePresets()) {
    const LatencyModel &Lat = M.Hierarchy.Latency;
    char LatBuf[64];
    std::snprintf(LatBuf, sizeof(LatBuf), "%u/%u/%u/%u/%u", Lat.L1Hit,
                  Lat.L2Hit, Lat.L3Hit, Lat.Memory, Lat.TlbMiss);
    Table.addRow({M.Name, M.summary(), LatBuf, M.Description});
  }
  Table.addNote("default: " + defaultMachine().Name +
                " (the paper's evaluation machine)");
  Table.print();
  return 0;
}

int runSweep(const CliOptions &Opts) {
  PlanRequest R = requestFor(Opts);
  // Default: every preset; --machine narrows the sweep to one. sweep takes
  // no --kinds, so it measures the request's default jemalloc/HDS/HALO.
  if (R.Machines.empty())
    R.Machines = machineNames();
  // One plan across the whole benchmark x machine matrix: each benchmark
  // materialises its pipelines once, and the measurement stage spans
  // every (benchmark, machine, kind, trial) cell, so mixed sweeps keep
  // all --jobs workers busy.
  std::optional<ArtifactStore> Store = openStore(Opts);
  FILE *Out = Opts.outPath().empty() ? nullptr : openOutput(Opts.outPath());
  ExperimentPlan Plan = planFor(Opts, R, Store ? &*Store : nullptr);
  ResultSet Results = runPlan(Plan, Opts.jobs());

  std::vector<SweepRow> Rows = sweepRows(Results);
  sweepReport(Rows).print();
  if (Out) {
    writeSweepJson(Out, Rows);
    closeOutput(Out, Opts.outPath(),
                " (" + std::to_string(Rows.size()) + " rows)");
  }
  return 0;
}

int runExperiments(const CliOptions &Opts) {
  PlanRequest R = requestFor(Opts);
  std::optional<ArtifactStore> Store = openStore(Opts);
  FILE *Out = openOutput(Opts.outPath());
  ExperimentPlan Plan = planFor(Opts, R, Store ? &*Store : nullptr);
  ResultSet Results = runPlan(Plan, Opts.jobs());
  if (Out != stdout) {
    // With a file destination the console gets the human-readable view.
    experimentsReport(Results).print();
    std::printf("plan: %zu cell(s), %zu artifact task(s), %zu "
                "measurement(s)",
                Plan.cells().size(), Plan.numArtifactTasks(),
                Plan.numMeasurements());
    if (Plan.store())
      std::printf(", %zu stored artifact(s)", Plan.numStoredArtifacts());
    std::printf("\n");
  }
  writeExperimentsJson(Out, Results);
  closeOutput(Out, Opts.outPath(),
              " (" + std::to_string(Results.size()) + " cells)");
  return 0;
}

/// JSON string escaping for file names and store labels: a file name may
/// hold any byte but '/' and NUL, control characters included.
std::string jsonEscaped(const std::string &Text) {
  std::string Escaped;
  for (char C : Text) {
    char Code[8] = {C, '\0'};
    if (static_cast<unsigned char>(C) < 0x20)
      std::snprintf(Code, sizeof(Code), "\\u%04x", static_cast<unsigned>(C));
    else if (C == '"' || C == '\\')
      Escaped += '\\';
    Escaped += Code;
  }
  return Escaped;
}

/// An entry's type as listed: "unknown" for a file whose header does not
/// decode.
const char *typeName(const ArtifactStore::Entry &E) {
  return E.Type ? artifactTypeName(*E.Type) : "unknown";
}

/// The store a store command works on. These commands refuse to guess a
/// directory: inspecting or collecting "no store" is always a mistake.
ArtifactStore requiredStore(const CliOptions &Opts) {
  std::optional<ArtifactStore> Store = openStore(Opts);
  if (!Store)
    usageError("the store commands need a directory (--store-dir DIR or "
               "$HALO_STORE)");
  return std::move(*Store);
}

int runStoreGc(const CliOptions &Opts) {
  ArtifactStore Store = requiredStore(Opts);
  size_t Removed = Store.gc();
  std::printf("removed %zu file(s) from %s\n", Removed, Store.dir().c_str());
  return 0;
}

/// store ls and store verify: one validated listing, printed as a table
/// and, with --out, as JSON. \p FailOnInvalid (verify) exits 1 on any
/// invalid entry so scripts can gate on store health.
template <bool FailOnInvalid> int listStore(const CliOptions &Opts) {
  ArtifactStore Store = requiredStore(Opts);
  std::vector<ArtifactStore::Entry> Entries = Store.entries();
  Report Table("Artifact store " + Store.dir());
  Table.setColumns({"file", "type", "label", "payload bytes", "status"});
  size_t Invalid = 0;
  for (const ArtifactStore::Entry &E : Entries) {
    if (!E.Valid)
      ++Invalid;
    Table.addRow({E.File, typeName(E), E.Label,
                  std::to_string(E.PayloadSize),
                  E.Valid ? "ok" : "CORRUPT: " + E.Problem});
  }
  Table.addNote(std::to_string(Entries.size()) + " entr" +
                (Entries.size() == 1 ? "y" : "ies") + ", " +
                std::to_string(Invalid) + " invalid");
  Table.print();
  if (!Opts.outPath().empty()) {
    FILE *Out = openOutput(Opts.outPath());
    std::fprintf(Out, "[\n");
    for (size_t I = 0; I < Entries.size(); ++I) {
      const ArtifactStore::Entry &E = Entries[I];
      std::fprintf(Out,
                   "  {\"file\": \"%s\", \"type\": \"%s\", \"label\": "
                   "\"%s\", \"payload_bytes\": %llu, \"valid\": %s, "
                   "\"problem\": \"%s\"}%s\n",
                   jsonEscaped(E.File).c_str(), typeName(E),
                   jsonEscaped(E.Label).c_str(),
                   (unsigned long long)E.PayloadSize,
                   E.Valid ? "true" : "false",
                   jsonEscaped(E.Problem).c_str(),
                   I + 1 < Entries.size() ? "," : "");
    }
    std::fprintf(Out, "]\n");
    closeOutput(Out, Opts.outPath(),
                " (" + std::to_string(Entries.size()) + " entries)");
  }
  if (FailOnInvalid && Invalid) {
    std::fprintf(stderr,
                 "halo_cli: store verify: %zu corrupt entr%s (run "
                 "`halo_cli store gc` to remove)\n",
                 Invalid, Invalid == 1 ? "y" : "ies");
    return 1;
  }
  return 0;
}

int runTrace(const CliOptions &Opts) {
  const std::string &Benchmark = Opts.Benchmarks.front();
  FILE *Out = openOutput(Opts.outPath());
  Evaluation Eval(paperSetup(Benchmark));
  const EventTrace &Trace = Eval.trace(Scale::Ref, /*Seed=*/100);
  const TraceCounts &C = Trace.counts();
  std::fprintf(
      Out,
      "{\n  \"benchmark\": \"%s\",\n  \"scale\": \"ref\",\n"
      "  \"events\": %llu,\n  \"bytes\": %llu,\n  \"objects\": %llu,\n"
      "  \"bytes_per_event\": %.3f,\n"
      "  \"counts\": {\"calls\": %llu, \"returns\": %llu, \"allocs\": %llu, "
      "\"frees\": %llu,\n             \"loads\": %llu, \"stores\": %llu, "
      "\"raw_loads\": %llu, \"raw_stores\": %llu,\n             "
      "\"computes\": %llu, \"reallocs\": %llu}\n}\n",
      Benchmark.c_str(), (unsigned long long)Trace.numEvents(),
      (unsigned long long)Trace.byteSize(),
      (unsigned long long)Trace.numObjects(),
      Trace.numEvents() ? static_cast<double>(Trace.byteSize()) /
                              static_cast<double>(Trace.numEvents())
                        : 0.0,
      (unsigned long long)C.Calls, (unsigned long long)C.Returns,
      (unsigned long long)C.Allocs, (unsigned long long)C.Frees,
      (unsigned long long)C.Loads, (unsigned long long)C.Stores,
      (unsigned long long)C.RawLoads, (unsigned long long)C.RawStores,
      (unsigned long long)C.Computes, (unsigned long long)C.Reallocs);
  closeOutput(Out, Opts.outPath());
  return 0;
}

int runServe(const CliOptions &Opts) {
  DaemonConfig Config;
  Config.SocketPath = Opts.socketPath();
  Config.Jobs = Opts.jobs();
  // Validate the store like every other command does, before anything
  // is bound: a bad directory is a usage error, not a stale socket file.
  if (std::optional<ArtifactStore> Store = openStore(Opts))
    Config.StoreDir = Store->dir();
  // Resolve the pool size up front so a malformed HALO_JOBS fails here,
  // not after the socket is bound.
  unsigned Workers = resolveJobs(Opts.jobs());
  std::string StoreNote =
      Config.StoreDir.empty() ? std::string(", no store")
                              : ", store " + Config.StoreDir;
  std::fprintf(stderr, "halo_cli: serving on %s (%u worker(s)%s)\n",
               Opts.socketPath().c_str(), Workers, StoreNote.c_str());
  HaloDaemon Daemon(Config);
  int Exit = Daemon.serve();
  std::fprintf(stderr, "halo_cli: daemon on %s shut down\n",
               Opts.socketPath().c_str());
  return Exit;
}

int runClientStats(const CliOptions &Opts) {
  HaloClient Client(Opts.socketPath());
  DaemonStats St = Client.stats();
  Report Table("halo serve on " + Opts.socketPath());
  Table.setColumns({"counter", "value"});
  Table.addRow({"active sessions", std::to_string(St.ActiveSessions)});
  Table.addRow({"sessions served", std::to_string(St.SessionsServed)});
  Table.addRow({"plans submitted", std::to_string(St.PlansSubmitted)});
  Table.addRow({"plans completed", std::to_string(St.PlansCompleted)});
  Table.addRow({"plans cancelled", std::to_string(St.PlansCancelled)});
  Table.addRow({"plans failed", std::to_string(St.PlansFailed)});
  Table.addRow({"cells streamed", std::to_string(St.CellsStreamed)});
  Table.addRow({"tasks executed", std::to_string(St.TasksExecuted)});
  Table.addRow({"warm benchmarks", std::to_string(St.WarmBenchmarks)});
  Table.addNote(std::to_string(St.Workers) + " worker(s), " +
                (St.HasStore ? "store attached" : "no store"));
  Table.print();
  return 0;
}

int runClientShutdown(const CliOptions &Opts) {
  HaloClient Client(Opts.socketPath());
  Client.shutdownServer();
  std::printf("daemon on %s acknowledged shutdown\n",
              Opts.socketPath().c_str());
  return 0;
}

/// client run: the experiments matrix, measured by the daemon. The request
/// is built (and its names validated) before connecting, so typos fail
/// with the usage message instead of a protocol round trip.
int runClientPlan(const CliOptions &Opts) {
  PlanRequest R = requestFor(Opts);
  HaloClient Client(Opts.socketPath());
  // Open --out before submitting (fail fast on an unwritable path), but
  // only rename into place for a completed plan -- a cancelled or failed
  // plan must not overwrite a previous good document with a partial one.
  FILE *Out = openOutput(Opts.outPath());
  uint64_t PlanId = Client.submit(R);
  PlanOutcome Outcome =
      Client.wait(PlanId, [&](const CellResultMsg &M) {
        std::fprintf(stderr, "halo_cli: cell %llu: %s %s %s done\n",
                     (unsigned long long)M.CellIndex, M.Key.Benchmark.c_str(),
                     M.Key.Machine.c_str(), allocatorKindName(M.Key.Kind));
      });

  if (Outcome.Status != PlanStatus::Ok) {
    if (Out != stdout) {
      std::fclose(Out);
      discardOutput();
    }
    if (Outcome.Status == PlanStatus::Failed)
      std::fprintf(stderr, "halo_cli: plan failed: %s\n",
                   Outcome.Message.c_str());
    else
      std::fprintf(stderr, "halo_cli: plan cancelled (%llu of %llu cells "
                           "arrived)\n",
                   (unsigned long long)Outcome.CellsReceived,
                   (unsigned long long)Outcome.NumCells);
    return 1;
  }

  if (Out != stdout) {
    experimentsReport(Outcome.Results).print();
    std::printf("served: %llu cell(s) streamed from %s\n",
                (unsigned long long)Outcome.CellsReceived,
                Opts.socketPath().c_str());
  }
  writeExperimentsJson(Out, Outcome.Results);
  closeOutput(Out, Opts.outPath(),
              " (" + std::to_string(Outcome.Results.size()) + " cells)");
  return 0;
}

/// The command table: every command's positionals, flags and handler.
const Command Commands[] = {
    {"baseline", flag::Benchmark | flag::Measure | flag::Out | flag::StoreDir,
     0, runSingle<AllocatorKind::Jemalloc>, "measure jemalloc: per-run JSON"},
    {"run", flag::Benchmark | flag::Measure | flag::Out | flag::StoreDir, 0,
     runSingle<AllocatorKind::Halo>, "measure HALO: per-run JSON"},
    {"hds", flag::Benchmark | flag::Measure | flag::Out | flag::StoreDir, 0,
     runSingle<AllocatorKind::Hds>, "measure hot data streams: per-run JSON"},
    {"trace", flag::Benchmark | flag::Out, 0, runTrace,
     "record the ref input's trace; its counts as JSON"},
    {"plot", flag::BenchmarkList | flag::Measure, 0, runPlot,
     "Fig. 13/14 bars: HDS and HALO against jemalloc"},
    {"sweep", flag::BenchmarkList | flag::Measure | flag::Out | flag::StoreDir,
     0, runSweep, "jemalloc/HDS/HALO on every machine preset"},
    {"experiments",
     flag::BenchmarkList | flag::Measure | flag::Matrix | flag::Out |
         flag::StoreDir,
     0, runExperiments, "any benchmark x machine x kind matrix"},
    {"machines", 0, 0, runMachines, "list the machine presets"},
    {"store ls", flag::StoreDir | flag::Out, 0, listStore<false>,
     "list the store's entries"},
    {"store gc", flag::StoreDir, 0, runStoreGc,
     "remove invalid entries and temp files"},
    {"store verify", flag::StoreDir, 0, listStore<true>,
     "list; exit 1 if any entry is invalid"},
    {"serve", flag::Socket | flag::Jobs | flag::StoreDir, flag::Socket,
     runServe, "run the plan daemon"},
    {"client run",
     flag::BenchmarkList | flag::Socket | flag::Trials | flag::Machine |
         flag::Matrix | flag::Out,
     flag::Socket, runClientPlan, "measure a matrix on the daemon"},
    {"client stats", flag::Socket, flag::Socket, runClientStats,
     "print the daemon's counters"},
    {"client shutdown", flag::Socket, flag::Socket, runClientShutdown,
     "stop the daemon"},
};

/// The commands whose rows accept \p Bit, comma-separated.
std::string takersOf(unsigned Bit) {
  std::string Names;
  for (const Command &C : Commands)
    if (C.Accepts & Bit)
      Names += (Names.empty() ? "" : ", ") + std::string(C.Name);
  return Names;
}

void usage() {
  std::fprintf(stderr, "usage: halo_cli <command> [flags]\ncommands:\n");
  for (const Command &C : Commands) {
    std::string Line =
        std::string(C.Name) +
        (C.Accepts & flag::Benchmark ? " <benchmark>" : "") +
        (C.Accepts & flag::BenchmarkList ? " [benchmark...]" : "");
    for (const FlagInfo &F : Flags)
      if (C.Requires & F.Bit)
        Line += std::string(" ") + F.Name + " " + F.Value;
    std::fprintf(stderr, "  %s\n      %s\n", Line.c_str(), C.Help);
  }
  std::fprintf(stderr, "flags, each taken only by the commands under it:\n");
  for (const FlagInfo &F : Flags) {
    std::string Line = std::string(F.Name) + " " + F.Value;
    std::fprintf(stderr, "  %-27s %s\n      %s\n", Line.c_str(), F.Help,
                 takersOf(F.Bit).c_str());
  }
  std::fprintf(stderr, "benchmarks: %s\nmachines: %s\nkinds: %s\n",
               joined(workloadNames()).c_str(),
               joined(machineNames()).c_str(), knownKinds().c_str());
  std::exit(1);
}

/// Parses the command line against the Commands table. Every accept or
/// reject decision reads the named row: a flag it does not accept, a
/// benchmark it has no room for, or a flag it requires left out is a
/// usage error.
CliOptions parseArgs(int Argc, char **Argv) {
  if (Argc < 2)
    usage();
  // A verb row ("store ls") is named by the first two words.
  std::string Word = Argv[1];
  std::string Verb = Argc > 2 ? Word + " " + Argv[2] : "";
  CliOptions Opts;
  for (const Command &C : Commands)
    if (C.Name == Word || C.Name == Verb)
      Opts.Cmd = &C;
  if (!Opts.Cmd)
    usageError("unknown command '" + Word + "'");
  const Command &Cmd = *Opts.Cmd;
  const std::string Name = Cmd.Name;
  int First = Name == Verb ? 3 : 2;

  if (Cmd.Accepts & flag::Benchmark) {
    if (First >= Argc || Argv[First][0] == '-')
      usageError(Name + " needs a benchmark");
    Opts.Benchmarks.push_back(Argv[First++]);
  }
  FlagParser Args(Argc, Argv, First);
  while (!Args.done()) {
    std::string Arg = Args.next();
    if (Arg[0] != '-') {
      if (!(Cmd.Accepts & flag::BenchmarkList))
        usageError("unexpected argument '" + Arg + "' (only " +
                   takersOf(flag::BenchmarkList) + " take a benchmark list)");
      Opts.Benchmarks.push_back(Arg);
      continue;
    }
    const FlagInfo *F =
        std::find_if(std::begin(Flags), std::end(Flags),
                     [&](const FlagInfo &Info) { return Arg == Info.Name; });
    if (F == std::end(Flags))
      usageError("unknown flag '" + Arg + "'");
    if (!(Cmd.Accepts & F->Bit))
      usageError(Arg + " is not accepted by " + Name + " (only by " +
                 takersOf(F->Bit) + ")");
    if (F->Max)
      Opts.Numbers[F->Bit] = Args.unsignedValue(Arg, F->Min, F->Max);
    else
      Opts.Texts[F->Bit] = Args.value(Arg);
    checkValue(Opts, *F);
  }
  for (const FlagInfo &F : Flags)
    if ((Cmd.Requires & F.Bit) && !Opts.has(F.Bit))
      usageError(Name + " needs " + F.Name + " " + F.Value);
  for (const std::string &Benchmark : Opts.Benchmarks)
    if (!createWorkload(Benchmark))
      usageError("unknown benchmark '" + Benchmark + "'");
  return Opts;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts = parseArgs(Argc, Argv);
  try {
    return Opts.Cmd->Run(Opts);
  } catch (const std::exception &E) {
    // One catch for everything the library throws past a command:
    // connection failures, protocol errors, a malformed HALO_JOBS.
    discardOutput();
    std::fprintf(stderr, "halo_cli: error: %s\n", E.what());
    return 1;
  }
}
