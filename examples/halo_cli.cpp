//===- examples/halo_cli.cpp - Artefact-style command-line driver --------------===//
//
// Mirrors the workflow of the paper's artefact (Appendix A.5): the halo
// tool's `baseline`, `run`, and `plot` commands, which carry out baseline
// and HALO-optimised runs for each workload and plot results. Run output
// is JSON "containing the specific data points for each run" (A.6);
// `plot` renders ASCII bar charts of the Figure 13/14 series. The
// artefact's per-benchmark flags (A.8) are accepted too.
//
//   halo_cli baseline <benchmark> [--trials N] [--jobs N] [--machine NAME]
//   halo_cli run <benchmark> [--trials N] [--jobs N] [--machine NAME]
//            [--chunk-size BYTES] [--max-spare-chunks N] [--max-groups N]
//            [--affinity-distance A]
//   halo_cli hds <benchmark> [--trials N] [--jobs N] [--machine NAME]
//   halo_cli trace <benchmark>       # record an event trace, print counts
//   halo_cli plot [benchmark...] [--trials N] [--jobs N] [--machine NAME]
//            [--chunk-size BYTES] [--max-spare-chunks N] [--max-groups N]
//            [--affinity-distance A]
//   halo_cli machines                # list the machine presets
//   halo_cli sweep [benchmark...] [--trials N] [--jobs N] [--out FILE]
//   halo_cli experiments [benchmark...] [--machines NAME,...|all]
//            [--kinds KIND,...] [--scale test|ref] [--seed-base N]
//            [--trials N] [--jobs N] [--out FILE]
//   halo_cli store <ls|gc|verify> [--store-dir DIR]
//   halo_cli serve --socket PATH [--jobs N] [--store-dir DIR]
//   halo_cli client <run|stats|shutdown> [benchmark...] --socket PATH
//
// `serve` runs the plan daemon (serve/Server.h): one warm Executor pool,
// one open artifact store, and every benchmark's Evaluation cached across
// requests; `client run` submits the same matrix `experiments` takes and
// streams the cells back as they complete, writing (with --out) the very
// JSON document a local `experiments --out` would -- byte-identical, the
// "served = local" contract.
//
// --store-dir DIR (or $HALO_STORE) attaches a content-addressed artifact
// store (store/ArtifactStore.h) to the measuring subcommands: HALO/HDS
// pipeline artifacts hit in the store load instead of re-profiling, and
// cold ones publish for the next invocation. Warm results are
// bit-identical to cold ones. `store ls` lists entries, `store verify`
// exits non-zero if any entry is corrupt, `store gc` removes corrupt
// entries and abandoned temp files.
//
// Measurements run on a simulated machine model (sim/Machine.h); --machine
// selects a preset (default: xeon-w2195, the paper's evaluation machine).
// Every measuring subcommand expands to an ExperimentSpec and executes
// through the one plan scheduler (eval/Experiment.h): pipeline artifacts
// materialise once per benchmark, and the requested cells run across
// --jobs workers at benchmark x machine x kind x trial granularity; each
// measurement is one direct run of the workload model, serial on its
// worker. `sweep` measures
// jemalloc/HDS/HALO on every preset (or just the one --machine names) and
// writes the per-machine rows to BENCH_machines.json; `experiments` takes
// the full matrix spec -- lists of benchmarks, machines, and allocator
// kinds -- and writes the unified JSON keyed by the full measurement key.
// --out redirects any JSON-emitting subcommand's document to a file
// (written through a temp file and renamed into place, except for an
// existing device or FIFO, which is written directly); a failed write
// exits 1 and leaves the previous file alone. The setup flags
// (--chunk-size, --max-spare-chunks, --max-groups, --affinity-distance)
// are usage errors on the commands that build no benchmark setup, and
// --trials, --machine and --jobs on the commands that would ignore them.
//
//===----------------------------------------------------------------------===//

#include "eval/Evaluation.h"
#include "eval/Experiment.h"
#include "eval/Report.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "store/ArtifactStore.h"
#include "support/Executor.h"
#include "support/Format.h"
#include "support/Stats.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/stat.h>

using namespace halo;

namespace {

struct CliOptions {
  std::string Command;
  std::string Benchmark;
  std::vector<std::string> Benchmarks;
  std::string Machine; ///< Empty = default preset.
  std::vector<std::string> MachineList; ///< experiments: --machines.
  std::vector<std::string> KindList;    ///< experiments: --kinds.
  Scale S = Scale::Ref;                 ///< experiments: --scale.
  uint64_t SeedBase = 100;              ///< experiments: --seed-base.
  bool SawScale = false;                ///< --scale given explicitly.
  bool SawSeedBase = false;             ///< --seed-base given explicitly.
  std::string OutPath; ///< JSON output file ("" = stdout).
  std::string StoreVerb; ///< store: ls / gc / verify.
  std::string StoreDir;  ///< --store-dir ("" = $HALO_STORE or off).
  std::string ClientVerb; ///< client: run / stats / shutdown.
  std::string SocketPath; ///< --socket (serve / client).
  int Trials = 0; ///< 0 = not given (3 trials).
  int Jobs = -1;  ///< -1 = not given; 0 = hardware concurrency.
  uint64_t ChunkSize = 0;
  int MaxSpareChunks = -1;
  uint32_t MaxGroups = 0;
  uint64_t AffinityDistance = 0;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: halo_cli <baseline|run|hds|trace> <benchmark> [flags]\n"
      "       halo_cli plot [benchmark...] [flags]\n"
      "       halo_cli sweep [benchmark...] [flags]   # all machines -> JSON\n"
      "       halo_cli experiments [benchmark...] [flags]  # matrix -> JSON\n"
      "       halo_cli machines                       # list machine presets\n"
      "       halo_cli store <ls|gc|verify> [--store-dir DIR]\n"
      "       halo_cli serve --socket PATH [--jobs N] [--store-dir DIR]\n"
      "       halo_cli client run [benchmark...] --socket PATH [flags]\n"
      "       halo_cli client <stats|shutdown> --socket PATH\n"
      "flags: --trials N  --jobs N  --machine NAME  --chunk-size BYTES\n"
      "       --max-spare-chunks N  --max-groups N  --affinity-distance BYTES\n"
      "       --out FILE (any JSON-emitting command)\n"
      "       --machines NAME[,NAME...]|all  --kinds KIND[,KIND...]\n"
      "       --scale test|ref  --seed-base N  (experiments)\n"
      "       --store-dir DIR (or $HALO_STORE): content-addressed cache of\n"
      "         pipeline artifacts (baseline/run/hds/sweep/\n"
      "         experiments/store/serve)\n"
      "       --socket PATH: the Unix-domain socket serve listens on and\n"
      "         client connects to. client run takes the experiments\n"
      "         matrix flags (--machine|--machines --kinds --scale\n"
      "         --seed-base --trials --out) and streams cells as the\n"
      "         daemon finishes them; with --out the JSON is\n"
      "         byte-identical to a local `experiments --out` of the\n"
      "         same matrix\n"
      "benchmarks:");
  for (const std::string &Name : workloadNames())
    std::fprintf(stderr, " %s", Name.c_str());
  std::fprintf(stderr, "\nmachines:");
  for (const std::string &Name : machineNames())
    std::fprintf(stderr, " %s", Name.c_str());
  std::fprintf(stderr, "\nkinds:");
  for (AllocatorKind Kind : allAllocatorKinds())
    std::fprintf(stderr, " %s", allocatorKindName(Kind));
  std::fprintf(stderr, "\n");
  std::exit(1);
}

[[noreturn]] void usageError(const std::string &Message) {
  std::fprintf(stderr, "halo_cli: error: %s\n", Message.c_str());
  usage();
}

/// Space-joined machine preset names for error messages.
std::string knownMachines() {
  std::string Known;
  for (const std::string &Name : machineNames())
    Known += (Known.empty() ? "" : " ") + Name;
  return Known;
}

/// Space-joined allocator kind names for error messages.
std::string knownKinds() {
  std::string Known;
  for (AllocatorKind Kind : allAllocatorKinds())
    Known += (Known.empty() ? "" : " ") + std::string(allocatorKindName(Kind));
  return Known;
}

/// Strict argument cursor shared by every subcommand's flag handling:
/// yields arguments in order and owns the error-checked value parsing --
/// raw values, bounded numbers, worker counts, machine names, comma
/// lists -- so each new subcommand composes its flags from these helpers
/// instead of re-rolling the parse loop.
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
    if (*Text == '\0' || !std::isdigit(static_cast<unsigned char>(*Text)))
      usageError("invalid value for " + Flag + ": '" + Text +
                 "' (expected a number)");
    errno = 0;
    char *End = nullptr;
    unsigned long long Parsed = std::strtoull(Text, &End, 10);
    if (*End != '\0')
      usageError("invalid value for " + Flag + ": '" + Text +
                 "' (expected a number)");
    if (errno == ERANGE || Parsed > Max)
      usageError("value for " + Flag + " out of range: '" + Text + "'");
    if (Parsed < Min)
      usageError("value for " + Flag + " too small: '" + Text + "'");
    return Parsed;
  }

  /// The one --jobs handler: a strict numeric worker count, where 0
  /// explicitly requests the "pick for me" default. What that default
  /// means -- hardware concurrency, never less than one -- is decided in
  /// exactly one place, halo::resolveJobs (support/Executor.h), which
  /// every parallel path in the library consults too.
  int jobsValue(const std::string &Flag) {
    return static_cast<int>(unsignedValue(Flag, /*Min=*/0, INT_MAX));
  }

  /// A validated machine-preset lookup, listing the presets on error.
  const MachineConfig *machineValue(const std::string &Flag) {
    std::string Name = value(Flag);
    const MachineConfig *Machine = findMachine(Name);
    if (!Machine)
      usageError("unknown machine '" + Name + "' for " + Flag +
                 " (available: " + knownMachines() + ")");
    return Machine;
  }

  /// A comma-separated list; empty items are rejected.
  std::vector<std::string> listValue(const std::string &Flag) {
    std::string Text = value(Flag);
    std::vector<std::string> Items;
    size_t Start = 0;
    while (Start <= Text.size()) {
      size_t Comma = Text.find(',', Start);
      if (Comma == std::string::npos)
        Comma = Text.size();
      if (Comma == Start)
        usageError("empty item in " + Flag + " list '" + Text + "'");
      Items.push_back(Text.substr(Start, Comma - Start));
      Start = Comma + 1;
    }
    return Items;
  }

private:
  int Argc;
  char **Argv;
  int I;
};

/// True when the invocation writes a JSON document (and thus honours
/// --out). For store and client the verb decides: `store ls --out` emits
/// the entry listing as JSON, `client run --out` the experiments
/// document.
bool emitsJson(const CliOptions &Opts) {
  return Opts.Command == "baseline" || Opts.Command == "run" ||
         Opts.Command == "hds" || Opts.Command == "trace" ||
         Opts.Command == "sweep" || Opts.Command == "experiments" ||
         (Opts.Command == "store" && Opts.StoreVerb == "ls") ||
         (Opts.Command == "client" && Opts.ClientVerb == "run");
}

CliOptions parseArgs(int Argc, char **Argv) {
  CliOptions Opts;
  if (Argc < 2)
    usage();
  Opts.Command = Argv[1];
  bool ListCommand = Opts.Command == "plot" || Opts.Command == "sweep" ||
                     Opts.Command == "experiments" ||
                     Opts.Command == "machines" || Opts.Command == "serve";
  int First = 2;
  if (Opts.Command == "client") {
    // The verb comes first; any later positionals are benchmarks
    // (meaningful for `client run` only, validated below).
    if (Argc < 3 || Argv[2][0] == '-')
      usage();
    Opts.ClientVerb = Argv[2];
    First = 3;
    ListCommand = true;
  } else if (!ListCommand) {
    if (Argc < 3 || Argv[2][0] == '-')
      usage();
    Opts.Benchmark = Argv[2];
    First = 3;
  }
  FlagParser Args(Argc, Argv, First);
  while (!Args.done()) {
    std::string Arg = Args.next();
    if (Arg == "--trials")
      Opts.Trials =
          static_cast<int>(Args.unsignedValue(Arg, /*Min=*/1, INT_MAX));
    else if (Arg == "--jobs")
      Opts.Jobs = Args.jobsValue(Arg);
    else if (Arg == "--machine")
      Opts.Machine = Args.machineValue(Arg)->Name;
    else if (Arg == "--machines")
      Opts.MachineList = Args.listValue(Arg);
    else if (Arg == "--kinds")
      Opts.KindList = Args.listValue(Arg);
    else if (Arg == "--scale") {
      std::string Name = Args.value(Arg);
      std::optional<Scale> S = parseScale(Name);
      if (!S)
        usageError("unknown scale '" + Name + "' for " + Arg +
                   " (available: test ref)");
      Opts.S = *S;
      Opts.SawScale = true;
    } else if (Arg == "--seed-base") {
      Opts.SeedBase = Args.unsignedValue(Arg, /*Min=*/0);
      Opts.SawSeedBase = true;
    }
    else if (Arg == "--socket")
      Opts.SocketPath = Args.value(Arg);
    else if (Arg == "--out")
      Opts.OutPath = Args.value(Arg);
    else if (Arg == "--store-dir")
      Opts.StoreDir = Args.value(Arg);
    else if (Arg == "--chunk-size")
      Opts.ChunkSize = Args.unsignedValue(Arg, /*Min=*/1);
    else if (Arg == "--max-spare-chunks")
      Opts.MaxSpareChunks =
          static_cast<int>(Args.unsignedValue(Arg, /*Min=*/0, INT_MAX));
    else if (Arg == "--max-groups")
      Opts.MaxGroups = static_cast<uint32_t>(
          Args.unsignedValue(Arg, /*Min=*/1, UINT32_MAX));
    else if (Arg == "--affinity-distance")
      Opts.AffinityDistance = Args.unsignedValue(Arg, /*Min=*/1);
    else if (Arg[0] == '-')
      usageError("unknown flag '" + Arg + "'");
    else if (ListCommand && Opts.Command != "machines")
      Opts.Benchmarks.push_back(Arg);
    else
      usageError("unexpected argument '" + Arg + "'");
  }
  if (Opts.Command == "store") {
    // The verb parsed into the benchmark slot; validate it strictly.
    Opts.StoreVerb = Opts.Benchmark;
    Opts.Benchmark.clear();
    if (Opts.StoreVerb != "ls" && Opts.StoreVerb != "gc" &&
        Opts.StoreVerb != "verify")
      usageError("unknown store verb '" + Opts.StoreVerb +
                 "' (available: ls gc verify)");
  }
  if (Opts.Command == "client") {
    if (Opts.ClientVerb != "run" && Opts.ClientVerb != "stats" &&
        Opts.ClientVerb != "shutdown")
      usageError("unknown client verb '" + Opts.ClientVerb +
                 "' (available: run stats shutdown)");
    if (Opts.ClientVerb != "run" && !Opts.Benchmarks.empty())
      usageError("client " + Opts.ClientVerb + " takes no benchmarks");
  }
  if ((Opts.Command == "serve" || Opts.Command == "client") &&
      Opts.SocketPath.empty())
    usageError(Opts.Command + " needs --socket PATH");
  if (!Opts.SocketPath.empty() && Opts.Command != "serve" &&
      Opts.Command != "client")
    usageError("--socket is only valid with the serve and client commands");
  if (!Opts.OutPath.empty() && !emitsJson(Opts))
    usageError("--out is not supported by the " + Opts.Command +
               " command (it emits no JSON)");
  // The setup flags configure the BenchmarkSetup a measuring command
  // builds; the commands that build none must not accept and drop them.
  bool SetupCommand = Opts.Command == "baseline" || Opts.Command == "run" ||
                      Opts.Command == "hds" || Opts.Command == "plot" ||
                      Opts.Command == "sweep" ||
                      Opts.Command == "experiments";
  if (!SetupCommand && (Opts.ChunkSize || Opts.MaxSpareChunks >= 0 ||
                        Opts.MaxGroups || Opts.AffinityDistance))
    usageError("--chunk-size, --max-spare-chunks, --max-groups and "
               "--affinity-distance are only valid with the commands that "
               "build a benchmark setup (baseline run hds plot sweep "
               "experiments)");
  // Likewise --trials, --machine and --jobs, whose defaults read as "not
  // given" until they resolve below: the commands that measure nothing
  // (or, for --jobs, run no worker pool here) must not drop them.
  bool ClientRun = Opts.Command == "client" && Opts.ClientVerb == "run";
  if (Opts.Trials && !SetupCommand && !ClientRun)
    usageError("--trials is only valid with the measuring commands "
               "(baseline run hds plot sweep experiments client run)");
  if (!Opts.Machine.empty() && !SetupCommand && !ClientRun)
    usageError("--machine is only valid with the measuring commands "
               "(baseline run hds plot sweep experiments client run)");
  if (Opts.Jobs >= 0 && !SetupCommand && Opts.Command != "serve")
    usageError("--jobs is only valid with the commands that run a worker "
               "pool (baseline run hds plot sweep experiments serve)");
  if (!Opts.Trials)
    Opts.Trials = 3;
  if (Opts.Jobs < 0)
    Opts.Jobs = 0;
  if (!Opts.StoreDir.empty() && Opts.Command != "store" &&
      Opts.Command != "baseline" && Opts.Command != "run" &&
      Opts.Command != "hds" && Opts.Command != "sweep" &&
      Opts.Command != "experiments" && Opts.Command != "serve")
    usageError("--store-dir is not supported by the " + Opts.Command +
               " command");
  if (Opts.Command != "experiments" && !ClientRun) {
    if (!Opts.MachineList.empty())
      usageError("--machines is only valid with the experiments and "
                 "client run commands (use --machine)");
    if (!Opts.KindList.empty())
      usageError("--kinds is only valid with the experiments and "
                 "client run commands");
    if (Opts.SawScale)
      usageError("--scale is only valid with the experiments and "
                 "client run commands");
    if (Opts.SawSeedBase)
      usageError("--seed-base is only valid with the experiments and "
                 "client run commands");
  } else if (!Opts.MachineList.empty() && !Opts.Machine.empty()) {
    // --machine would only set the setup machine (which cannot affect
    // the machine-independent artifacts) while --machines names the
    // measured cells; accepting both would silently drop one.
    usageError("--machine and --machines cannot be combined (list every "
               "measured machine in --machines)");
  }
  return Opts;
}

/// True when \p Path names an existing file that is not a regular file (a
/// device such as /dev/null, or a FIFO). Such a --out target is written in
/// place: renaming a temp file over it would replace the node itself.
bool writesInPlace(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && !S_ISREG(St.st_mode);
}

/// Opens the --out path for one JSON document ("" = stdout). Callers
/// open BEFORE measuring so an unwritable path fails fast instead of
/// discarding an arbitrarily long run; the stream actually targets
/// Path + ".tmp" so an interrupted or failed run never clobbers the
/// previous file — closeOutput() renames it into place on success.
/// Devices and FIFOs (writesInPlace) are opened directly instead.
FILE *openOutput(const std::string &Path) {
  if (Path.empty())
    return stdout;
  std::string Target = writesInPlace(Path) ? Path : Path + ".tmp";
  FILE *Out = std::fopen(Target.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "halo_cli: cannot write %s\n", Path.c_str());
    std::exit(1);
  }
  return Out;
}

/// Closes an openOutput() stream, moves the temp file into place, and
/// acknowledges file writes; \p Detail is appended to the notice
/// (e.g. " (12 rows)"). A failed write (ENOSPC, EIO, ...) removes the
/// temp file, leaving any previous document untouched, and exits 1.
void closeOutput(FILE *Out, const std::string &Path,
                 const std::string &Detail = "") {
  if (Out == stdout)
    return;
  bool InPlace = writesInPlace(Path);
  std::string TmpPath = Path + ".tmp";
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
    if (!InPlace)
      std::remove(TmpPath.c_str());
    std::fprintf(stderr, "halo_cli: cannot write %s: %s\n", Path.c_str(),
                 Errno ? std::strerror(Errno) : "write error");
    std::exit(1);
  }
  if (!InPlace && std::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    std::fprintf(stderr, "halo_cli: cannot move %s into place\n",
                 Path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s%s\n", Path.c_str(), Detail.c_str());
}

/// Opens the artifact store the options select: --store-dir, else
/// $HALO_STORE, else none. Opened BEFORE measuring (like openOutput) so a
/// bad or unwritable directory fails fast with the usage message instead
/// of silently turning every warm run cold.
std::optional<ArtifactStore> openStore(const CliOptions &Opts) {
  std::string Dir = Opts.StoreDir;
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

/// The machine the options name (parseArgs already rejected unknown names).
const MachineConfig &machineFor(const CliOptions &Opts) {
  if (Opts.Machine.empty())
    return defaultMachine();
  return *findMachine(Opts.Machine);
}

BenchmarkSetup setupFor(const CliOptions &Opts,
                        const std::string &Benchmark) {
  BenchmarkSetup Setup = paperSetup(Benchmark);
  Setup.Machine = machineFor(Opts);
  if (Opts.ChunkSize) {
    Setup.Halo.Allocator.ChunkSize = Opts.ChunkSize;
    Setup.Hds.Allocator.ChunkSize = Opts.ChunkSize;
  }
  if (Opts.MaxSpareChunks >= 0) {
    Setup.Halo.Allocator.MaxSpareChunks = Opts.MaxSpareChunks;
    Setup.Hds.Allocator.MaxSpareChunks = Opts.MaxSpareChunks;
  }
  if (Opts.MaxGroups)
    Setup.Halo.Grouping.MaxGroups = Opts.MaxGroups;
  if (Opts.AffinityDistance)
    Setup.Halo.Profile.AffinityDistance = Opts.AffinityDistance;
  return Setup;
}

BenchmarkSetup setupFor(const CliOptions &Opts) {
  return setupFor(Opts, Opts.Benchmark);
}

void asciiBar(const char *Label, double Percent, double FullScale) {
  int Width = static_cast<int>(40.0 * std::abs(Percent) / FullScale);
  if (Width > 40)
    Width = 40;
  std::printf("  %-10s %+6.2f%% %s%.*s\n", Label, Percent,
              Percent < 0 ? "-" : "", Width,
              "########################################");
}

/// Expands the requested benchmark list (empty = all) and validates names.
std::vector<std::string> benchmarkList(const CliOptions &Opts) {
  std::vector<std::string> Names =
      Opts.Benchmarks.empty() ? workloadNames() : Opts.Benchmarks;
  for (const std::string &Name : Names)
    if (!createWorkload(Name))
      usageError("unknown benchmark '" + Name + "'");
  return Names;
}

int runPlot(const CliOptions &Opts) {
  std::vector<std::string> Names = benchmarkList(Opts);
  const MachineConfig &M = machineFor(Opts);
  std::printf("HALO vs jemalloc on %s (top: L1D miss reduction, bottom: "
              "speedup), %d trial(s)\n\n",
              M.Name.c_str(), Opts.Trials);
  // One plan, its setups built like sweep's so the setup flags apply:
  // cells fan out at benchmark x kind x trial granularity, and each row
  // reduces its benchmark's three cells (repeated names repeat the row).
  ExperimentSpec Spec;
  Spec.Benchmarks = Names;
  Spec.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Hds,
                AllocatorKind::Halo};
  Spec.S = Scale::Ref;
  Spec.Trials = Opts.Trials;
  Spec.MakeSetup = [&Opts](const std::string &Name) {
    return setupFor(Opts, Name);
  };
  ExperimentPlan Plan = buildPlan({Spec});
  ResultSet Results = runPlan(Plan, Opts.Jobs);
  for (const std::string &Name : Names) {
    ComparisonRow Row = comparisonRow(Results, Name, M.Name);
    std::printf("%s\n", Row.Benchmark.c_str());
    asciiBar("hds", Row.HdsMissReduction, 40.0);
    asciiBar("halo", Row.HaloMissReduction, 40.0);
    asciiBar("hds", Row.HdsSpeedup, 40.0);
    asciiBar("halo", Row.HaloSpeedup, 40.0);
  }
  return 0;
}

int runMachines() {
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
  std::vector<std::string> Names = benchmarkList(Opts);
  // Default: every preset; --machine narrows the sweep to one.
  std::vector<const MachineConfig *> Machines;
  if (Opts.Machine.empty())
    for (const MachineConfig &M : machinePresets())
      Machines.push_back(&M);
  else
    Machines.push_back(&machineFor(Opts));

  // One plan across the whole benchmark x machine matrix: each benchmark
  // materialises its pipelines once, and the measurement stage spans
  // every (benchmark, machine, kind, trial) cell, so
  // mixed sweeps keep all --jobs workers busy. Cells come back
  // benchmark-major, machine-major inside, kinds in jemalloc/hds/halo
  // order -- bit-identical to a serial sweep.
  ExperimentSpec Spec;
  Spec.Benchmarks = Names;
  Spec.Machines = Machines;
  Spec.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Hds,
                AllocatorKind::Halo};
  Spec.S = Scale::Ref;
  Spec.Trials = Opts.Trials;
  Spec.MakeSetup = [&Opts](const std::string &Name) {
    return setupFor(Opts, Name);
  };
  std::optional<ArtifactStore> Store = openStore(Opts);
  FILE *Out = Opts.OutPath.empty() ? nullptr : openOutput(Opts.OutPath);
  ExperimentPlan Plan = buildPlan({Spec}, {}, Store ? &*Store : nullptr);
  ResultSet Results = runPlan(Plan, Opts.Jobs);

  std::vector<SweepRow> Rows = sweepRows(Results);
  sweepReport(Rows).print();
  if (Out) {
    writeSweepJson(Out, Rows);
    closeOutput(Out, Opts.OutPath,
                " (" + std::to_string(Rows.size()) + " rows)");
  }
  return 0;
}

int runExperiments(const CliOptions &Opts) {
  ExperimentSpec Spec;
  Spec.Benchmarks = benchmarkList(Opts);
  // --machines: preset names or "all"; default is the --machine preset
  // (or the setup default) as a single-machine matrix.
  for (const std::string &Name : Opts.MachineList) {
    if (Name == "all") {
      for (const MachineConfig &M : machinePresets())
        Spec.Machines.push_back(&M);
      continue;
    }
    const MachineConfig *M = findMachine(Name);
    if (!M)
      usageError("unknown machine '" + Name + "' in --machines (available: " +
                 knownMachines() + " all)");
    Spec.Machines.push_back(M);
  }
  if (Spec.Machines.empty() && !Opts.Machine.empty())
    Spec.Machines.push_back(&machineFor(Opts));
  if (!Opts.KindList.empty()) {
    Spec.Kinds.clear();
    for (const std::string &Name : Opts.KindList) {
      std::optional<AllocatorKind> Kind = parseAllocatorKind(Name);
      if (!Kind)
        usageError("unknown allocator kind '" + Name +
                   "' in --kinds (available: " + knownKinds() + ")");
      Spec.Kinds.push_back(*Kind);
    }
  }
  Spec.S = Opts.S;
  Spec.Trials = Opts.Trials;
  Spec.SeedBase = Opts.SeedBase;
  Spec.MakeSetup = [&Opts](const std::string &Name) {
    return setupFor(Opts, Name);
  };

  std::optional<ArtifactStore> Store = openStore(Opts);
  FILE *Out = openOutput(Opts.OutPath);
  ExperimentPlan Plan = buildPlan({Spec}, {}, Store ? &*Store : nullptr);
  ResultSet Results = runPlan(Plan, Opts.Jobs);
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
  closeOutput(Out, Opts.OutPath,
              " (" + std::to_string(Results.size()) + " cells)");
  return 0;
}

/// Minimal JSON string escaping for file names and store labels.
std::string jsonEscaped(const std::string &Text) {
  std::string Escaped;
  Escaped.reserve(Text.size());
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Escaped += '\\';
    Escaped += C;
  }
  return Escaped;
}

int runStore(const CliOptions &Opts) {
  // The store commands refuse to guess a directory: inspecting or
  // collecting "no store" is always a mistake.
  if (Opts.StoreDir.empty() && !std::getenv("HALO_STORE"))
    usageError("the store command needs a directory (--store-dir DIR or "
               "$HALO_STORE)");
  std::optional<ArtifactStore> Store = openStore(Opts);

  if (Opts.StoreVerb == "gc") {
    size_t Removed = Store->gc();
    std::printf("removed %zu file(s) from %s\n", Removed,
                Store->dir().c_str());
    return 0;
  }

  // ls and verify share the listing. ls parses only headers -- payload
  // sizes always appear, however large the entries, so oversized traces
  // are visible before gc decisions -- while verify reads and checksums
  // every payload and fails the exit code on any invalid entry so
  // scripts can gate on store health.
  std::vector<ArtifactStore::Entry> Entries =
      Store->entries(/*Validate=*/Opts.StoreVerb == "verify");
  Report Table("Artifact store " + Store->dir());
  Table.setColumns({"file", "type", "label", "payload bytes", "status"});
  size_t Invalid = 0;
  for (const ArtifactStore::Entry &E : Entries) {
    if (!E.Valid)
      ++Invalid;
    Table.addRow({E.File, artifactTypeName(E.Type), E.Label,
                  std::to_string(E.PayloadSize),
                  E.Valid ? "ok" : "CORRUPT: " + E.Problem});
  }
  Table.addNote(std::to_string(Entries.size()) + " entr" +
                (Entries.size() == 1 ? "y" : "ies") + ", " +
                std::to_string(Invalid) + " invalid");
  Table.print();
  if (Opts.StoreVerb == "ls" && !Opts.OutPath.empty()) {
    // The machine-readable listing, through the same tmp+rename output
    // path every JSON-emitting subcommand uses.
    FILE *Out = openOutput(Opts.OutPath);
    std::fprintf(Out, "[\n");
    for (size_t I = 0; I < Entries.size(); ++I) {
      const ArtifactStore::Entry &E = Entries[I];
      std::fprintf(Out,
                   "  {\"file\": \"%s\", \"type\": \"%s\", \"label\": "
                   "\"%s\", \"payload_bytes\": %llu, \"valid\": %s, "
                   "\"problem\": \"%s\"}%s\n",
                   jsonEscaped(E.File).c_str(), artifactTypeName(E.Type),
                   jsonEscaped(E.Label).c_str(),
                   (unsigned long long)E.PayloadSize,
                   E.Valid ? "true" : "false",
                   jsonEscaped(E.Problem).c_str(),
                   I + 1 < Entries.size() ? "," : "");
    }
    std::fprintf(Out, "]\n");
    closeOutput(Out, Opts.OutPath,
                " (" + std::to_string(Entries.size()) + " entries)");
  }
  if (Opts.StoreVerb == "verify" && Invalid) {
    std::fprintf(stderr,
                 "halo_cli: store verify: %zu corrupt entr%s (run "
                 "`halo_cli store gc` to remove)\n",
                 Invalid, Invalid == 1 ? "y" : "ies");
    return 1;
  }
  return 0;
}

int runTrace(const CliOptions &Opts) {
  FILE *Out = openOutput(Opts.OutPath);
  Evaluation Eval(setupFor(Opts));
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
      Opts.Benchmark.c_str(), (unsigned long long)Trace.numEvents(),
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
  closeOutput(Out, Opts.OutPath);
  return 0;
}

int runServe(const CliOptions &Opts) {
  DaemonConfig Config;
  Config.SocketPath = Opts.SocketPath;
  Config.Jobs = Opts.Jobs;
  // Validate the store like every other command does, before anything
  // is bound: a bad directory is a usage error, not a stale socket file.
  if (std::optional<ArtifactStore> Store = openStore(Opts))
    Config.StoreDir = Store->dir();
  // Resolve the pool size up front so a malformed HALO_JOBS fails here,
  // not after the socket is bound.
  unsigned Workers = resolveJobs(Opts.Jobs);
  std::string StoreNote =
      Config.StoreDir.empty() ? std::string(", no store")
                              : ", store " + Config.StoreDir;
  std::fprintf(stderr, "halo_cli: serving on %s (%u worker(s)%s)\n",
               Opts.SocketPath.c_str(), Workers, StoreNote.c_str());
  HaloDaemon Daemon(Config);
  int Exit = Daemon.serve();
  std::fprintf(stderr, "halo_cli: daemon on %s shut down\n",
               Opts.SocketPath.c_str());
  return Exit;
}

int runClientStats(HaloClient &Client, const CliOptions &Opts) {
  DaemonStats St = Client.stats();
  Report Table("halo serve on " + Opts.SocketPath);
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

int runClient(const CliOptions &Opts) {
  HaloClient Client(Opts.SocketPath);
  if (Opts.ClientVerb == "stats")
    return runClientStats(Client, Opts);
  if (Opts.ClientVerb == "shutdown") {
    Client.shutdownServer();
    std::printf("daemon on %s acknowledged shutdown\n",
                Opts.SocketPath.c_str());
    return 0;
  }

  // client run: the experiments matrix, measured by the daemon. Names are
  // validated locally first (same registries) so typos fail with the
  // usage message instead of a protocol round trip.
  PlanRequest R;
  R.Benchmarks = benchmarkList(Opts);
  for (const std::string &Name : Opts.MachineList) {
    if (Name == "all") {
      for (const MachineConfig &M : machinePresets())
        R.Machines.push_back(M.Name);
      continue;
    }
    if (!findMachine(Name))
      usageError("unknown machine '" + Name + "' in --machines (available: " +
                 knownMachines() + " all)");
    R.Machines.push_back(Name);
  }
  // Without --machines, --machine names the one measured machine, as in
  // experiments.
  if (R.Machines.empty() && !Opts.Machine.empty())
    R.Machines.push_back(Opts.Machine);
  if (!Opts.KindList.empty()) {
    R.Kinds.clear();
    for (const std::string &Name : Opts.KindList) {
      std::optional<AllocatorKind> Kind = parseAllocatorKind(Name);
      if (!Kind)
        usageError("unknown allocator kind '" + Name +
                   "' in --kinds (available: " + knownKinds() + ")");
      R.Kinds.push_back(*Kind);
    }
  }
  R.S = Opts.S;
  R.Trials = Opts.Trials;
  R.SeedBase = Opts.SeedBase;

  // Open --out before submitting (fail fast on an unwritable path), but
  // only rename into place for a completed plan -- a cancelled or failed
  // plan must not overwrite a previous good document with a partial one.
  FILE *Out = openOutput(Opts.OutPath);
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
      if (!writesInPlace(Opts.OutPath))
        std::remove((Opts.OutPath + ".tmp").c_str());
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
                Opts.SocketPath.c_str());
  }
  writeExperimentsJson(Out, Outcome.Results);
  closeOutput(Out, Opts.OutPath,
              " (" + std::to_string(Outcome.Results.size()) + " cells)");
  return 0;
}

} // namespace

static int runMain(const CliOptions &Opts);

int main(int Argc, char **Argv) {
  CliOptions Opts = parseArgs(Argc, Argv);
  try {
    return runMain(Opts);
  } catch (const std::exception &E) {
    // One catch for everything the library throws past a subcommand:
    // connection failures, protocol errors, a malformed HALO_JOBS.
    std::fprintf(stderr, "halo_cli: error: %s\n", E.what());
    return 1;
  }
}

static int runMain(const CliOptions &Opts) {
  if (Opts.Command == "machines")
    return runMachines();
  if (Opts.Command == "plot")
    return runPlot(Opts);
  if (Opts.Command == "sweep")
    return runSweep(Opts);
  if (Opts.Command == "experiments")
    return runExperiments(Opts);
  if (Opts.Command == "store")
    return runStore(Opts);
  if (Opts.Command == "serve")
    return runServe(Opts);
  if (Opts.Command == "client")
    return runClient(Opts);

  if (!createWorkload(Opts.Benchmark)) {
    std::fprintf(stderr, "unknown benchmark '%s'\n", Opts.Benchmark.c_str());
    return 1;
  }
  if (Opts.Command == "trace")
    return runTrace(Opts);

  AllocatorKind Kind;
  if (Opts.Command == "baseline")
    Kind = AllocatorKind::Jemalloc;
  else if (Opts.Command == "run")
    Kind = AllocatorKind::Halo;
  else if (Opts.Command == "hds")
    Kind = AllocatorKind::Hds;
  else
    usage();

  // A 1x1x1 plan: same scheduler and emitter as the big sweeps.
  std::optional<ArtifactStore> Store = openStore(Opts);
  FILE *Out = openOutput(Opts.OutPath);
  ExperimentSpec Spec;
  Spec.Benchmarks = {Opts.Benchmark};
  Spec.Kinds = {Kind};
  Spec.S = Scale::Ref;
  Spec.Trials = Opts.Trials;
  Spec.MakeSetup = [&Opts](const std::string &Name) {
    return setupFor(Opts, Name);
  };
  ExperimentPlan Plan = buildPlan({Spec}, {}, Store ? &*Store : nullptr);
  ResultSet Results = runPlan(Plan, Opts.Jobs);

  writeRunsJson(Out, Opts.Benchmark, Opts.Command,
                Results.cells().front().Runs);
  closeOutput(Out, Opts.OutPath);
  return 0;
}
