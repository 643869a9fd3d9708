//===- benchmark/halo_bench.cpp - End-to-end benchmark driver -------------===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
//
// The single load-generating process of the repository benchmark. It runs
// the four workloads of benchmark/README.md against the real halo_cli
// binary and the real `halo_cli serve` daemon, times them on the harness
// clock only (never the simulated one), checks every output, and prints
// every end-to-end metric followed by the one-line JSON result.
//
//   halo_bench --cli PATH [--workload W] [--seed N] [--seconds S]
//              [--smoke] [--out FILE] [--work DIR] [--rev REV]
//   halo_bench --self-test
//
// Every halo_cli child is started with posix_spawn and reaped with wait4,
// which gives its wall time, CPU time and peak RSS; one child runs at a
// time, at its default --jobs. The daemon gets at most three client
// threads. Each timed phase runs whole rounds of one fixed request mix
// until --seconds have passed, so both sides of a comparison measure the
// same mix. Set-up (warm-up invocation, store population, daemon start and
// warm-up) is timed apart, several times, as setup_s.
//
// Correctness: every later output of a request must be byte-equal to its
// first output, and for at least one key per (benchmark, allocator kind)
// the first output must equal Evaluation::measureDirect -- the trace-free
// oracle -- on cycles and every miss counter. Any failure makes the run
// report "correct": false and exit non-zero.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "eval/Evaluation.h"
#include "eval/Experiment.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "sim/Machine.h"
#include "workloads/Workload.h"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace fs = std::filesystem;
using namespace bench;
using namespace halo;

namespace {

//===----------------------------------------------------------------------===//
// A minimal reader for halo_cli's JSON documents
//===----------------------------------------------------------------------===//

struct Json {
  enum Kind { Null, Bool, Number, String, Array, Object } K = Null;
  bool B = false;
  double Num = 0.0;
  bool IsUnsigned = false; ///< A non-negative integer literal, exact in U.
  uint64_t U = 0;
  std::string Str;
  std::vector<Json> Items;
  std::vector<std::pair<std::string, Json>> Fields;

  const Json &at(const std::string &Key) const {
    for (const auto &F : Fields)
      if (F.first == Key)
        return F.second;
    throw std::runtime_error("json: missing field '" + Key + "'");
  }
  uint64_t unsignedAt(const std::string &Key) const {
    const Json &V = at(Key);
    if (!V.IsUnsigned)
      throw std::runtime_error("json: field '" + Key + "' is not a count");
    return V.U;
  }
  const std::string &stringAt(const std::string &Key) const {
    const Json &V = at(Key);
    if (V.K != String)
      throw std::runtime_error("json: field '" + Key + "' is not a string");
    return V.Str;
  }
};

/// Parses one JSON document. halo_cli escapes only '"' and '\\' in the
/// strings it writes, so escapes are taken literally.
class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : T(Text) {}

  Json document() {
    Json V = value();
    skipSpace();
    if (P != T.size())
      fail("trailing bytes");
    return V;
  }

private:
  [[noreturn]] void fail(const char *What) const {
    throw std::runtime_error(std::string("json: ") + What + " at byte " +
                             std::to_string(P));
  }
  void skipSpace() {
    while (P < T.size() && std::isspace(static_cast<unsigned char>(T[P])))
      ++P;
  }
  bool eat(char C) {
    skipSpace();
    if (P < T.size() && T[P] == C) {
      ++P;
      return true;
    }
    return false;
  }
  void expect(char C) {
    if (!eat(C))
      fail("unexpected character");
  }
  bool literal(const char *Word) {
    size_t N = std::strlen(Word);
    if (T.compare(P, N, Word) != 0)
      return false;
    P += N;
    return true;
  }

  Json value() {
    skipSpace();
    if (P >= T.size())
      fail("unexpected end");
    Json V;
    if (eat('{')) {
      V.K = Json::Object;
      if (eat('}'))
        return V;
      do {
        skipSpace();
        std::string Key = string();
        expect(':');
        V.Fields.emplace_back(std::move(Key), value());
      } while (eat(','));
      expect('}');
    } else if (eat('[')) {
      V.K = Json::Array;
      if (eat(']'))
        return V;
      do
        V.Items.push_back(value());
      while (eat(','));
      expect(']');
    } else if (T[P] == '"') {
      V.K = Json::String;
      V.Str = string();
    } else if (literal("true")) {
      V.K = Json::Bool;
      V.B = true;
    } else if (literal("false")) {
      V.K = Json::Bool;
    } else if (!literal("null")) {
      V = number();
    }
    return V;
  }

  std::string string() {
    if (P >= T.size() || T[P] != '"')
      fail("expected a string");
    ++P;
    std::string S;
    while (P < T.size() && T[P] != '"') {
      if (T[P] == '\\' && ++P >= T.size())
        break;
      S += T[P++];
    }
    if (P >= T.size())
      fail("unterminated string");
    ++P;
    return S;
  }

  Json number() {
    size_t Start = P;
    bool Integral = T[P] != '-';
    if (T[P] == '-')
      ++P;
    while (P < T.size() && (std::isdigit(static_cast<unsigned char>(T[P])) ||
                            std::strchr(".eE+-", T[P]))) {
      Integral = Integral && std::isdigit(static_cast<unsigned char>(T[P]));
      ++P;
    }
    std::string Text = T.substr(Start, P - Start);
    if (Text.empty() || Text == "-")
      fail("unexpected character");
    Json V;
    V.K = Json::Number;
    char *End = nullptr;
    V.Num = std::strtod(Text.c_str(), &End);
    if (*End != '\0')
      fail("malformed number");
    if (Integral) {
      V.IsUnsigned = true;
      V.U = std::strtoull(Text.c_str(), nullptr, 10);
    }
    return V;
  }

  const std::string &T;
  size_t P = 0;
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

//===----------------------------------------------------------------------===//
// The correctness oracle
//===----------------------------------------------------------------------===//

/// The simulated-clock counters an output is checked on.
struct Counters {
  uint64_t Cycles = 0, L1dAccesses = 0, L1dMisses = 0, L2Misses = 0,
           L3Misses = 0, TlbMisses = 0;

  bool operator==(const Counters &O) const {
    return Cycles == O.Cycles && L1dAccesses == O.L1dAccesses &&
           L1dMisses == O.L1dMisses && L2Misses == O.L2Misses &&
           L3Misses == O.L3Misses && TlbMisses == O.TlbMisses;
  }
  std::string str() const {
    return "cycles " + std::to_string(Cycles) + ", l1d " +
           std::to_string(L1dAccesses) + "/" + std::to_string(L1dMisses) +
           ", l2 " + std::to_string(L2Misses) + ", l3 " +
           std::to_string(L3Misses) + ", tlb " + std::to_string(TlbMisses);
  }
};

Counters countersOf(const RunMetrics &M) {
  return {M.Cycles,      M.Mem.Accesses, M.Mem.L1Misses,
          M.Mem.L2Misses, M.Mem.L3Misses, M.Mem.TlbMisses};
}

/// The counters of one run object of halo_cli's JSON.
Counters countersOf(const Json &Run) {
  return {Run.unsignedAt("cycles"),    Run.unsignedAt("l1d_accesses"),
          Run.unsignedAt("l1d_misses"), Run.unsignedAt("l2_misses"),
          Run.unsignedAt("l3_misses"),  Run.unsignedAt("tlb_misses")};
}

/// One measurement key whose first output is checked against the oracle.
struct OracleCheck {
  std::string Bench;
  std::string Machine;
  AllocatorKind Kind = AllocatorKind::Jemalloc;
  Scale S = Scale::Ref;
  uint64_t Seed = 0;
  Counters Observed;
};

/// Runs Evaluation::measureDirect for every check, one benchmark per task
/// across the host's cores, and returns one line per mismatch.
std::vector<std::string> runOracle(const std::vector<OracleCheck> &Checks) {
  std::map<std::string, std::vector<const OracleCheck *>> ByBench;
  for (const OracleCheck &C : Checks)
    ByBench[C.Bench].push_back(&C);
  std::vector<std::string> Names;
  for (const auto &Entry : ByBench)
    Names.push_back(Entry.first);

  std::mutex Mu;
  std::vector<std::string> Problems;
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Names.size();) {
      const std::string &Name = Names[I];
      std::vector<std::string> Local;
      try {
        if (!createWorkload(Name))
          throw std::runtime_error("unknown benchmark in output");
        Evaluation Eval(paperSetup(Name));
        for (const OracleCheck *C : ByBench[Name]) {
          const MachineConfig *M = findMachine(C->Machine);
          if (!M)
            throw std::runtime_error("unknown machine '" + C->Machine + "'");
          Counters Direct =
              countersOf(Eval.measureDirect(*M, C->Kind, C->S, C->Seed));
          if (!(Direct == C->Observed))
            Local.push_back(Name + " " + C->Machine + " " +
                            allocatorKindName(C->Kind) + " seed " +
                            std::to_string(C->Seed) + ": output " +
                            C->Observed.str() + " but measureDirect " +
                            Direct.str());
        }
      } catch (const std::exception &E) {
        Local.push_back(Name + ": oracle failed: " + E.what());
      }
      std::lock_guard<std::mutex> Lock(Mu);
      Problems.insert(Problems.end(), Local.begin(), Local.end());
    }
  };
  unsigned Threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < std::min<size_t>(Threads, Names.size()); ++T)
    Pool.emplace_back(Worker);
  Worker();
  for (std::thread &T : Pool)
    T.join();
  return Problems;
}

/// Oracle checks for every cell of an `experiments` document whose
/// benchmark passes \p Want; each cell's first trial (seed = seed base).
void addMatrixChecks(const Json &Doc, std::vector<OracleCheck> &Checks,
                     const std::function<bool(const Json &Cell)> &Want) {
  for (const Json &Cell : Doc.Items) {
    if (!Want(Cell))
      continue;
    OracleCheck C;
    C.Bench = Cell.stringAt("bench");
    C.Machine = Cell.stringAt("machine");
    std::optional<AllocatorKind> Kind =
        parseAllocatorKind(Cell.stringAt("kind"));
    std::optional<Scale> S = parseScale(Cell.stringAt("scale"));
    if (!Kind || !S)
      throw std::runtime_error("unknown kind or scale in output");
    C.Kind = *Kind;
    C.S = *S;
    C.Seed = Cell.unsignedAt("seed_base");
    const Json &Runs = Cell.at("runs");
    if (Runs.Items.empty())
      throw std::runtime_error("cell without runs in output");
    C.Observed = countersOf(Runs.Items.front());
    Checks.push_back(C);
  }
}

//===----------------------------------------------------------------------===//
// Child processes
//===----------------------------------------------------------------------===//

struct ProcStats {
  int Status = -1;
  double WallMs = 0.0;
  double CpuMs = 0.0;
  double MaxRssMb = 0.0;

  bool ok() const { return WIFEXITED(Status) && WEXITSTATUS(Status) == 0; }
  std::string describe() const {
    if (WIFEXITED(Status))
      return "exit code " + std::to_string(WEXITSTATUS(Status));
    if (WIFSIGNALED(Status))
      return "killed by signal " + std::to_string(WTERMSIG(Status));
    return "status " + std::to_string(Status);
  }
};

/// Starts halo_cli children in the work directory with a private TMPDIR
/// and no inherited store or jobs settings, so the program under test only
/// ever sees the generated command lines.
class Spawner {
public:
  Spawner(std::string Cli, const std::string &TmpDir) : Cli(std::move(Cli)) {
    for (char **E = environ; *E; ++E) {
      std::string Var = *E;
      if (Var.rfind("TMPDIR=", 0) == 0 || Var.rfind("HALO_STORE=", 0) == 0 ||
          Var.rfind("HALO_JOBS=", 0) == 0)
        continue;
      EnvStrings.push_back(Var);
    }
    EnvStrings.push_back("TMPDIR=" + TmpDir);
    for (std::string &Var : EnvStrings)
      Env.push_back(&Var[0]);
    Env.push_back(nullptr);
  }

  /// Starts `halo_cli Args...` with stdout and stderr in the given files.
  pid_t start(const std::vector<std::string> &Args, const char *OutFile,
              const char *ErrFile) {
    std::vector<std::string> Argv = {Cli};
    Argv.insert(Argv.end(), Args.begin(), Args.end());
    std::vector<char *> Ptrs;
    for (std::string &A : Argv)
      Ptrs.push_back(&A[0]);
    Ptrs.push_back(nullptr);
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_addopen(&Actions, 1, OutFile,
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&Actions, 2, ErrFile,
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    pid_t Pid = -1;
    int Err = posix_spawn(&Pid, Cli.c_str(), &Actions, nullptr, Ptrs.data(),
                          Env.data());
    posix_spawn_file_actions_destroy(&Actions);
    if (Err != 0)
      throw std::runtime_error("cannot start " + Cli + ": " +
                               std::strerror(Err));
    return Pid;
  }

  /// Waits for \p Pid (started at \p Start) and returns its resource use.
  static ProcStats wait(pid_t Pid, Clock::time_point Start) {
    ProcStats P;
    struct rusage Usage;
    std::memset(&Usage, 0, sizeof(Usage));
    while (wait4(Pid, &P.Status, 0, &Usage) < 0)
      if (errno != EINTR)
        throw std::runtime_error("wait4 failed");
    P.WallMs = msSince(Start);
    P.CpuMs = (Usage.ru_utime.tv_sec + Usage.ru_stime.tv_sec) * 1e3 +
              (Usage.ru_utime.tv_usec + Usage.ru_stime.tv_usec) / 1e3;
    P.MaxRssMb = static_cast<double>(Usage.ru_maxrss) / 1024.0;
    return P;
  }

  /// Runs one invocation to completion; its output lands in child.out and
  /// child.err.
  ProcStats run(const std::vector<std::string> &Args) {
    Clock::time_point T0 = Clock::now();
    return wait(start(Args, "child.out", "child.err"), T0);
  }

private:
  std::string Cli;
  std::vector<std::string> EnvStrings;
  std::vector<char *> Env;
};

/// The daemon child: shut down through the protocol on the normal path;
/// killed and reaped by the destructor on any other.
class DaemonProcess {
public:
  DaemonProcess(Spawner &Proc, const std::string &Store) {
    std::error_code Ignored;
    fs::remove(SocketPath, Ignored);
    Pid = Proc.start({"serve", "--socket", SocketPath, "--store-dir", Store},
                     "daemon.out", "daemon.err");
  }
  ~DaemonProcess() {
    if (Pid > 0) {
      kill(Pid, SIGKILL);
      int Status;
      waitpid(Pid, &Status, 0);
    }
  }
  DaemonProcess(const DaemonProcess &) = delete;
  DaemonProcess &operator=(const DaemonProcess &) = delete;

  /// Connects once the socket accepts; throws if the daemon died or never
  /// came up.
  HaloClient connect() {
    Clock::time_point T0 = Clock::now();
    for (;;) {
      try {
        return HaloClient(SocketPath);
      } catch (const std::exception &) {
        int Status;
        if (waitpid(Pid, &Status, WNOHANG) == Pid) {
          Pid = -1;
          throw std::runtime_error("the daemon exited before serving");
        }
        if (msSince(T0) > 60000)
          throw std::runtime_error("the daemon did not come up in 60 s");
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }

  /// User+system CPU the daemon has used so far, from /proc.
  double cpuMs() const {
    std::string Stat = readFile("/proc/" + std::to_string(Pid) + "/stat");
    size_t Close = Stat.rfind(')');
    if (Close == std::string::npos)
      throw std::runtime_error("cannot read the daemon's /proc stat");
    std::istringstream In(Stat.substr(Close + 2));
    std::string Field;
    unsigned long long UTime = 0, STime = 0;
    // Fields after the command name start at 3 (state); utime is 14.
    for (int I = 3; I <= 15 && In >> Field; ++I) {
      if (I == 14)
        UTime = std::stoull(Field);
      if (I == 15)
        STime = std::stoull(Field);
    }
    return static_cast<double>(UTime + STime) * 1000.0 /
           static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  /// Asks the daemon to shut down and reaps it.
  ProcStats shutdown() {
    Clock::time_point T0 = Clock::now();
    connect().shutdownServer();
    ProcStats P = Spawner::wait(Pid, T0);
    Pid = -1;
    return P;
  }

  static constexpr const char *SocketPath = "serve.sock";

private:
  pid_t Pid = -1;
};

//===----------------------------------------------------------------------===//
// The workloads
//===----------------------------------------------------------------------===//

/// Everything one workload run measures.
struct Tally {
  std::vector<double> SetupS;
  std::vector<double> LatencyMs;
  std::vector<double> FirstCellMs;
  double WallS = 0.0;
  size_t Rounds = 0;
  double CpuMs = 0.0;
  double PeakRssMb = 0.0;
  uint64_t Replays = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems;

  void fail(const std::string &What) {
    ++Failed;
    if (Problems.size() < 20)
      Problems.push_back(What);
  }
};

std::string join(const std::vector<std::string> &Items, const char *Sep) {
  std::string Out;
  for (const std::string &I : Items)
    Out += (Out.empty() ? "" : Sep) + I;
  return Out;
}

class Harness {
public:
  Harness(const Options &Opts, const std::string &Cli)
      : Opts(Opts), Proc(Cli, (fs::current_path() / "tmp").string()),
        Benchmarks(halo::workloadNames()), Machines(machineNames()),
        SeedBase(std::to_string(seedBase(Opts.Seed))),
        SetupRepeats(Opts.Smoke ? 1 : 3) {
    fs::create_directories("tmp");
  }

  RunResult run(const std::string &Workload) {
    Tally T;
    FirstOutput.clear();
    Shuffler Order(Opts.Seed);
    // The seed picks the benchmark order (and, below, every other draw);
    // the program only sees the command lines and plans built from it.
    std::vector<std::string> Benches = Benchmarks;
    Order.shuffle(Benches);
    std::vector<OracleCheck> Checks;
    if (Workload == "cli_run")
      cliRun(T, Order, Checks);
    else if (Workload == "matrix_cold_test")
      matrixColdTest(T, Benches, Checks);
    else if (Workload == "matrix_warm")
      matrixWarm(T, Benches, Order, Checks);
    else
      serveMixed(T, Benches, Order, Checks);

    T.Attempted += Checks.size();
    for (const std::string &Problem : runOracle(Checks))
      T.fail("oracle: " + Problem);
    return result(Workload, T, Checks.size());
  }

private:
  /// Runs whole rounds of \p RoundSize requests until --seconds passed.
  template <typename Fn>
  void rounds(Tally &T, size_t RoundSize, const Fn &Request) {
    Clock::time_point T0 = Clock::now();
    do {
      for (size_t I = 0; I < RoundSize; ++I)
        Request(I);
      ++T.Rounds;
    } while (msSince(T0) < Opts.Seconds * 1e3);
    T.WallS = msSince(T0) / 1e3;
  }

  /// Times one set-up step.
  template <typename Fn> void setup(Tally &T, const Fn &Step) {
    for (unsigned R = 0; R < SetupRepeats; ++R) {
      Clock::time_point T0 = Clock::now();
      Step(R + 1 == SetupRepeats);
      T.SetupS.push_back(msSince(T0) / 1e3);
    }
  }

  /// Runs an untimed-phase halo_cli invocation that must succeed.
  void mustRun(const std::vector<std::string> &Args) {
    ProcStats P = Proc.run(Args);
    if (!P.ok())
      throw std::runtime_error("set-up `halo_cli " + join(Args, " ") +
                               "` failed (" + P.describe() +
                               "): " + readFile("child.err"));
  }

  /// One timed request: a halo_cli invocation writing \p Out. Its bytes
  /// must equal the first output of the same \p Label.
  bool invoke(Tally &T, const std::vector<std::string> &Args,
              const std::string &Out, const std::string &Label,
              uint64_t Replays) {
    ++T.Attempted;
    ProcStats P = Proc.run(Args);
    if (!P.ok()) {
      T.fail("`halo_cli " + join(Args, " ") + "`: " + P.describe() + ": " +
             readFile("child.err").substr(0, 400));
      return false;
    }
    std::string Bytes = readFile(Out);
    auto It = FirstOutput.find(Label);
    if (It == FirstOutput.end()) {
      FirstOutput.emplace(Label, Bytes);
    } else if (It->second != Bytes) {
      T.fail(Label + ": output differs from the first output");
      return false;
    }
    T.LatencyMs.push_back(P.WallMs);
    // A CLI invocation delivers its whole result at exit.
    T.FirstCellMs.push_back(P.WallMs);
    T.CpuMs += P.CpuMs;
    T.PeakRssMb = std::max(T.PeakRssMb, P.MaxRssMb);
    T.Replays += Replays;
    return true;
  }

  /// `halo_cli run B --trials 1` over every benchmark, one round each in a
  /// fresh seeded order; no store.
  void cliRun(Tally &T, Shuffler &Order, std::vector<OracleCheck> &Checks) {
    // Set-up runs every benchmark once: a single invocation (~0.1 s) is
    // too short a sample of a noisy host to give a steady setup_s.
    setup(T, [&](bool) {
      for (const std::string &B : Benchmarks)
        mustRun({"run", B, "--trials", "1", "--out", "warmup.json"});
    });
    std::vector<std::string> Benches = Benchmarks;
    rounds(T, Benches.size(), [&](size_t I) {
      if (I == 0)
        Order.shuffle(Benches);
      const std::string &B = Benches[I];
      invoke(T, {"run", B, "--trials", "1", "--out", "run-" + B + ".json"},
             "run-" + B + ".json", B, 1);
    });
    for (const std::string &B : Benchmarks) {
      if (!FirstOutput.count(B))
        continue;
      Json Doc = JsonParser(FirstOutput[B]).document();
      OracleCheck C;
      C.Bench = B;
      C.Machine = defaultMachine().Name;
      C.Kind = AllocatorKind::Halo;
      C.S = Scale::Ref;
      C.Seed = 100; // `run` always measures the paper's seed base.
      C.Observed = countersOf(Doc.at("runs").Items.at(0));
      Checks.push_back(C);
    }
  }

  std::vector<std::string>
  experimentsArgs(const std::vector<std::string> &Benches,
                  std::vector<std::string> Flags) {
    std::vector<std::string> Args = {"experiments"};
    Args.insert(Args.end(), Benches.begin(), Benches.end());
    Args.insert(Args.end(), Flags.begin(), Flags.end());
    return Args;
  }

  /// The test-scale Fig. 13/14 matrix against a fresh empty store each
  /// time: every artifact is recorded, derived and written.
  void matrixColdTest(Tally &T, const std::vector<std::string> &Benches,
                      std::vector<OracleCheck> &Checks) {
    std::vector<std::string> Args = experimentsArgs(
        Benches, {"--scale", "test", "--kinds", "jemalloc,hds,halo",
                  "--trials", "3", "--seed-base", SeedBase, "--store-dir",
                  "cold-store", "--out", "cold.json"});
    setup(T, [&](bool) {
      fs::remove_all("cold-store");
      mustRun(Args);
    });
    rounds(T, 1, [&](size_t) {
      fs::remove_all("cold-store");
      invoke(T, Args, "cold.json", "cold", Benches.size() * 3 * 3);
    });
    fs::remove_all("cold-store");
    if (FirstOutput.count("cold")) {
      Json Doc = JsonParser(FirstOutput["cold"]).document();
      addMatrixChecks(Doc, Checks, [](const Json &) { return true; });
    }
  }

  /// The ref-scale matrix on one machine per request, machines in a seeded
  /// order, against a store set-up populated: replay-only.
  void matrixWarm(Tally &T, const std::vector<std::string> &Benches,
                  Shuffler &Order, std::vector<OracleCheck> &Checks) {
    setup(T, [&](bool) {
      fs::remove_all("warm-store");
      mustRun(experimentsArgs(
          Benches, {"--kinds", "hds,halo", "--trials", "1", "--seed-base",
                    SeedBase, "--store-dir", "warm-store", "--out",
                    "populate.json"}));
    });
    // The workload is only "warm" if the store served every recording and
    // artifact: a request that records or derives anything publishes it,
    // which replaces an entry file.
    auto Entries = [] {
      std::map<std::string, fs::file_time_type> Files;
      for (const fs::directory_entry &E : fs::directory_iterator("warm-store"))
        Files[E.path().filename().string()] = E.last_write_time();
      return Files;
    };
    const auto Populated = Entries();
    std::vector<std::string> Ms = Machines;
    Order.shuffle(Ms);
    rounds(T, Ms.size(), [&](size_t I) {
      std::string Out = "warm-" + Ms[I] + ".json";
      if (invoke(T,
                 experimentsArgs(Benches,
                                 {"--machines", Ms[I], "--kinds",
                                  "jemalloc,hds,halo", "--trials", "1",
                                  "--seed-base", SeedBase, "--store-dir",
                                  "warm-store", "--out", Out}),
                 Out, Ms[I], Benches.size() * 3) &&
          Entries() != Populated)
        T.fail(Ms[I] + ": the request wrote to the store");
    });
    fs::remove_all("warm-store");
    // Benchmark I is checked on machine I mod 4, so every machine and
    // every (benchmark, kind) gets a check.
    for (size_t I = 0; I < Ms.size(); ++I) {
      if (!FirstOutput.count(Ms[I]))
        continue;
      Json Doc = JsonParser(FirstOutput[Ms[I]]).document();
      addMatrixChecks(Doc, Checks, [&](const Json &Cell) {
        auto Pos = std::find(Benches.begin(), Benches.end(),
                             Cell.stringAt("bench"));
        return static_cast<size_t>(Pos - Benches.begin()) % Ms.size() == I;
      });
    }
  }

  /// The daemon under three clients: A and B submit small plans (one
  /// benchmark x one machine x three kinds), C the big plan (every
  /// benchmark on one machine) back to back.
  void serveMixed(Tally &T, const std::vector<std::string> &Benches,
                  Shuffler &Order, std::vector<OracleCheck> &Checks) {
    uint64_t Base = seedBase(Opts.Seed);
    auto Request = [&](std::vector<std::string> Bs, std::string Machine) {
      PlanRequest R;
      R.Benchmarks = std::move(Bs);
      if (!Machine.empty())
        R.Machines = {std::move(Machine)};
      R.S = Scale::Ref;
      R.Trials = 1;
      R.SeedBase = Base;
      return R;
    };

    std::unique_ptr<DaemonProcess> Daemon;
    setup(T, [&](bool Keep) {
      fs::remove_all("serve-store");
      Daemon = std::make_unique<DaemonProcess>(Proc, "serve-store");
      {
        // Touches every benchmark once: the daemon records, derives and
        // publishes everything, and keeps it warm.
        HaloClient Warm = Daemon->connect();
        PlanOutcome O = Warm.wait(Warm.submit(Request(Benches, "")));
        if (O.Status != PlanStatus::Ok)
          throw std::runtime_error("set-up: the warm-up plan failed: " +
                                   O.Message);
      }
      if (!Keep) {
        ProcStats P = Daemon->shutdown();
        if (!P.ok())
          throw std::runtime_error("set-up: daemon " + P.describe());
      }
    });

    // A round of small plans covers every benchmark once; benchmark I of
    // round R runs on machine (I + R) mod 4, so four rounds cover every
    // (benchmark, machine) pair.
    std::vector<std::string> SmallMachines = Machines;
    Order.shuffle(SmallMachines);
    std::vector<std::string> BigMachines = Machines;
    Order.shuffle(BigMachines);
    auto SmallPlan = [&](size_t N) {
      size_t Round = N / Benches.size(), I = N % Benches.size();
      return std::make_pair(
          Benches[I], SmallMachines[(I + Round) % SmallMachines.size()]);
    };

    std::mutex Mu; // Guards everything below that the clients share.
    size_t NextSmall = 0;
    bool Closed = false;
    std::map<std::string, std::string> FirstCell; // key -> encoded cell
    std::map<std::string, std::string> CheckMachine; // bench -> machine
    std::map<std::string, CellResultMsg> CheckCells; // key -> cell
    std::atomic<bool> StopBig{false};
    std::atomic<uint64_t> Replays{0};

    // Records one streamed cell; false if it differs from the first
    // output of its key.
    auto Record = [&](const CellResultMsg &M, bool Small) {
      CellResultMsg Canon = M;
      Canon.PlanId = 0;
      Canon.CellIndex = 0;
      std::vector<uint8_t> Bytes = encodeCellResult(Canon);
      std::string Key = M.Key.Benchmark + "|" + M.Key.Machine + "|" +
                        allocatorKindName(M.Key.Kind);
      std::lock_guard<std::mutex> Lock(Mu);
      // Each benchmark is oracle-checked on the machine of its first
      // small plan, under all three kinds.
      if (Small)
        CheckMachine.emplace(M.Key.Benchmark, M.Key.Machine);
      auto Check = CheckMachine.find(M.Key.Benchmark);
      if (Check != CheckMachine.end() && Check->second == M.Key.Machine)
        CheckCells.emplace(Key, M);
      auto Inserted =
          FirstCell.emplace(Key, std::string(Bytes.begin(), Bytes.end()));
      return Inserted.second ||
             Inserted.first->second == std::string(Bytes.begin(), Bytes.end());
    };

    Clock::time_point T0 = Clock::now();
    auto Take = [&]() -> std::optional<size_t> {
      std::lock_guard<std::mutex> Lock(Mu);
      if (!Closed && NextSmall % Benches.size() == 0 && NextSmall > 0 &&
          msSince(T0) >= Opts.Seconds * 1e3)
        Closed = true;
      if (Closed)
        return std::nullopt;
      return NextSmall++;
    };

    std::vector<Tally> ClientTallies(3);
    auto SmallClient = [&](Tally &CT) {
      try {
        HaloClient C = Daemon->connect();
        while (std::optional<size_t> I = Take()) {
          std::pair<std::string, std::string> Combo = SmallPlan(*I);
          ++CT.Attempted;
          bool Same = true;
          Clock::time_point Start = Clock::now();
          double FirstMs = -1.0;
          uint64_t Id = C.submit(Request({Combo.first}, Combo.second));
          PlanOutcome O = C.wait(Id, [&](const CellResultMsg &M) {
            if (FirstMs < 0)
              FirstMs = msSince(Start);
            Same = Record(M, true) && Same;
          });
          double LatencyMs = msSince(Start);
          if (O.Status != PlanStatus::Ok || !Same) {
            CT.fail(Combo.first + " on " + Combo.second + ": " +
                    (Same ? "plan did not complete: " + O.Message
                          : "cell differs from the first output"));
            continue;
          }
          CT.LatencyMs.push_back(LatencyMs);
          CT.FirstCellMs.push_back(FirstMs);
          Replays += O.CellsReceived;
        }
      } catch (const std::exception &E) {
        CT.fail(std::string("small-plan client: ") + E.what());
      }
    };
    auto BigClient = [&](Tally &CT) {
      try {
        HaloClient C = Daemon->connect();
        for (size_t K = 0; !StopBig; ++K) {
          ++CT.Attempted;
          bool Same = true, Cancelled = false;
          uint64_t Id = C.submit(Request(
              Benches, BigMachines[K % BigMachines.size()]));
          PlanOutcome O = C.wait(Id, [&](const CellResultMsg &M) {
            Same = Record(M, false) && Same;
            if (!StopBig)
              ++Replays;
            else if (!Cancelled) {
              C.cancel(Id);
              Cancelled = true;
            }
          });
          bool Ok = O.Status == PlanStatus::Ok ||
                    (O.Status == PlanStatus::Cancelled && Cancelled);
          if (!Ok || !Same)
            CT.fail("big plan: " + (Same ? "plan did not complete: " +
                                               O.Message
                                         : "cell differs from the first "
                                           "output"));
        }
      } catch (const std::exception &E) {
        CT.fail(std::string("big-plan client: ") + E.what());
      }
    };

    double CpuStart = Daemon->cpuMs();
    std::thread Big(BigClient, std::ref(ClientTallies[2]));
    std::thread A(SmallClient, std::ref(ClientTallies[0]));
    std::thread B(SmallClient, std::ref(ClientTallies[1]));
    A.join();
    B.join();
    T.WallS = msSince(T0) / 1e3;
    T.CpuMs = Daemon->cpuMs() - CpuStart;
    T.Replays = Replays;
    StopBig = true;
    Big.join();
    T.Rounds = NextSmall / Benches.size();

    for (const Tally &CT : ClientTallies) {
      T.LatencyMs.insert(T.LatencyMs.end(), CT.LatencyMs.begin(),
                         CT.LatencyMs.end());
      T.FirstCellMs.insert(T.FirstCellMs.end(), CT.FirstCellMs.begin(),
                           CT.FirstCellMs.end());
      T.Attempted += CT.Attempted;
      T.Failed += CT.Failed;
      T.Problems.insert(T.Problems.end(), CT.Problems.begin(),
                        CT.Problems.end());
    }

    ProcStats P = Daemon->shutdown();
    if (!P.ok())
      T.fail("daemon " + P.describe() + ": " + readFile("daemon.err"));
    T.PeakRssMb = P.MaxRssMb;
    fs::remove_all("serve-store");

    for (const auto &Entry : CheckCells) {
      const CellResultMsg &M = Entry.second;
      OracleCheck C;
      C.Bench = M.Key.Benchmark;
      C.Machine = M.Key.Machine;
      C.Kind = M.Key.Kind;
      C.S = M.Key.S;
      C.Seed = M.Key.SeedBase;
      C.Observed = countersOf(M.Runs.at(0));
      Checks.push_back(C);
    }
  }

  RunResult result(const std::string &Workload, Tally &T, size_t NumChecks) {
    RunResult R;
    R.Workload = Workload;
    R.Attempted = T.Attempted;
    R.Failed = T.Failed;
    R.Correct = T.Failed == 0 && T.Replays > 0;
    if (T.Replays == 0)
      T.Problems.push_back("no request completed");
    double Replays = static_cast<double>(std::max<uint64_t>(T.Replays, 1));
    size_t N = T.LatencyMs.size();
    R.Metrics = {
        {"latency_p50_ms", "ms", percentile(T.LatencyMs, 50), N},
        {"latency_p75_ms", "ms", percentile(T.LatencyMs, 75), N},
        {"throughput_replays_per_s", "1/s",
         static_cast<double>(T.Replays) / T.WallS, T.Replays},
        {"first_cell_p50_ms", "ms", percentile(T.FirstCellMs, 50),
         T.FirstCellMs.size()},
        {"cpu_ms_per_replay", "ms", T.CpuMs / Replays, T.Replays},
        {"peak_rss_mb", "MB", T.PeakRssMb, 0},
        {"setup_s", "s", median(T.SetupS), T.SetupS.size()},
    };
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "seed %llu, %zu round(s) in %.2f s timed, %zu request(s), "
                  "%zu above p75, %zu oracle check(s); host_cores %u, "
                  "build %s, rev %s",
                  (unsigned long long)Opts.Seed, T.Rounds, T.WallS, N,
                  samplesAbove(T.LatencyMs, percentile(T.LatencyMs, 75)),
                  NumChecks, std::thread::hardware_concurrency(),
                  HALO_BENCH_BUILD_TYPE, Opts.Rev.c_str());
    R.Notes.push_back(Buf);
    for (const std::string &P : T.Problems)
      R.Notes.push_back("FAILED: " + P);
    return R;
  }

  const Options &Opts;
  Spawner Proc;
  std::vector<std::string> Benchmarks;
  std::vector<std::string> Machines;
  std::string SeedBase;
  unsigned SetupRepeats;
  /// First output bytes per request label (the byte-equality reference).
  std::map<std::string, std::string> FirstOutput;
};

int selfTest() {
  int Failures = selfTestCommon();
  auto Expect = [&](bool Ok, const char *What) {
    if (!Ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", What);
      ++Failures;
    }
  };
  Json Doc = JsonParser("[{\"bench\": \"health\", \"cycles\": "
                        "18446744073709551615, \"seconds\": 0.5, "
                        "\"runs\": [], \"ok\": true}]")
                 .document();
  const Json &Cell = Doc.Items.at(0);
  Expect(Cell.stringAt("bench") == "health", "json strings");
  Expect(Cell.unsignedAt("cycles") == UINT64_MAX, "json counts are exact");
  Expect(Cell.at("seconds").Num == 0.5 && !Cell.at("seconds").IsUnsigned,
         "json reals are not counts");
  Expect(Cell.at("runs").Items.empty() && Cell.at("ok").B, "json literals");
  bool Threw = false;
  try {
    JsonParser("{\"a\": 1,}").document();
  } catch (const std::runtime_error &) {
    Threw = true;
  }
  Expect(Threw, "malformed json is rejected");
  std::printf("self-test: %s\n", Failures ? "FAILED" : "ok");
  return Failures ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts = parseOptions(Argc, Argv);
  if (Opts.SelfTest)
    return selfTest();
  if (Opts.Cli.empty())
    usageError(Argv[0], "--cli PATH (the halo_cli binary) is required");

  fs::path Start = fs::current_path();
  fs::path Work =
      fs::absolute(Opts.WorkDir) / ("run-" + std::to_string(getpid()));
  std::string Cli = fs::absolute(Opts.Cli).string();
  std::string OutPath =
      Opts.OutPath.empty() ? "" : fs::absolute(Opts.OutPath).string();
  int Exit = 0;
  std::vector<std::string> Records;
  try {
    fs::create_directories(Work);
    fs::current_path(Work);
    Harness H(Opts, Cli);
    for (const std::string &W : Opts.Workloads) {
      RunResult R = H.run(W);
      printResult(R);
      Records.push_back(recordJson(R, Opts.Seed, /*Trace=*/false, Opts.Rev));
      if (!R.Correct)
        Exit = 1;
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "halo_bench: error: %s\n", E.what());
    Exit = 1;
    Records.clear();
  }
  fs::current_path(Start);
  std::error_code Ignored;
  fs::remove_all(Work, Ignored);
  if (!OutPath.empty() && !Records.empty() && !writeRecords(OutPath, Records)) {
    std::fprintf(stderr, "halo_bench: cannot write %s\n", OutPath.c_str());
    Exit = 1;
  }
  return Exit;
}
