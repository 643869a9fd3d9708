//===- tests/serve_test.cpp - The halo serve daemon --------------------------===//
//
// The serve contracts. Protocol layer: frames round-trip, and every
// malformed input -- bad magic, unknown type, oversized or truncated
// frames, out-of-domain payload fields -- is rejected as ProtocolError
// with no crash and no daemon exit. Daemon layer: "served = local"
// (README): the cells a client streams back from the daemon reassemble
// byte-identical (through writeExperimentsJson) to a local runPlan of the
// same spec -- across machines, all allocator kinds, concurrent clients,
// a warm artifact store, and a cancel on a neighbouring client. A warm
// served plan runs only its measurements and leaves the store untouched.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Session.h"
#include "eval/Experiment.h"
#include "support/Socket.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

using namespace halo;

namespace {

//===----------------------------------------------------------------------===//
// Protocol layer (no daemon): frames over a socketpair.
//===----------------------------------------------------------------------===//

/// A connected socket pair; Frames written to one end read off the other.
struct Pair {
  Socket A, B;
  Pair() {
    int Fds[2];
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
    A = Socket(Fds[0]);
    B = Socket(Fds[1]);
  }
};

TEST(ServeProtocol, FramesRoundTripAndEofIsClean) {
  Pair P;
  writeFrame(P.A, MsgType::Hello, encodeHello(ServeProtocolVersion));
  writeFrame(P.A, MsgType::Stats, {});
  std::optional<Frame> F = readFrame(P.B);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(MsgType::Hello, F->Type);
  EXPECT_EQ(ServeProtocolVersion, decodeHello(F->Payload));
  F = readFrame(P.B);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(MsgType::Stats, F->Type);
  EXPECT_TRUE(F->Payload.empty());
  // A close at a frame boundary is end-of-stream, not an error.
  P.A.close();
  EXPECT_FALSE(readFrame(P.B).has_value());
}

TEST(ServeProtocol, BadMagicRejected) {
  Pair P;
  const uint8_t Junk[9] = {'J', 'U', 'N', 'K', 1, 0, 0, 0, 0};
  P.A.sendAll(Junk, sizeof(Junk));
  EXPECT_THROW(readFrame(P.B), ProtocolError);
}

TEST(ServeProtocol, UnknownTypeRejected) {
  Pair P;
  // Valid magic 'HSRV', type 200, zero-length payload.
  const uint8_t Hdr[9] = {'H', 'S', 'R', 'V', 200, 0, 0, 0, 0};
  P.A.sendAll(Hdr, sizeof(Hdr));
  EXPECT_THROW(readFrame(P.B), ProtocolError);
}

TEST(ServeProtocol, OversizedFrameRejectedBeforePayload) {
  Pair P;
  // Length field 0xFFFFFFFF: rejected from the header alone -- no
  // attempt to allocate or read 4 GiB.
  const uint8_t Hdr[9] = {'H', 'S', 'R', 'V', 1, 0xFF, 0xFF, 0xFF, 0xFF};
  P.A.sendAll(Hdr, sizeof(Hdr));
  EXPECT_THROW(readFrame(P.B), ProtocolError);
}

TEST(ServeProtocol, TruncatedHeaderRejected) {
  Pair P;
  const uint8_t Partial[3] = {'H', 'S', 'R'};
  P.A.sendAll(Partial, sizeof(Partial));
  P.A.close();
  EXPECT_THROW(readFrame(P.B), ProtocolError);
}

TEST(ServeProtocol, TruncatedPayloadRejected) {
  Pair P;
  // Header promises 16 payload bytes; only 4 arrive before the close.
  const uint8_t Hdr[9] = {'H', 'S', 'R', 'V', 1, 16, 0, 0, 0};
  const uint8_t Some[4] = {1, 2, 3, 4};
  P.A.sendAll(Hdr, sizeof(Hdr));
  P.A.sendAll(Some, sizeof(Some));
  P.A.close();
  EXPECT_THROW(readFrame(P.B), ProtocolError);
}

TEST(ServeProtocol, PlanRequestRoundTrips) {
  PlanRequest R;
  R.Benchmarks = {"health", "ft"};
  R.Machines = {"mobile", "xeon-w2195"};
  R.Kinds = allAllocatorKinds();
  R.S = Scale::Test;
  R.Trials = 5;
  R.SeedBase = 424242;
  PlanRequest D = decodePlanRequest(encodePlanRequest(R));
  EXPECT_EQ(R.Benchmarks, D.Benchmarks);
  EXPECT_EQ(R.Machines, D.Machines);
  EXPECT_EQ(R.Kinds, D.Kinds);
  EXPECT_EQ(R.S, D.S);
  EXPECT_EQ(R.Trials, D.Trials);
  EXPECT_EQ(R.SeedBase, D.SeedBase);
}

TEST(ServeProtocol, MalformedPayloadsRejected) {
  // Truncated mid-structure.
  std::vector<uint8_t> Enc = encodePlanRequest(PlanRequest{});
  Enc.resize(Enc.size() / 2);
  EXPECT_THROW(decodePlanRequest(Enc), ProtocolError);
  // Trailing garbage.
  Enc = encodePlanRequest(PlanRequest{});
  Enc.push_back(0);
  EXPECT_THROW(decodePlanRequest(Enc), ProtocolError);
  // Zero trials is out of domain.
  PlanRequest Bad;
  Bad.Benchmarks = {"health"};
  Bad.Trials = 0;
  EXPECT_THROW(decodePlanRequest(encodePlanRequest(Bad)), ProtocolError);
  // Wrong payload for the type.
  EXPECT_THROW(decodeHello(encodePlanRequest(PlanRequest{})), ProtocolError);
}

TEST(ServeProtocol, CellResultPreservesMetricBitPatterns) {
  CellResultMsg M;
  M.PlanId = 7;
  M.CellIndex = 3;
  M.Key.Benchmark = "health";
  M.Key.Machine = "mobile";
  M.Key.Kind = AllocatorKind::Halo;
  M.Key.S = Scale::Test;
  M.Key.SeedBase = 100;
  M.Key.Trials = 2;
  RunMetrics R;
  R.Seconds = 0.1234567890123456789; // Exercises the full f64 pattern.
  R.Cycles = 987654321;
  R.Mem.L1Misses = 11;
  R.Mem.TlbMisses = 22;
  R.Frag.PeakResident = 1 << 20;
  R.GroupedAllocs = 33;
  M.Runs = {R, RunMetrics{}};
  CellResultMsg D = decodeCellResult(encodeCellResult(M));
  EXPECT_EQ(M.PlanId, D.PlanId);
  EXPECT_EQ(M.CellIndex, D.CellIndex);
  EXPECT_EQ(M.Key.Benchmark, D.Key.Benchmark);
  EXPECT_EQ(M.Key.Kind, D.Key.Kind);
  ASSERT_EQ(2u, D.Runs.size());
  // Bit-for-bit, not approximately: "served = local" is a byte contract.
  double Expected = R.Seconds, Got = D.Runs[0].Seconds;
  EXPECT_EQ(0, std::memcmp(&Expected, &Got, sizeof(double)));
  EXPECT_EQ(R.Cycles, D.Runs[0].Cycles);
  EXPECT_EQ(R.Mem.L1Misses, D.Runs[0].Mem.L1Misses);
  EXPECT_EQ(R.Frag.PeakResident, D.Runs[0].Frag.PeakResident);
}

//===----------------------------------------------------------------------===//
// Daemon layer: an in-process daemon on a temp socket.
//===----------------------------------------------------------------------===//

/// The experiments JSON document for \p Results, as a string -- the byte
/// surface the served-vs-local comparisons equate.
std::string experimentsJson(const ResultSet &Results) {
  char *Buf = nullptr;
  size_t Len = 0;
  FILE *Out = open_memstream(&Buf, &Len);
  EXPECT_NE(nullptr, Out);
  writeExperimentsJson(Out, Results);
  std::fclose(Out);
  std::string Text(Buf, Len);
  std::free(Buf);
  return Text;
}

/// Runs \p R locally, serially, through the same buildPlan/runPlan path
/// the daemon uses -- the oracle for every served comparison.
std::string localOracle(const PlanRequest &R) {
  ExperimentPlan Plan = buildPlan({specFor(R)});
  ResultSet Results = runPlan(Plan, /*Jobs=*/1);
  return experimentsJson(Results);
}

/// (inode, size, mtime s, mtime ns) of every file in \p Dir, by name. A
/// store entry republished with the same bytes still moves to a new
/// inode with a new mtime.
using FileStamps =
    std::map<std::string, std::tuple<uint64_t, int64_t, int64_t, int64_t>>;
FileStamps stampFiles(const std::string &Dir) {
  FileStamps Stamps;
  DIR *D = ::opendir(Dir.c_str());
  EXPECT_NE(nullptr, D) << Dir;
  if (!D)
    return Stamps;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    struct stat St;
    if (Name == "." || Name == ".." ||
        ::stat((Dir + "/" + Name).c_str(), &St) != 0)
      continue;
    Stamps[Name] = {St.st_ino, St.st_size, St.st_mtim.tv_sec,
                    St.st_mtim.tv_nsec};
  }
  ::closedir(D);
  return Stamps;
}

class ServeDaemonTest : public ::testing::Test {
protected:
  void start(DaemonConfig Config = {}) {
    char Template[] = "/tmp/halo_serve_test_XXXXXX";
    ASSERT_NE(nullptr, ::mkdtemp(Template));
    Dir = Template;
    SocketPath = Dir + "/halo.sock";
    Config.SocketPath = SocketPath;
    if (Config.Jobs == 0)
      Config.Jobs = 2;
    Daemon = std::make_unique<HaloDaemon>(Config);
    Server = std::thread([this] { ExitCode = Daemon->serve(); });
    // Wait for the daemon to bind (listenUnix creates the file).
    for (int I = 0; I < 500 && ::access(SocketPath.c_str(), F_OK) != 0; ++I)
      ::usleep(10000);
  }

  void TearDown() override {
    if (Daemon) {
      Daemon->requestShutdown();
      if (Server.joinable())
        Server.join();
      EXPECT_EQ(0, ExitCode);
      // Clean shutdown removes the socket file.
      EXPECT_NE(0, ::access(SocketPath.c_str(), F_OK));
      Daemon.reset();
    }
    if (!Dir.empty()) {
      std::string Cmd = "rm -rf '" + Dir + "'";
      (void)std::system(Cmd.c_str());
    }
  }

  /// Connects, retrying across the bind/listen race.
  HaloClient connect() {
    for (int I = 0;; ++I) {
      try {
        return HaloClient(SocketPath);
      } catch (const std::runtime_error &) {
        if (I >= 200)
          throw;
        ::usleep(10000);
      }
    }
  }

  std::string Dir, SocketPath;
  std::unique_ptr<HaloDaemon> Daemon;
  std::thread Server;
  int ExitCode = -1;
};

/// The headline matrix: 2 benchmarks x 2 machines x every allocator kind.
PlanRequest headlineRequest() {
  PlanRequest R;
  R.Benchmarks = {"health", "ft"};
  R.Machines = {"xeon-w2195", "mobile"};
  R.Kinds = allAllocatorKinds();
  R.S = Scale::Test;
  R.Trials = 2;
  return R;
}

TEST_F(ServeDaemonTest, ServedMatchesLocal) {
  start();
  PlanRequest R = headlineRequest();
  std::string Local = localOracle(R);

  HaloClient Client = connect();
  EXPECT_EQ(2u, Client.serverWorkers());
  uint64_t PlanId = Client.submit(R);
  size_t Streamed = 0;
  PlanOutcome Outcome =
      Client.wait(PlanId, [&](const CellResultMsg &) { ++Streamed; });
  EXPECT_EQ(PlanStatus::Ok, Outcome.Status);
  EXPECT_EQ(Outcome.NumCells, Outcome.CellsReceived);
  EXPECT_EQ(Outcome.CellsReceived, Streamed);
  EXPECT_EQ(Local, experimentsJson(Outcome.Results));
}

TEST_F(ServeDaemonTest, SecondPlanServedWarmIsIdentical) {
  DaemonConfig Config;
  char Template[] = "/tmp/halo_serve_store_XXXXXX";
  ASSERT_NE(nullptr, ::mkdtemp(Template));
  std::string StoreDir = Template;
  Config.StoreDir = StoreDir;
  start(Config);

  PlanRequest R = headlineRequest();
  std::string Local = localOracle(R);

  // Cold: first client pays the pipeline and populates caches + store.
  {
    HaloClient Client = connect();
    EXPECT_TRUE(Client.serverHasStore());
    PlanOutcome Outcome = Client.wait(Client.submit(R));
    EXPECT_EQ(PlanStatus::Ok, Outcome.Status);
    EXPECT_EQ(Local, experimentsJson(Outcome.Results));
  }
  FileStamps ColdStore = stampFiles(StoreDir);
  EXPECT_FALSE(ColdStore.empty());
  // Warm: a new connection, served from the daemon's warm Evaluations.
  {
    HaloClient Client = connect();
    uint64_t TasksBefore = Client.stats().TasksExecuted;
    PlanOutcome Outcome = Client.wait(Client.submit(R));
    EXPECT_EQ(PlanStatus::Ok, Outcome.Status);
    EXPECT_EQ(Local, experimentsJson(Outcome.Results));
    DaemonStats St = Client.stats();
    EXPECT_EQ(2u, St.WarmBenchmarks);
    EXPECT_TRUE(St.HasStore);
    EXPECT_EQ(2u, St.PlansCompleted);
    // Measurements only: one task per (cell, trial), no bundle loads or
    // materialisations...
    uint64_t Measurements = 0;
    for (const ResultSet::Cell &C : Outcome.Results.cells())
      Measurements += static_cast<uint64_t>(C.Key.Trials);
    EXPECT_EQ(TasksBefore + Measurements, St.TasksExecuted);
  }
  // ...and no entry rewritten or added.
  EXPECT_EQ(ColdStore, stampFiles(StoreDir));
  std::string Cmd = "rm -rf '" + StoreDir + "'";
  (void)std::system(Cmd.c_str());
}

TEST_F(ServeDaemonTest, ConcurrentClientsEachMatchLocal) {
  start();
  // Distinct specs so the scheduler genuinely interleaves two different
  // plans' stages on the one pool.
  PlanRequest RA;
  RA.Benchmarks = {"health"};
  RA.Machines = {"xeon-w2195", "mobile"};
  RA.Kinds = allAllocatorKinds();
  RA.S = Scale::Test;
  RA.Trials = 2;
  PlanRequest RB;
  RB.Benchmarks = {"ft"};
  RB.Machines = {"mobile"};
  RB.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Hds,
              AllocatorKind::Halo};
  RB.S = Scale::Test;
  RB.Trials = 3;
  std::string LocalA = localOracle(RA);
  std::string LocalB = localOracle(RB);

  std::string ServedA, ServedB;
  std::thread TA([&] {
    HaloClient Client = connect();
    PlanOutcome Outcome = Client.wait(Client.submit(RA));
    EXPECT_EQ(PlanStatus::Ok, Outcome.Status);
    ServedA = experimentsJson(Outcome.Results);
  });
  std::thread TB([&] {
    HaloClient Client = connect();
    PlanOutcome Outcome = Client.wait(Client.submit(RB));
    EXPECT_EQ(PlanStatus::Ok, Outcome.Status);
    ServedB = experimentsJson(Outcome.Results);
  });
  TA.join();
  TB.join();
  EXPECT_EQ(LocalA, ServedA);
  EXPECT_EQ(LocalB, ServedB);
}

TEST_F(ServeDaemonTest, CancelLeavesTheOtherClientUnharmed) {
  start();
  // A submits the bigger plan and cancels it the moment its first cell
  // streams; B's smaller plan must still complete bit-exact.
  PlanRequest RA = headlineRequest();
  RA.Trials = 3;
  PlanRequest RB;
  RB.Benchmarks = {"health"};
  RB.Machines = {"mobile"};
  RB.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Halo};
  RB.S = Scale::Test;
  RB.Trials = 2;
  std::string LocalB = localOracle(RB);

  PlanStatus StatusA = PlanStatus::Failed;
  std::thread TA([&] {
    HaloClient Client = connect();
    uint64_t PlanId = Client.submit(RA);
    PlanOutcome Outcome = Client.wait(PlanId, [&](const CellResultMsg &) {
      // Full duplex: a Cancel issued mid-stream, from the wait loop.
      Client.cancel(PlanId);
    });
    StatusA = Outcome.Status;
  });
  std::thread TB([&] {
    HaloClient Client = connect();
    PlanOutcome Outcome = Client.wait(Client.submit(RB));
    EXPECT_EQ(PlanStatus::Ok, Outcome.Status);
    EXPECT_EQ(LocalB, experimentsJson(Outcome.Results));
  });
  TA.join();
  TB.join();
  // A raced its cancel against its own completion; either way it must
  // not have failed -- and the daemon is still serving.
  EXPECT_TRUE(StatusA == PlanStatus::Cancelled || StatusA == PlanStatus::Ok);
  HaloClient Client = connect();
  DaemonStats St = Client.stats();
  EXPECT_EQ(2u, St.PlansSubmitted);
  EXPECT_GE(St.CellsStreamed, 1u);
}

TEST_F(ServeDaemonTest, BadRequestsGetErrorsNotACrash) {
  start();
  // Unknown benchmark: a well-formed frame the daemon must refuse.
  {
    HaloClient Client = connect();
    PlanRequest R;
    R.Benchmarks = {"no-such-benchmark"};
    R.S = Scale::Test;
    EXPECT_THROW(Client.submit(R), std::runtime_error);
    // The refusal poisons nothing: the same connection still serves.
    DaemonStats St = Client.stats();
    EXPECT_EQ(0u, St.PlansSubmitted);
  }
  // Unknown machine preset.
  {
    HaloClient Client = connect();
    PlanRequest R;
    R.Benchmarks = {"health"};
    R.Machines = {"cray-1"};
    R.S = Scale::Test;
    EXPECT_THROW(Client.submit(R), std::runtime_error);
  }
  // A malformed SubmitPlan payload: protocol error back, session closed,
  // daemon alive.
  {
    Socket Raw = Socket::connectUnix(SocketPath);
    writeFrame(Raw, MsgType::Hello, encodeHello(ServeProtocolVersion));
    std::optional<Frame> Ack = readFrame(Raw);
    ASSERT_TRUE(Ack.has_value());
    ASSERT_EQ(MsgType::HelloAck, Ack->Type);
    writeFrame(Raw, MsgType::SubmitPlan, {0xDE, 0xAD, 0xBE, 0xEF});
    std::optional<Frame> Err = readFrame(Raw);
    ASSERT_TRUE(Err.has_value());
    EXPECT_EQ(MsgType::Error, Err->Type);
    EXPECT_FALSE(readFrame(Raw).has_value()); // Daemon closed the session.
  }
  // Version mismatch at handshake.
  {
    Socket Raw = Socket::connectUnix(SocketPath);
    writeFrame(Raw, MsgType::Hello, encodeHello(999));
    std::optional<Frame> Err = readFrame(Raw);
    ASSERT_TRUE(Err.has_value());
    EXPECT_EQ(MsgType::Error, Err->Type);
    EXPECT_NE(std::string::npos,
              decodeError(Err->Payload).Message.find("version"));
  }
  // After all of that, a well-formed plan still runs to completion.
  HaloClient Client = connect();
  PlanRequest R;
  R.Benchmarks = {"health"};
  R.Kinds = {AllocatorKind::Jemalloc};
  R.S = Scale::Test;
  R.Trials = 1;
  PlanOutcome Outcome = Client.wait(Client.submit(R));
  EXPECT_EQ(PlanStatus::Ok, Outcome.Status);
}

TEST_F(ServeDaemonTest, ClientShutdownStopsTheDaemon) {
  start();
  {
    HaloClient Client = connect();
    Client.shutdownServer();
  }
  Server.join();
  EXPECT_EQ(0, ExitCode);
  EXPECT_NE(0, ::access(SocketPath.c_str(), F_OK));
  Daemon.reset();
  std::string Cmd = "rm -rf '" + Dir + "'";
  (void)std::system(Cmd.c_str());
  Dir.clear();
}

} // namespace
