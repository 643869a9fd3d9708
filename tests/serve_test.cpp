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
// A client that stops reading, or vanishes mid-stream, holds no other
// client back: a frame to it gives up at the session's send deadline and
// its plans end cancelled. Nor does one that stops mid-frame: its reader
// waits alone, a close ends its session, and shutdown does not wait for
// it.
// Client layer, against a scripted daemon: whatever reply the client is
// reading for, an in-flight plan's frames are kept for its wait(), and
// wait() rejects cells the plan never promised and an Ok plan that comes
// back short.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Session.h"
#include "eval/Experiment.h"
#include "sim/Machine.h"
#include "support/Socket.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
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

/// Ends the test binary with a failure if the enclosing scope is still
/// running after \p Seconds: a hang in the code under test becomes a
/// failed test instead of a stuck suite.
class Watchdog {
public:
  Watchdog(int Seconds, std::string What)
      : Thread([this, Seconds, What] {
          std::unique_lock<std::mutex> Lock(Mu);
          if (!Cv.wait_for(Lock, std::chrono::seconds(Seconds),
                           [this] { return Done; })) {
            std::fprintf(stderr, "watchdog: %s still running after %d s\n",
                         What.c_str(), Seconds);
            std::_Exit(1);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Done = true;
    }
    Cv.notify_all();
    Thread.join();
  }

private:
  std::mutex Mu;
  std::condition_variable Cv;
  bool Done = false;
  std::thread Thread;
};

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

TEST(ServeSession, SendToAPeerThatStopsReadingTimesOut) {
  // A frame larger than the socket buffer, to a peer that never reads:
  // send() must give up once the session's send timeout (SendTimeoutMs,
  // 2 s, in serve/Session.cpp) has passed for the frame as a whole --
  // not once per send call the frame takes -- instead of blocking its
  // caller, a daemon worker holding the session's write lock, for as long
  // as the peer waits, and must leave the session dead with its socket
  // shut down.
  Watchdog Guard(60, "ServeSession::send to a stalled peer");
  Pair P;
  ServeSession S(1, std::move(P.A));
  std::vector<uint8_t> Payload(4u << 20, 0x5A);
  auto Start = std::chrono::steady_clock::now();
  EXPECT_FALSE(S.send(MsgType::CellResult, Payload));
  EXPECT_LT(secondsSince(Start), 2.0 + 1.0);
  EXPECT_FALSE(S.alive());
  EXPECT_FALSE(S.send(MsgType::PlanDone, {}));
  // The peer reads what arrived, then end-of-stream: the frame is cut.
  std::vector<uint8_t> Buf(1u << 16);
  size_t Received = 0;
  while (size_t N = P.B.recvSome(Buf.data(), Buf.size()))
    Received += N;
  EXPECT_GT(Received, 0u);
  EXPECT_LT(Received, Payload.size());
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

/// Connects a raw session and completes the handshake.
Socket rawSession(const std::string &SocketPath) {
  Socket S = Socket::connectUnix(SocketPath);
  writeFrame(S, MsgType::Hello, encodeHello(ServeProtocolVersion));
  std::optional<Frame> Ack = readFrame(S);
  EXPECT_TRUE(Ack && Ack->Type == MsgType::HelloAck);
  return S;
}

/// Bytes that reached \p S and have not been read.
int unreadBytes(const Socket &S) {
  int N = 0;
  EXPECT_EQ(0, ::ioctl(S.fd(), FIONREAD, &N));
  return N;
}

/// A plan whose result stream overflows a socket buffer: 12 cells of 200
/// cheap runs each (about 28 KiB a frame, 340 KiB in all, past Linux's
/// default 208 KiB) and no pipeline to wait for.
PlanRequest floodRequest() {
  PlanRequest R;
  R.Benchmarks = {"health"};
  for (const MachineConfig &M : machinePresets())
    R.Machines.push_back(M.Name);
  R.Kinds = {AllocatorKind::Jemalloc, AllocatorKind::Ptmalloc,
             AllocatorKind::RandomPools};
  R.S = Scale::Test;
  R.Trials = 200;
  return R;
}

TEST_F(ServeDaemonTest, StalledAndVanishedClientsDoNotHoldOthersBack) {
  Watchdog Guard(120, "a client behind a stalled one");
  start();
  // A submits and never reads again. Once its socket buffer is full the
  // unread bytes stop growing: every send to A blocks from then on. Cells
  // must have streamed first: on a slow build the unread count holds
  // still at the PlanQueued frame alone for seconds before the first
  // cell arrives.
  Socket Stalled = rawSession(SocketPath);
  writeFrame(Stalled, MsgType::SubmitPlan, encodePlanRequest(floodRequest()));
  int Unread = -1;
  for (int Steady = 0; Steady < 15 || Unread <= 1024;) {
    ::usleep(200000);
    int Now = unreadBytes(Stalled);
    Steady = Now == Unread ? Steady + 1 : 0;
    Unread = Now;
  }

  // C disconnects mid-stream, right after its first cell.
  {
    Socket Vanished = rawSession(SocketPath);
    writeFrame(Vanished, MsgType::SubmitPlan,
               encodePlanRequest(floodRequest()));
    std::optional<Frame> Queued = readFrame(Vanished);
    ASSERT_TRUE(Queued && Queued->Type == MsgType::PlanQueued);
    std::optional<Frame> Cell = readFrame(Vanished);
    ASSERT_TRUE(Cell && Cell->Type == MsgType::CellResult);
  }

  // B is served promptly, behind neither.
  HaloClient Client = connect();
  PlanRequest RB;
  RB.Benchmarks = {"health"};
  RB.Kinds = {AllocatorKind::Jemalloc};
  RB.S = Scale::Test;
  RB.Trials = 1;
  auto Start = std::chrono::steady_clock::now();
  PlanOutcome Outcome = Client.wait(Client.submit(RB));
  EXPECT_LT(secondsSince(Start), 15.0);
  EXPECT_EQ(PlanStatus::Ok, Outcome.Status);
  EXPECT_EQ(1u, Outcome.CellsReceived);

  // Both abandoned plans end cancelled once their in-flight tasks return.
  DaemonStats St = Client.stats();
  while (St.PlansCancelled < 2 && secondsSince(Start) < 60) {
    ::usleep(50000);
    St = Client.stats();
  }
  EXPECT_EQ(3u, St.PlansSubmitted);
  EXPECT_EQ(2u, St.PlansCancelled);
  EXPECT_EQ(1u, St.PlansCompleted);
  EXPECT_EQ(0u, St.PlansFailed);
}

TEST_F(ServeDaemonTest, HalfWrittenFramesHoldNoOneBack) {
  Watchdog Guard(120, "a daemon behind half-written frames");
  start();
  // Two clients each send a SubmitPlan header and half of its payload,
  // then wait: their readers block mid-frame.
  PlanRequest R;
  R.Benchmarks = {"health"};
  R.Kinds = {AllocatorKind::Jemalloc};
  R.S = Scale::Test;
  R.Trials = 1;
  std::vector<uint8_t> Payload = encodePlanRequest(R);
  BinaryWriter Half;
  Half.u32(ServeFrameMagic);
  Half.u8(static_cast<uint8_t>(MsgType::SubmitPlan));
  Half.u32(static_cast<uint32_t>(Payload.size()));
  Half.bytes(Payload.data(), Payload.size() / 2);
  Socket Closing = rawSession(SocketPath);
  Socket Stuck = rawSession(SocketPath);
  Closing.sendAll(Half.buffer().data(), Half.size());
  Stuck.sendAll(Half.buffer().data(), Half.size());

  // Another client's plan completes while both wait.
  HaloClient Client = connect();
  PlanOutcome Outcome = Client.wait(Client.submit(R));
  EXPECT_EQ(PlanStatus::Ok, Outcome.Status);
  EXPECT_EQ(3u, Client.stats().ActiveSessions);

  // One closes mid-frame: its session ends, and the daemon keeps serving.
  Closing.close();
  auto Start = std::chrono::steady_clock::now();
  while (Client.stats().ActiveSessions != 2 && secondsSince(Start) < 30)
    ::usleep(20000);
  EXPECT_EQ(2u, Client.stats().ActiveSessions);
  Outcome = Client.wait(Client.submit(R));
  EXPECT_EQ(PlanStatus::Ok, Outcome.Status);
  EXPECT_EQ(0u, Client.stats().PlansFailed);

  // The other never finishes its frame, and shutdown does not wait for it.
  Start = std::chrono::steady_clock::now();
  Daemon->requestShutdown();
  Server.join();
  EXPECT_LT(secondsSince(Start), 10.0);
  EXPECT_EQ(0, ExitCode);
}

//===----------------------------------------------------------------------===//
// Client layer against a scripted daemon: exact frame sequences a real
// daemon produces only by timing luck (or never), to pin the client's
// reply loop and wait()'s checks.
//===----------------------------------------------------------------------===//

/// A one-connection stand-in for the daemon: listens on a temp socket,
/// answers the handshake, then runs \p Script over the connection on its
/// own thread. A client that hangs up early just ends the script.
class ScriptedDaemon {
public:
  explicit ScriptedDaemon(std::function<void(Socket &)> Script) {
    char Template[] = "/tmp/halo_scripted_XXXXXX";
    EXPECT_NE(nullptr, ::mkdtemp(Template));
    Dir = Template;
    SocketPath = Dir + "/halo.sock";
    Listener = Socket::listenUnix(SocketPath);
    Thread = std::thread([this, Script = std::move(Script)] {
      try {
        std::optional<Socket> Conn = Listener.accept(10000);
        if (!Conn || !nextFrameIs(*Conn, MsgType::Hello))
          return;
        writeFrame(*Conn, MsgType::HelloAck, encodeHelloAck(HelloAckMsg()));
        Script(*Conn);
      } catch (const std::exception &) {
      }
    });
  }

  ~ScriptedDaemon() {
    Thread.join();
    Listener.close();
    ::unlink(SocketPath.c_str());
    ::rmdir(Dir.c_str());
  }

  /// True when the next frame from the client has type \p Type.
  static bool nextFrameIs(Socket &Conn, MsgType Type) {
    std::optional<Frame> F = readFrame(Conn);
    return F && F->Type == Type;
  }

  std::string SocketPath;

private:
  std::string Dir;
  Socket Listener;
  std::thread Thread;
};

PlanRequest scriptedRequest() {
  PlanRequest R;
  R.Benchmarks = {"health"};
  R.S = Scale::Test;
  R.Trials = 1;
  return R;
}

void sendCell(Socket &Conn, uint64_t PlanId, uint64_t CellIndex) {
  CellResultMsg M;
  M.PlanId = PlanId;
  M.CellIndex = CellIndex;
  M.Key = {"health", "xeon-w2195", AllocatorKind::Jemalloc, Scale::Test, 100,
           1};
  M.Runs.resize(1);
  writeFrame(Conn, MsgType::CellResult, encodeCellResult(M));
}

void sendQueued(Socket &Conn, uint64_t PlanId, uint64_t NumCells) {
  writeFrame(Conn, MsgType::PlanQueued,
             encodePlanQueued(PlanQueuedMsg{PlanId, NumCells, NumCells}));
}

void sendDone(Socket &Conn, uint64_t PlanId, PlanStatus Status) {
  writeFrame(Conn, MsgType::PlanDone,
             encodePlanDone(PlanDoneMsg{PlanId, Status, ""}));
}

TEST(ServeClient, ShutdownKeepsAnInFlightPlansFrames) {
  // The daemon answers Shutdown with the tail of a running plan before
  // its ShutdownAck; that plan's wait() must still collect all of it.
  ScriptedDaemon Daemon([](Socket &Conn) {
    if (!ScriptedDaemon::nextFrameIs(Conn, MsgType::SubmitPlan))
      return;
    sendQueued(Conn, 7, 1);
    if (!ScriptedDaemon::nextFrameIs(Conn, MsgType::Shutdown))
      return;
    sendCell(Conn, 7, 0);
    sendDone(Conn, 7, PlanStatus::Ok);
    writeFrame(Conn, MsgType::ShutdownAck, {});
  });
  HaloClient Client(Daemon.SocketPath);
  uint64_t PlanId = Client.submit(scriptedRequest());
  Client.shutdownServer();
  uint64_t Streamed = 0;
  PlanOutcome Outcome =
      Client.wait(PlanId, [&](const CellResultMsg &) { ++Streamed; });
  EXPECT_EQ(PlanStatus::Ok, Outcome.Status);
  EXPECT_EQ(1u, Outcome.CellsReceived);
  EXPECT_EQ(1u, Streamed);
  EXPECT_EQ(1u, Outcome.Results.size());
  // A plan's outcome is collected once.
  EXPECT_THROW(Client.wait(PlanId), std::invalid_argument);
}

TEST(ServeClient, WaitRejectsAnOkPlanMissingCells) {
  // PlanQueued promised two cells, one streamed, then an Ok PlanDone: a
  // one-cell document written as complete would be a silently wrong
  // result.
  ScriptedDaemon Daemon([](Socket &Conn) {
    if (!ScriptedDaemon::nextFrameIs(Conn, MsgType::SubmitPlan))
      return;
    sendQueued(Conn, 7, 2);
    sendCell(Conn, 7, 0);
    sendDone(Conn, 7, PlanStatus::Ok);
  });
  HaloClient Client(Daemon.SocketPath);
  uint64_t PlanId = Client.submit(scriptedRequest());
  EXPECT_THROW(Client.wait(PlanId), ProtocolError);
}

TEST(ServeClient, WaitRejectsOutOfRangeAndRepeatedCells) {
  // Whatever the plan's status, every cell must be one PlanQueued promised,
  // and each may arrive once.
  for (PlanStatus Status : {PlanStatus::Ok, PlanStatus::Cancelled}) {
    ScriptedDaemon OutOfRange([&](Socket &Conn) {
      if (!ScriptedDaemon::nextFrameIs(Conn, MsgType::SubmitPlan))
        return;
      sendQueued(Conn, 7, 2);
      sendCell(Conn, 7, 2);
      sendDone(Conn, 7, Status);
    });
    HaloClient Client(OutOfRange.SocketPath);
    uint64_t PlanId = Client.submit(scriptedRequest());
    EXPECT_THROW(Client.wait(PlanId), ProtocolError);
  }
  for (PlanStatus Status : {PlanStatus::Ok, PlanStatus::Cancelled}) {
    ScriptedDaemon Repeated([&](Socket &Conn) {
      if (!ScriptedDaemon::nextFrameIs(Conn, MsgType::SubmitPlan))
        return;
      sendQueued(Conn, 7, 2);
      sendCell(Conn, 7, 0);
      sendCell(Conn, 7, 0);
      sendDone(Conn, 7, Status);
    });
    HaloClient Client(Repeated.SocketPath);
    uint64_t PlanId = Client.submit(scriptedRequest());
    EXPECT_THROW(Client.wait(PlanId), ProtocolError);
  }
}

TEST(ServeClient, CancelledAndFailedPlansKeepTheirPartialCells) {
  for (PlanStatus Status : {PlanStatus::Cancelled, PlanStatus::Failed}) {
    ScriptedDaemon Daemon([&](Socket &Conn) {
      if (!ScriptedDaemon::nextFrameIs(Conn, MsgType::SubmitPlan))
        return;
      sendQueued(Conn, 7, 2);
      sendCell(Conn, 7, 1);
      sendDone(Conn, 7, Status);
    });
    HaloClient Client(Daemon.SocketPath);
    PlanOutcome Outcome = Client.wait(Client.submit(scriptedRequest()));
    EXPECT_EQ(Status, Outcome.Status);
    EXPECT_EQ(1u, Outcome.CellsReceived);
    EXPECT_EQ(2u, Outcome.NumCells);
    EXPECT_EQ(1u, Outcome.Results.size());
  }
}

} // namespace
