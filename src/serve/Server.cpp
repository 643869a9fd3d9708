//===- serve/Server.cpp - The halo serve daemon -----------------------------===//

#include "serve/Server.h"

#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

using namespace halo;

HaloDaemon::HaloDaemon(DaemonConfig ConfigIn) : Config(std::move(ConfigIn)) {}

HaloDaemon::~HaloDaemon() {
  // serve() joins everything before returning; these guards only matter
  // if construction succeeded but serve() was never reached (or threw
  // before its own cleanup).
  requestShutdown();
  if (Scheduler.joinable())
    Scheduler.join();
  std::vector<std::shared_ptr<ServeSession>> Remaining;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Remaining.swap(Sessions);
  }
  for (const std::shared_ptr<ServeSession> &S : Remaining) {
    S->wakeReader();
    if (S->Reader.joinable())
      S->Reader.join();
  }
}

void HaloDaemon::requestShutdown() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ShuttingDown = true;
  }
  SchedulerCv.notify_all();
  QueueCv.notify_all();
}

DaemonStats HaloDaemon::currentStats() const {
  DaemonStats St;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const std::shared_ptr<ServeSession> &S : Sessions)
      if (S->alive())
        ++St.ActiveSessions;
  }
  {
    std::lock_guard<std::mutex> Lock(EvalsMu);
    St.WarmBenchmarks = Evals.size();
  }
  St.SessionsServed = SessionsServed.load(std::memory_order_relaxed);
  St.PlansSubmitted = PlansSubmitted.load(std::memory_order_relaxed);
  St.PlansCompleted = PlansCompleted.load(std::memory_order_relaxed);
  St.PlansCancelled = PlansCancelled.load(std::memory_order_relaxed);
  St.PlansFailed = PlansFailed.load(std::memory_order_relaxed);
  St.CellsStreamed = CellsStreamed.load(std::memory_order_relaxed);
  St.TasksExecuted = TasksExecuted.load(std::memory_order_relaxed);
  St.Workers = Pool ? Pool->workers() : 0;
  St.HasStore = Store != nullptr;
  return St;
}

int HaloDaemon::serve() {
  // Everything that can fail on configuration precedes the bind, so a
  // bad store directory leaves no socket file behind to block a retry.
  if (!Config.StoreDir.empty())
    Store = std::make_unique<ArtifactStore>(Config.StoreDir);
  Pool = std::make_unique<Executor>(Config.Jobs);
  Listener = Socket::listenUnix(Config.SocketPath);
  // One claim loop per pool worker, until shutdown has drained.
  Scheduler = std::thread([this] {
    Pool->parallelFor(Pool->workers(), [this](size_t) { workerLoop(); });
  });

  for (;;) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (ShuttingDown)
        break;
      // Reap sessions whose reader loop already returned, so a
      // long-lived daemon does not accumulate dead connections.
      for (size_t I = 0; I < Sessions.size();) {
        if (Sessions[I]->readerDone()) {
          if (Sessions[I]->Reader.joinable())
            Sessions[I]->Reader.join();
          Sessions.erase(Sessions.begin() + static_cast<ptrdiff_t>(I));
          if (RrCursor > I)
            --RrCursor;
        } else {
          ++I;
        }
      }
    }
    std::optional<Socket> Conn = Listener.accept(/*TimeoutMs=*/200);
    if (!Conn)
      continue;
    std::shared_ptr<ServeSession> S;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      S = std::make_shared<ServeSession>(NextSessionId++, std::move(*Conn));
      Sessions.push_back(S);
    }
    SessionsServed.fetch_add(1, std::memory_order_relaxed);
    S->Reader = std::thread([this, S] { readerMain(S); });
  }

  // Shutdown: the claim loops return once every admitted plan has
  // drained (submissions are rejected from the moment ShuttingDown was
  // set).
  SchedulerCv.notify_all();
  QueueCv.notify_all();
  Scheduler.join();

  std::vector<std::shared_ptr<ServeSession>> Remaining;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Remaining.swap(Sessions);
  }
  for (const std::shared_ptr<ServeSession> &S : Remaining)
    S->wakeReader();
  for (const std::shared_ptr<ServeSession> &S : Remaining)
    if (S->Reader.joinable())
      S->Reader.join();

  Listener.close();
  ::unlink(Config.SocketPath.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// Per-session reader
//===----------------------------------------------------------------------===//

void HaloDaemon::readerMain(std::shared_ptr<ServeSession> S) {
  try {
    // Handshake: the first frame must be a Hello with our version --
    // anything else (including a future protocol talking to an old
    // daemon) gets one explanatory Error frame and a close.
    std::optional<Frame> First = readFrame(S->socket());
    if (!First) {
      S->markDead();
      S->markReaderDone();
      return;
    }
    if (First->Type != MsgType::Hello) {
      S->sendError(0, "expected Hello");
      S->markDead();
      S->markReaderDone();
      return;
    }
    uint32_t Version = decodeHello(First->Payload);
    if (Version != ServeProtocolVersion) {
      S->sendError(0, "protocol version mismatch: client speaks v" +
                          std::to_string(Version) + ", daemon speaks v" +
                          std::to_string(ServeProtocolVersion));
      S->markDead();
      S->markReaderDone();
      return;
    }
    HelloAckMsg Ack;
    Ack.Version = ServeProtocolVersion;
    Ack.Workers = Pool->workers();
    Ack.HasStore = Store != nullptr;
    S->send(MsgType::HelloAck, encodeHelloAck(Ack));

    while (std::optional<Frame> F = readFrame(S->socket())) {
      switch (F->Type) {
      case MsgType::SubmitPlan:
        handleSubmit(S, decodePlanRequest(F->Payload));
        break;
      case MsgType::Cancel:
        handleCancel(S, decodeCancel(F->Payload));
        break;
      case MsgType::Stats:
        S->send(MsgType::StatsReply, encodeStatsReply(currentStats()));
        break;
      case MsgType::Shutdown:
        S->send(MsgType::ShutdownAck, {});
        requestShutdown();
        break;
      default:
        // Server-to-client types arriving here are a confused client,
        // not a daemon problem.
        S->sendError(0, "unexpected message type " +
                            std::to_string(static_cast<unsigned>(F->Type)));
        break;
      }
    }
  } catch (const ProtocolError &E) {
    // Malformed traffic poisons only this conversation.
    S->sendError(0, std::string("protocol error: ") + E.what());
  } catch (const std::runtime_error &) {
    // Socket-level failure: the peer is simply gone.
  }

  // Reader is done (clean EOF or error): suppress further sends, abandon
  // whatever this client still had queued, and let the accept loop reap.
  S->markDead();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    cancelSessionPlansLocked(*S);
  }
  S->markReaderDone();
}

void HaloDaemon::handleSubmit(const std::shared_ptr<ServeSession> &S,
                              const PlanRequest &R) {
  if (R.Benchmarks.empty()) {
    S->sendError(0, "submit: no benchmarks");
    return;
  }

  // The request converts exactly as a local run's does (specFor), so
  // served = local holds by construction. An unknown machine preset is
  // the client's error, reported before any work.
  //
  // Warm benchmark cache: reuse (or create) the daemon's Evaluation for
  // every requested benchmark and hand them to buildPlan as external
  // instances. This is the whole point of the daemon -- the second plan
  // naming a benchmark starts from its cached artifact bundles.
  ExperimentSpec Spec;
  std::vector<Evaluation *> External;
  try {
    Spec = specFor(R);
    std::lock_guard<std::mutex> Lock(EvalsMu);
    for (const std::string &Name : R.Benchmarks) {
      auto It = Evals.find(Name);
      // An unknown name throws std::invalid_argument from Evaluation.
      if (It == Evals.end())
        It = Evals.emplace(Name, std::make_unique<Evaluation>(paperSetup(Name)))
                 .first;
      External.push_back(It->second.get());
    }
  } catch (const std::exception &E) {
    S->sendError(0, std::string("submit: ") + E.what());
    return;
  }

  auto P = std::make_unique<PlanState>();
  P->Owner = S;
  try {
    P->Plan = buildPlan({Spec}, External, Store.get());
  } catch (const std::exception &E) {
    S->sendError(0, std::string("submit: ") + E.what());
    return;
  }

  // Admission control: this reader (and only this reader's client) blocks
  // until the daemon has room. Shutdown also wakes us, to reject.
  {
    std::unique_lock<std::mutex> Lock(Mu);
    QueueCv.wait(Lock, [&] {
      return ShuttingDown || Plans.size() < Config.MaxQueuedPlans;
    });
    if (ShuttingDown) {
      Lock.unlock();
      S->sendError(0, "daemon is shutting down");
      return;
    }
    P->Id = NextPlanId++;
  }

  // PlanQueued must precede the first CellResult, and constructing the
  // PlanExecution can stream immediately (degenerate zero-trial cells).
  PlanQueuedMsg Queued;
  Queued.PlanId = P->Id;
  Queued.NumCells = P->Plan.cells().size();
  Queued.NumMeasurements = P->Plan.numMeasurements();
  S->send(MsgType::PlanQueued, encodePlanQueued(Queued));
  PlansSubmitted.fetch_add(1, std::memory_order_relaxed);

  const uint64_t PlanId = P->Id;
  std::shared_ptr<ServeSession> Owner = S;
  P->Exec = std::make_unique<PlanExecution>(
      P->Plan,
      [this, Owner, PlanId](size_t CellIndex, const ResultSet::Cell &Cell) {
        CellResultMsg M;
        M.PlanId = PlanId;
        M.CellIndex = CellIndex;
        M.Key = Cell.Key;
        M.Runs = Cell.Runs;
        if (Owner->send(MsgType::CellResult, encodeCellResult(M)))
          CellsStreamed.fetch_add(1, std::memory_order_relaxed);
      });

  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (ShuttingDown) {
      // The workers may already be gone; nothing will run this plan.
      PlanDoneMsg Done;
      Done.PlanId = PlanId;
      Done.Status = PlanStatus::Cancelled;
      S->send(MsgType::PlanDone, encodePlanDone(Done));
      PlansCancelled.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Plans.emplace(PlanId, std::move(P));
    // A plan with no tasks at all is done on arrival.
    retireIfFinishedLocked(PlanId);
  }
  SchedulerCv.notify_all();
}

void HaloDaemon::handleCancel(const std::shared_ptr<ServeSession> &S,
                              uint64_t PlanId) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Plans.find(PlanId);
  // An id we no longer know lost the race against completion -- the
  // client's PlanDone is already in flight. Another session's plan is not
  // this client's to cancel.
  if (It == Plans.end() || It->second->Owner.get() != S.get())
    return;
  It->second->Exec->cancel();
  retireIfFinishedLocked(PlanId);
}

void HaloDaemon::cancelSessionPlansLocked(const ServeSession &S) {
  std::vector<uint64_t> Owned;
  for (auto &Entry : Plans)
    if (Entry.second->Owner.get() == &S) {
      Entry.second->Exec->cancel();
      Owned.push_back(Entry.first);
    }
  for (uint64_t PlanId : Owned)
    retireIfFinishedLocked(PlanId);
}

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

void HaloDaemon::retireIfFinishedLocked(uint64_t PlanId) {
  auto It = Plans.find(PlanId);
  if (It == Plans.end())
    return;
  PlanState &P = *It->second;
  if (P.Running > 0 || !P.Exec->finished())
    return;
  PlanDoneMsg Done;
  Done.PlanId = P.Id;
  if (P.Exec->failed()) {
    Done.Status = PlanStatus::Failed;
    Done.Message = P.Exec->failureMessage();
    PlansFailed.fetch_add(1, std::memory_order_relaxed);
  } else if (P.Exec->cancelled()) {
    Done.Status = PlanStatus::Cancelled;
    PlansCancelled.fetch_add(1, std::memory_order_relaxed);
  } else {
    Done.Status = PlanStatus::Ok;
    PlansCompleted.fetch_add(1, std::memory_order_relaxed);
  }
  P.Owner->send(MsgType::PlanDone, encodePlanDone(Done));
  Plans.erase(It);
  // A queue slot is free, and a shutdown may have just drained.
  QueueCv.notify_all();
  SchedulerCv.notify_all();
}

HaloDaemon::PlanState *HaloDaemon::claimLocked(size_t &Task) {
  // Fairness is per client, not per plan, so one client's queue depth
  // does not buy it pool share: the rotation starts one session past the
  // previous claim's, and within a session plans run in submission order
  // (the map iterates by ascending id).
  for (size_t K = 0; K < Sessions.size(); ++K) {
    size_t I = (RrCursor + K) % Sessions.size();
    for (auto &Entry : Plans) {
      PlanState &P = *Entry.second;
      if (P.Owner != Sessions[I])
        continue;
      if (std::optional<size_t> T = P.Exec->next()) {
        RrCursor = I + 1;
        ++P.Running;
        Task = *T;
        return &P;
      }
    }
  }
  return nullptr;
}

void HaloDaemon::workerLoop() {
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    PlanState *P = nullptr;
    size_t Task = 0;
    // Admitted plans drain before shutdown completes.
    SchedulerCv.wait(Lock, [&] {
      P = claimLocked(Task);
      return P || (ShuttingDown && Plans.empty());
    });
    if (!P)
      return;

    // Run off-lock. Tasks from different plans (and different stages of
    // different plans) interleave freely; determinism holds because every
    // task's output is a function of its key alone. A throwing task
    // already marked its plan failed inside run(); this worker just
    // carries on claiming.
    Lock.unlock();
    try {
      P->Exec->run(Task);
    } catch (...) {
    }
    TasksExecuted.fetch_add(1, std::memory_order_relaxed);
    Lock.lock();

    const uint64_t PlanId = P->Id;
    --P->Running;
    retireIfFinishedLocked(PlanId);
    // The retired task may have lifted its plan's stage barrier: idle
    // workers look again.
    SchedulerCv.notify_all();
  }
}
