//===- serve/Server.h - The halo serve daemon -------------------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `halo_cli serve`: a daemon that keeps one Executor pool, one open
/// ArtifactStore, and every benchmark Evaluation it has ever measured warm
/// across requests, and serves ExperimentSpec-shaped plans to concurrent
/// clients over the serve/Protocol.h wire format on a Unix-domain socket.
///
/// A local `runPlan` pays the whole pipeline on every invocation:
/// materialise (or load) the HALO/HDS artifacts, then run every
/// measurement. The daemon materialises each benchmark's artifacts once
/// and then answers every later plan from its warm Evaluations, which
/// hold only those bundles -- the process-level analogue of what the
/// artifact store does on disk -- while the per-cell completion hook
/// (CellCompletionFn) streams results back the moment each cell's last
/// trial lands.
///
/// Scheduling: every pool worker runs its own claim loop, so a worker
/// that frees up claims the next task at once instead of waiting for its
/// neighbours. A claim visits sessions round-robin -- one task per session
/// per rotation, plans within a session in submission order -- so a
/// client submitting a 100-cell sweep cannot starve one running a single
/// cell. A worker with nothing to claim sleeps until a task retires or a
/// plan arrives. The worker that retires a plan's last task sends its
/// PlanDone; a Cancel takes effect at the next claim, and a plan
/// cancelled with nothing in flight is done at once. A warm plan -- every
/// artifact bundle already held by the daemon's Evaluations -- runs
/// measurements only: it schedules no load or materialise task and writes
/// nothing to the store (buildPlan, eval/Experiment.h). Plan admission is
/// bounded: past MaxQueuedPlans, submitting readers block (backpressure
/// on that client alone) until a plan retires.
///
/// Determinism ("served = local", README): a plan's results are a
/// function of its cell keys only -- every interleaving of PlanExecution
/// tasks yields bit-identical RunMetrics, and warm caches hold exactly
/// what a cold run would recompute -- so the cells streamed to a client
/// reassemble byte-identical to a local runPlan of the same spec,
/// regardless of what else the daemon is serving.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SERVE_SERVER_H
#define HALO_SERVE_SERVER_H

#include "eval/Experiment.h"
#include "serve/Protocol.h"
#include "serve/Session.h"
#include "store/ArtifactStore.h"
#include "support/Executor.h"
#include "support/Socket.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace halo {

/// Everything `halo_cli serve` configures.
struct DaemonConfig {
  std::string SocketPath;
  /// Pool size, as resolveJobs() interprets it (0 = HALO_JOBS / hardware).
  int Jobs = 0;
  /// Artifact store directory; empty = serve without a store.
  std::string StoreDir;
  /// Plans admitted before submitting readers block (backpressure).
  size_t MaxQueuedPlans = 4;
};

/// The daemon. Construct, then serve() until a client sends Shutdown (or
/// requestShutdown() is called from another thread); serve() returns 0
/// after draining in-flight plans, joining every thread, and unlinking
/// the socket path.
///
/// Lock order (strict, outermost first): daemon Mu -> PlanExecution's
/// internal mutex -> ServeSession::WriteMutex. EvalsMu is leaf-only and
/// never held together with Mu.
class HaloDaemon {
public:
  explicit HaloDaemon(DaemonConfig Config);
  ~HaloDaemon();

  HaloDaemon(const HaloDaemon &) = delete;
  HaloDaemon &operator=(const HaloDaemon &) = delete;

  /// Opens the store, binds the socket and serves until shutdown. Throws
  /// std::runtime_error if the store directory is unusable (before
  /// anything is bound) or the socket cannot be bound (e.g. the path
  /// already exists).
  int serve();

  /// Asks a running serve() to wind down (idempotent, callable from any
  /// thread): stop accepting, reject new plans, drain in-flight ones.
  void requestShutdown();

  /// A snapshot of the counters behind `halo_cli client stats`.
  DaemonStats currentStats() const;

private:
  /// One admitted plan. Held by unique_ptr so Plan never moves after Exec
  /// binds to it (PlanExecution keeps references into the plan).
  struct PlanState {
    uint64_t Id = 0;
    std::shared_ptr<ServeSession> Owner;
    ExperimentPlan Plan;
    std::unique_ptr<PlanExecution> Exec;
    /// Claimed tasks whose worker has not yet come back for Mu; the plan
    /// is erased only at zero, so no worker outlives its PlanState.
    size_t Running = 0;
  };

  void readerMain(std::shared_ptr<ServeSession> S);
  void handleSubmit(const std::shared_ptr<ServeSession> &S,
                    const PlanRequest &R);
  void handleCancel(const std::shared_ptr<ServeSession> &S, uint64_t PlanId);
  /// One pool worker's claim loop: claims and runs tasks until shutdown
  /// has drained every admitted plan.
  void workerLoop();
  /// Claims the next task by the round-robin rule, or returns null with
  /// nothing claimable. Caller holds Mu.
  PlanState *claimLocked(size_t &Task);
  /// Sends PlanDone for and erases plan \p PlanId if it is finished with
  /// nothing in flight. Caller holds Mu.
  void retireIfFinishedLocked(uint64_t PlanId);
  /// Cancels every plan owned by \p S (its peer is gone). Caller holds Mu.
  void cancelSessionPlansLocked(const ServeSession &S);

  DaemonConfig Config;
  std::unique_ptr<Executor> Pool;
  std::unique_ptr<ArtifactStore> Store;

  /// The warm benchmark cache: one Evaluation per benchmark name, created
  /// on first use, passed to every buildPlan as an external instance so
  /// its artifact bundles persist across plans and clients. Guarded
  /// by EvalsMu (creation only; the Evaluations themselves synchronise
  /// their caches internally).
  mutable std::mutex EvalsMu;
  std::map<std::string, std::unique_ptr<Evaluation>> Evals;

  mutable std::mutex Mu;
  /// Something may have become claimable (a plan arrived, a task
  /// retired), or shutdown began.
  std::condition_variable SchedulerCv;
  std::condition_variable QueueCv;     ///< A plan retired (backpressure).
  std::vector<std::shared_ptr<ServeSession>> Sessions;
  size_t RrCursor = 0; ///< Where the next claim's rotation starts.
  std::map<uint64_t, std::unique_ptr<PlanState>> Plans; ///< By plan id.
  uint64_t NextSessionId = 1;
  uint64_t NextPlanId = 1;
  bool ShuttingDown = false;

  Socket Listener;
  std::thread Scheduler;

  std::atomic<uint64_t> SessionsServed{0};
  std::atomic<uint64_t> PlansSubmitted{0};
  std::atomic<uint64_t> PlansCompleted{0};
  std::atomic<uint64_t> PlansCancelled{0};
  std::atomic<uint64_t> PlansFailed{0};
  std::atomic<uint64_t> CellsStreamed{0};
  std::atomic<uint64_t> TasksExecuted{0};
};

} // namespace halo

#endif // HALO_SERVE_SERVER_H
