//===- serve/Client.h - Client side of halo serve ---------------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synchronous client behind `halo_cli client ...`: connect and
/// handshake in the constructor, submit() a PlanRequest, then wait() for
/// its cells to stream in (invoking a callback per cell, for progressive
/// output) until the daemon's PlanDone. cancel() may be issued any time
/// -- including from inside the wait() callback, the socket is full
/// duplex -- and turns the eventual PlanDone into Cancelled.
///
/// wait() reassembles the streamed cells into a ResultSet ordered by the
/// daemon's plan cell order; for a completed plan that set is
/// byte-identical (through writeExperimentsJson) to a local runPlan of
/// the same spec -- the "served = local" contract tests/serve_test.cpp
/// holds.
///
/// One thread per client: the class is not thread-safe, and every call
/// runs on the caller's thread (no background reader).
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SERVE_CLIENT_H
#define HALO_SERVE_CLIENT_H

#include "eval/Experiment.h"
#include "serve/Protocol.h"
#include "support/Socket.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>

namespace halo {

/// How one served plan ended, with everything that streamed back.
struct PlanOutcome {
  PlanStatus Status = PlanStatus::Ok;
  std::string Message; ///< Failure text from the daemon; else empty.
  /// The streamed cells, ordered by plan cell index. Complete for Ok;
  /// cancelled/failed plans keep whatever cells finished in time.
  /// Machine pointers are resolved against this process's presets and
  /// may be null for names it does not know.
  ResultSet Results;
  uint64_t CellsReceived = 0;
  uint64_t NumCells = 0; ///< What PlanQueued promised.
};

/// One connection to a halo serve daemon.
class HaloClient {
public:
  /// Connects to \p SocketPath and performs the version handshake.
  /// Throws std::runtime_error if the daemon is unreachable or answers
  /// with an Error (e.g. a version mismatch).
  explicit HaloClient(const std::string &SocketPath);

  /// The daemon's pool width and store presence, from the handshake.
  uint64_t serverWorkers() const { return Ack.Workers; }
  bool serverHasStore() const { return Ack.HasStore; }

  /// Submits \p R; returns the daemon-assigned plan id once PlanQueued
  /// arrives. Throws std::runtime_error if the daemon rejects the plan.
  uint64_t submit(const PlanRequest &R);

  /// Invoked by wait() as each cell arrives, before reassembly.
  using CellFn = std::function<void(const CellResultMsg &)>;

  /// Blocks until \p PlanId's PlanDone, collecting its cells (and
  /// invoking \p OnCell per arrival -- cancel() from inside the callback
  /// is allowed). Throws on connection errors, and ProtocolError when a
  /// cell index is out of the promised range or repeats, or when an Ok
  /// plan delivered fewer or more cells than PlanQueued promised. Throws
  /// std::invalid_argument for a plan this client did not submit.
  PlanOutcome wait(uint64_t PlanId, const CellFn &OnCell = nullptr);

  /// Asks the daemon to stop handing out further tasks of \p PlanId.
  /// Fire-and-forget: completion still arrives as PlanDone via wait().
  void cancel(uint64_t PlanId);

  /// Fetches the daemon's counters.
  DaemonStats stats();

  /// Asks the daemon to shut down; returns once ShutdownAck arrives.
  /// Frames of plans still in flight are kept for their wait().
  void shutdownServer();

private:
  /// Reads one frame; throws if the daemon hung up mid-conversation.
  Frame readExpected();

  /// Buffers a CellResult or PlanDone for its plan's wait(). Throws on an
  /// Error frame, and ProtocolError naming \p During on any other type.
  void bufferPlanFrame(const Frame &F, const char *During);

  /// Reads frames until one of type \p Reply arrives and returns it,
  /// buffering the frames of plans in flight on the way.
  Frame awaitReply(MsgType Reply, const char *During);

  Socket Conn;
  HelloAckMsg Ack;
  /// NumCells per submitted plan, from PlanQueued, for PlanOutcome.
  std::map<uint64_t, uint64_t> PromisedCells;
  /// Frames of plans not yet collected by wait() (several plans may be in
  /// flight on one connection).
  std::map<uint64_t, std::vector<CellResultMsg>> PendingCells;
  std::map<uint64_t, PlanDoneMsg> PendingDone;
};

} // namespace halo

#endif // HALO_SERVE_CLIENT_H
