//===- serve/Client.cpp - Client side of halo serve -------------------------===//

#include "serve/Client.h"

#include "sim/Machine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

using namespace halo;

HaloClient::HaloClient(const std::string &SocketPath)
    : Conn(Socket::connectUnix(SocketPath)) {
  writeFrame(Conn, MsgType::Hello, encodeHello(ServeProtocolVersion));
  Frame F = readExpected();
  if (F.Type == MsgType::Error)
    throw std::runtime_error("serve: " + decodeError(F.Payload).Message);
  if (F.Type != MsgType::HelloAck)
    throw ProtocolError("serve: expected HelloAck");
  Ack = decodeHelloAck(F.Payload);
  if (Ack.Version != ServeProtocolVersion)
    throw std::runtime_error("serve: daemon speaks protocol v" +
                             std::to_string(Ack.Version) + ", this client v" +
                             std::to_string(ServeProtocolVersion));
}

Frame HaloClient::readExpected() {
  std::optional<Frame> F = readFrame(Conn);
  if (!F)
    throw std::runtime_error("serve: daemon closed the connection");
  return std::move(*F);
}

void HaloClient::bufferPlanFrame(const Frame &F, const char *During) {
  if (F.Type == MsgType::CellResult) {
    CellResultMsg M = decodeCellResult(F.Payload);
    PendingCells[M.PlanId].push_back(std::move(M));
  } else if (F.Type == MsgType::PlanDone) {
    PlanDoneMsg D = decodePlanDone(F.Payload);
    PendingDone.emplace(D.PlanId, D);
  } else if (F.Type == MsgType::Error) {
    throw std::runtime_error("serve: " + decodeError(F.Payload).Message);
  } else {
    throw ProtocolError(std::string("serve: unexpected frame during ") +
                        During);
  }
}

Frame HaloClient::awaitReply(MsgType Reply, const char *During) {
  for (;;) {
    Frame F = readExpected();
    if (F.Type == Reply)
      return F;
    bufferPlanFrame(F, During);
  }
}

uint64_t HaloClient::submit(const PlanRequest &R) {
  writeFrame(Conn, MsgType::SubmitPlan, encodePlanRequest(R));
  PlanQueuedMsg Q =
      decodePlanQueued(awaitReply(MsgType::PlanQueued, "submit").Payload);
  PromisedCells[Q.PlanId] = Q.NumCells;
  return Q.PlanId;
}

PlanOutcome HaloClient::wait(uint64_t PlanId, const CellFn &OnCell) {
  auto Promised = PromisedCells.find(PlanId);
  if (Promised == PromisedCells.end())
    throw std::invalid_argument("serve: wait on plan " +
                                std::to_string(PlanId) +
                                ", which this client did not submit");
  PlanOutcome Outcome;
  Outcome.NumCells = Promised->second;
  PromisedCells.erase(Promised);

  // Cells that raced in during an earlier call are delivered first, then
  // each one as it arrives, until the plan's PlanDone. Every cell must be
  // one PlanQueued promised.
  size_t Delivered = 0;
  auto Deliver = [&] {
    std::vector<CellResultMsg> &Arrived = PendingCells[PlanId];
    for (; Delivered < Arrived.size(); ++Delivered) {
      if (Arrived[Delivered].CellIndex >= Outcome.NumCells)
        throw ProtocolError("serve: cell index out of range");
      if (OnCell)
        OnCell(Arrived[Delivered]);
    }
  };
  Deliver();
  while (!PendingDone.count(PlanId)) {
    bufferPlanFrame(readExpected(), "wait");
    Deliver();
  }
  PlanDoneMsg Done = PendingDone.at(PlanId);
  PendingDone.erase(PlanId);
  std::vector<CellResultMsg> Cells = std::move(PendingCells[PlanId]);
  PendingCells.erase(PlanId);

  // Reassemble in the daemon's plan cell order: completed plans come back
  // byte-identical to a local runPlan of the same spec. No cell may arrive
  // twice, and an Ok plan must deliver every promised cell.
  std::sort(Cells.begin(), Cells.end(),
            [](const CellResultMsg &A, const CellResultMsg &B) {
              return A.CellIndex < B.CellIndex;
            });
  for (size_t I = 1; I < Cells.size(); ++I)
    if (Cells[I].CellIndex == Cells[I - 1].CellIndex)
      throw ProtocolError("serve: cell streamed twice");
  if (Done.Status == PlanStatus::Ok && Cells.size() != Outcome.NumCells)
    throw ProtocolError("serve: plan completed with " +
                        std::to_string(Cells.size()) + " of " +
                        std::to_string(Outcome.NumCells) + " cells");

  std::vector<ResultSet::Cell> Reassembled;
  Reassembled.reserve(Cells.size());
  for (CellResultMsg &M : Cells) {
    ResultSet::Cell C;
    C.Key = std::move(M.Key);
    C.Machine = findMachine(C.Key.Machine);
    C.Runs = std::move(M.Runs);
    Reassembled.push_back(std::move(C));
  }

  Outcome.Status = Done.Status;
  Outcome.Message = Done.Message;
  Outcome.CellsReceived = Cells.size();
  Outcome.Results = ResultSet::fromCells(std::move(Reassembled));
  return Outcome;
}

void HaloClient::cancel(uint64_t PlanId) {
  writeFrame(Conn, MsgType::Cancel, encodeCancel(PlanId));
}

DaemonStats HaloClient::stats() {
  writeFrame(Conn, MsgType::Stats, {});
  return decodeStatsReply(awaitReply(MsgType::StatsReply, "stats").Payload);
}

void HaloClient::shutdownServer() {
  writeFrame(Conn, MsgType::Shutdown, {});
  awaitReply(MsgType::ShutdownAck, "shutdown");
}
