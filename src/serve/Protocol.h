//===- serve/Protocol.h - The halo serve wire protocol ----------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned binary protocol between `halo_cli serve` (serve/Server.h)
/// and its clients (serve/Client.h), framed over a Unix-domain socket
/// (support/Socket.h) and encoded with the tree's one wire format
/// (support/BinaryIO.h).
///
/// Every message is one frame:
///
///     u32 magic 'HSRV' | u8 type | u32 payload bytes | payload
///
/// fixed ints little-endian like every other serialized artifact. The
/// reader validates magic, type, and length (bounded by MaxFramePayload)
/// before touching the payload, and every payload decoder is
/// bounds-checked end to end -- a malformed or truncated frame surfaces as
/// ProtocolError, never UB and never a daemon exit.
///
/// The conversation:
///
///     client                                server
///     ------                                ------
///     Hello {version}          ->
///                              <-  HelloAck {version, workers, store}
///     SubmitPlan {request}     ->
///                              <-  PlanQueued {plan, cells, measurements}
///                              <-  CellResult {plan, cell, key, runs}
///                              <-  CellResult ...   (as cells finish)
///     Cancel {plan}            ->          (optional, any time)
///                              <-  PlanDone {plan, status, message}
///     Stats {}                 ->
///                              <-  StatsReply {counters}
///     Shutdown {}              ->
///                              <-  ShutdownAck {}
///                              <-  Error {plan | 0, message}  (any time)
///
/// A SubmitPlan carries a PlanRequest (eval/Experiment.h, beside the
/// ExperimentSpec that specFor() turns it into): benchmark names, machine
/// *preset* names, kinds, scale, trials, seed base. Setups are not
/// transported -- the daemon measures every benchmark under paperSetup(),
/// which is exactly what makes "served = local" checkable: the same names
/// must produce byte-identical results either way.
/// RunMetrics cross the wire with every double as its bit pattern, so
/// streamed cells reassemble bit-identical to the daemon's ResultSet.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SERVE_PROTOCOL_H
#define HALO_SERVE_PROTOCOL_H

#include "eval/Experiment.h"
#include "support/BinaryIO.h"

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace halo {

class Socket;

/// Bumped on any frame or payload layout change; the handshake rejects a
/// mismatch before anything else is decoded.
constexpr uint32_t ServeProtocolVersion = 1;

/// 'HSRV' little-endian: the first four bytes of every frame.
constexpr uint32_t ServeFrameMagic = 0x56525348u;

/// Frames above this are rejected unread. Plans and cells are small
/// (names and per-trial metrics, never traces), so the bound is generous.
constexpr uint32_t MaxFramePayload = 16u << 20;

/// Thrown on any malformed frame or payload: bad magic, unknown type,
/// oversized or truncated frame, out-of-domain field. Both ends treat it
/// as "this conversation is broken", never as a reason to crash.
class ProtocolError : public std::runtime_error {
public:
  explicit ProtocolError(const std::string &What)
      : std::runtime_error(What) {}
};

enum class MsgType : uint8_t {
  Hello = 1,
  HelloAck = 2,
  SubmitPlan = 3,
  PlanQueued = 4,
  CellResult = 5,
  PlanDone = 6,
  Cancel = 7,
  Stats = 8,
  StatsReply = 9,
  Shutdown = 10,
  ShutdownAck = 11,
  Error = 12,
};

/// How a plan ended, in its PlanDone frame.
enum class PlanStatus : uint8_t {
  Ok = 0,        ///< Every cell ran and streamed.
  Cancelled = 1, ///< Cancel arrived first; cells already streamed stand.
  Failed = 2,    ///< A task threw; the message carries the first error.
};

/// One decoded frame.
struct Frame {
  MsgType Type = MsgType::Error;
  std::vector<uint8_t> Payload;
};

/// Sends one frame (header + payload, a single sendAll).
void writeFrame(Socket &S, MsgType Type, const std::vector<uint8_t> &Payload);

/// Reads one frame; std::nullopt if the peer closed cleanly at a frame
/// boundary. Throws ProtocolError on bad magic, unknown type, a length
/// above MaxFramePayload, or a mid-frame close.
std::optional<Frame> readFrame(Socket &S);

//===----------------------------------------------------------------------===//
// Payloads
//===----------------------------------------------------------------------===//

/// The SubmitPlan payload; PlanRequest itself lives in eval/Experiment.h.
/// Decoding validates every field's domain.
std::vector<uint8_t> encodePlanRequest(const PlanRequest &R);
PlanRequest decodePlanRequest(const std::vector<uint8_t> &Payload);

/// One finished cell, streamed as its last trial completes.
struct CellResultMsg {
  uint64_t PlanId = 0;
  uint64_t CellIndex = 0; ///< Position in the plan's cell order.
  MeasurementKey Key;
  std::vector<RunMetrics> Runs;
};

std::vector<uint8_t> encodeCellResult(const CellResultMsg &M);
CellResultMsg decodeCellResult(const std::vector<uint8_t> &Payload);

/// The daemon's counters, for `halo_cli client stats`.
struct DaemonStats {
  uint64_t ActiveSessions = 0;
  uint64_t SessionsServed = 0;
  uint64_t PlansSubmitted = 0;
  uint64_t PlansCompleted = 0;
  uint64_t PlansCancelled = 0;
  uint64_t PlansFailed = 0;
  uint64_t CellsStreamed = 0;
  uint64_t TasksExecuted = 0;
  uint64_t Workers = 0;
  uint64_t WarmBenchmarks = 0; ///< Evaluations held warm across requests.
  bool HasStore = false;
};

std::vector<uint8_t> encodeStatsReply(const DaemonStats &S);
DaemonStats decodeStatsReply(const std::vector<uint8_t> &Payload);

// Small payloads, spelled out so both ends share one encoding.
std::vector<uint8_t> encodeHello(uint32_t Version);
uint32_t decodeHello(const std::vector<uint8_t> &Payload);

struct HelloAckMsg {
  uint32_t Version = ServeProtocolVersion;
  uint64_t Workers = 0;
  bool HasStore = false;
};
std::vector<uint8_t> encodeHelloAck(const HelloAckMsg &M);
HelloAckMsg decodeHelloAck(const std::vector<uint8_t> &Payload);

struct PlanQueuedMsg {
  uint64_t PlanId = 0;
  uint64_t NumCells = 0;
  uint64_t NumMeasurements = 0;
};
std::vector<uint8_t> encodePlanQueued(const PlanQueuedMsg &M);
PlanQueuedMsg decodePlanQueued(const std::vector<uint8_t> &Payload);

struct PlanDoneMsg {
  uint64_t PlanId = 0;
  PlanStatus Status = PlanStatus::Ok;
  std::string Message; ///< Failure text; empty for Ok/Cancelled.
};
std::vector<uint8_t> encodePlanDone(const PlanDoneMsg &M);
PlanDoneMsg decodePlanDone(const std::vector<uint8_t> &Payload);

std::vector<uint8_t> encodeCancel(uint64_t PlanId);
uint64_t decodeCancel(const std::vector<uint8_t> &Payload);

struct ErrorMsg {
  uint64_t PlanId = 0; ///< 0 = not about a specific plan.
  std::string Message;
};
std::vector<uint8_t> encodeError(const ErrorMsg &M);
ErrorMsg decodeError(const std::vector<uint8_t> &Payload);

} // namespace halo

#endif // HALO_SERVE_PROTOCOL_H
