//===- serve/Protocol.cpp - The halo serve wire protocol ---------------------===//

#include "serve/Protocol.h"

#include "support/Socket.h"

#include <cstring>

using namespace halo;

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

namespace {

constexpr size_t FrameHeaderBytes = 4 + 1 + 4;

bool knownType(uint8_t Type) {
  return Type >= static_cast<uint8_t>(MsgType::Hello) &&
         Type <= static_cast<uint8_t>(MsgType::Error);
}

} // namespace

void halo::writeFrame(Socket &S, MsgType Type,
                      const std::vector<uint8_t> &Payload) {
  if (Payload.size() > MaxFramePayload)
    throw ProtocolError("frame payload too large to send");
  BinaryWriter W;
  W.u32(ServeFrameMagic);
  W.u8(static_cast<uint8_t>(Type));
  W.u32(static_cast<uint32_t>(Payload.size()));
  W.bytes(Payload.data(), Payload.size());
  // One send per frame: concurrent writers (result-streaming tasks and
  // the reader's replies share a session socket) interleave whole frames,
  // never bytes, as long as each holds the session's write lock.
  S.sendAll(W.buffer().data(), W.size());
}

std::optional<Frame> halo::readFrame(Socket &S) {
  uint8_t Header[FrameHeaderBytes];
  size_t Got = S.recvFully(Header, sizeof(Header));
  if (Got == 0)
    return std::nullopt; // Clean close at a frame boundary.
  if (Got < sizeof(Header))
    throw ProtocolError("truncated frame header");
  BinaryReader R(Header, sizeof(Header));
  if (R.u32() != ServeFrameMagic)
    throw ProtocolError("bad frame magic");
  uint8_t Type = R.u8();
  if (!knownType(Type))
    throw ProtocolError("unknown frame type " + std::to_string(Type));
  uint32_t Size = R.u32();
  if (Size > MaxFramePayload)
    throw ProtocolError("frame payload of " + std::to_string(Size) +
                        " bytes exceeds the protocol bound");
  Frame F;
  F.Type = static_cast<MsgType>(Type);
  F.Payload.resize(Size);
  if (Size && S.recvFully(F.Payload.data(), Size) < Size)
    throw ProtocolError("truncated frame payload");
  return F;
}

//===----------------------------------------------------------------------===//
// Payload helpers
//===----------------------------------------------------------------------===//

namespace {

/// Counts on the wire are bounded well above any real plan: a decoder
/// must never let a hostile length allocate unbounded memory.
constexpr uint64_t MaxWireCount = 1u << 16;

AllocatorKind kindFromWire(uint8_t V) {
  if (V > static_cast<uint8_t>(AllocatorKind::HaloInstrumentedOnly))
    throw ProtocolError("allocator kind " + std::to_string(V) +
                        " out of domain");
  return static_cast<AllocatorKind>(V);
}

Scale scaleFromWire(uint8_t V) {
  if (V > 1)
    throw ProtocolError("scale " + std::to_string(V) + " out of domain");
  return static_cast<Scale>(V);
}

void encodeMetrics(BinaryWriter &W, const RunMetrics &M) {
  W.f64(M.Seconds);
  W.u64(M.Cycles);
  W.u64(M.Mem.Accesses);
  W.u64(M.Mem.L1Misses);
  W.u64(M.Mem.L2Misses);
  W.u64(M.Mem.L3Misses);
  W.u64(M.Mem.TlbMisses);
  W.u64(M.Mem.StallCycles);
  W.u64(M.Events.Calls);
  W.u64(M.Events.Allocs);
  W.u64(M.Events.Frees);
  W.u64(M.Events.Loads);
  W.u64(M.Events.Stores);
  W.u64(M.InstrumentationOps);
  W.u64(M.Frag.PeakResident);
  W.u64(M.Frag.LiveAtPeak);
  W.u64(M.GroupedAllocs);
  W.u64(M.ForwardedAllocs);
}

RunMetrics decodeMetrics(BinaryReader &R) {
  RunMetrics M;
  M.Seconds = R.f64();
  M.Cycles = R.u64();
  M.Mem.Accesses = R.u64();
  M.Mem.L1Misses = R.u64();
  M.Mem.L2Misses = R.u64();
  M.Mem.L3Misses = R.u64();
  M.Mem.TlbMisses = R.u64();
  M.Mem.StallCycles = R.u64();
  M.Events.Calls = R.u64();
  M.Events.Allocs = R.u64();
  M.Events.Frees = R.u64();
  M.Events.Loads = R.u64();
  M.Events.Stores = R.u64();
  M.InstrumentationOps = R.u64();
  M.Frag.PeakResident = R.u64();
  M.Frag.LiveAtPeak = R.u64();
  M.GroupedAllocs = R.u64();
  M.ForwardedAllocs = R.u64();
  return M;
}

/// Decoders translate SerializationError (bounds-checked reads) into the
/// protocol's own error type so callers catch exactly one thing.
template <typename FnT> auto decoding(const char *What, FnT Fn) {
  try {
    return Fn();
  } catch (const SerializationError &E) {
    throw ProtocolError(std::string(What) + ": " + E.what());
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// PlanRequest
//===----------------------------------------------------------------------===//

std::vector<uint8_t> halo::encodePlanRequest(const PlanRequest &R) {
  BinaryWriter W;
  W.varint(R.Benchmarks.size());
  for (const std::string &Name : R.Benchmarks)
    W.str(Name);
  W.varint(R.Machines.size());
  for (const std::string &Name : R.Machines)
    W.str(Name);
  W.varint(R.Kinds.size());
  for (AllocatorKind Kind : R.Kinds)
    W.u8(static_cast<uint8_t>(Kind));
  W.u8(static_cast<uint8_t>(R.S));
  W.varint(static_cast<uint64_t>(R.Trials));
  W.u64(R.SeedBase);
  return W.take();
}

PlanRequest halo::decodePlanRequest(const std::vector<uint8_t> &Payload) {
  return decoding("SubmitPlan", [&] {
    BinaryReader R(Payload);
    PlanRequest Req;
    uint64_t N = R.count(MaxWireCount);
    Req.Benchmarks.reserve(N);
    for (uint64_t I = 0; I < N; ++I)
      Req.Benchmarks.push_back(R.str());
    N = R.count(MaxWireCount);
    Req.Machines.reserve(N);
    for (uint64_t I = 0; I < N; ++I)
      Req.Machines.push_back(R.str());
    N = R.count(MaxWireCount);
    Req.Kinds.clear();
    for (uint64_t I = 0; I < N; ++I)
      Req.Kinds.push_back(kindFromWire(R.u8()));
    Req.S = scaleFromWire(R.u8());
    uint64_t Trials = R.varint();
    if (Trials < 1 || Trials > MaxWireCount)
      throw ProtocolError("trials " + std::to_string(Trials) +
                          " out of domain");
    Req.Trials = static_cast<int>(Trials);
    Req.SeedBase = R.u64();
    R.expectEnd("SubmitPlan");
    return Req;
  });
}

//===----------------------------------------------------------------------===//
// CellResult
//===----------------------------------------------------------------------===//

std::vector<uint8_t> halo::encodeCellResult(const CellResultMsg &M) {
  BinaryWriter W;
  W.u64(M.PlanId);
  W.u64(M.CellIndex);
  W.str(M.Key.Benchmark);
  W.str(M.Key.Machine);
  W.u8(static_cast<uint8_t>(M.Key.Kind));
  W.u8(static_cast<uint8_t>(M.Key.S));
  W.u64(M.Key.SeedBase);
  W.varint(static_cast<uint64_t>(M.Key.Trials));
  W.varint(M.Runs.size());
  for (const RunMetrics &Run : M.Runs)
    encodeMetrics(W, Run);
  return W.take();
}

CellResultMsg halo::decodeCellResult(const std::vector<uint8_t> &Payload) {
  return decoding("CellResult", [&] {
    BinaryReader R(Payload);
    CellResultMsg M;
    M.PlanId = R.u64();
    M.CellIndex = R.u64();
    M.Key.Benchmark = R.str();
    M.Key.Machine = R.str();
    M.Key.Kind = kindFromWire(R.u8());
    M.Key.S = scaleFromWire(R.u8());
    M.Key.SeedBase = R.u64();
    uint64_t Trials = R.varint();
    if (Trials > MaxWireCount)
      throw ProtocolError("trials out of domain");
    M.Key.Trials = static_cast<int>(Trials);
    uint64_t N = R.count(MaxWireCount);
    M.Runs.reserve(N);
    for (uint64_t I = 0; I < N; ++I)
      M.Runs.push_back(decodeMetrics(R));
    R.expectEnd("CellResult");
    return M;
  });
}

//===----------------------------------------------------------------------===//
// Stats and the small fixed payloads
//===----------------------------------------------------------------------===//

std::vector<uint8_t> halo::encodeStatsReply(const DaemonStats &S) {
  BinaryWriter W;
  W.u64(S.ActiveSessions);
  W.u64(S.SessionsServed);
  W.u64(S.PlansSubmitted);
  W.u64(S.PlansCompleted);
  W.u64(S.PlansCancelled);
  W.u64(S.PlansFailed);
  W.u64(S.CellsStreamed);
  W.u64(S.TasksExecuted);
  W.u64(S.Workers);
  W.u64(S.WarmBenchmarks);
  W.u8(S.HasStore ? 1 : 0);
  return W.take();
}

DaemonStats halo::decodeStatsReply(const std::vector<uint8_t> &Payload) {
  return decoding("StatsReply", [&] {
    BinaryReader R(Payload);
    DaemonStats S;
    S.ActiveSessions = R.u64();
    S.SessionsServed = R.u64();
    S.PlansSubmitted = R.u64();
    S.PlansCompleted = R.u64();
    S.PlansCancelled = R.u64();
    S.PlansFailed = R.u64();
    S.CellsStreamed = R.u64();
    S.TasksExecuted = R.u64();
    S.Workers = R.u64();
    S.WarmBenchmarks = R.u64();
    S.HasStore = R.u8() != 0;
    R.expectEnd("StatsReply");
    return S;
  });
}

std::vector<uint8_t> halo::encodeHello(uint32_t Version) {
  BinaryWriter W;
  W.u32(Version);
  return W.take();
}

uint32_t halo::decodeHello(const std::vector<uint8_t> &Payload) {
  return decoding("Hello", [&] {
    BinaryReader R(Payload);
    uint32_t Version = R.u32();
    R.expectEnd("Hello");
    return Version;
  });
}

std::vector<uint8_t> halo::encodeHelloAck(const HelloAckMsg &M) {
  BinaryWriter W;
  W.u32(M.Version);
  W.u64(M.Workers);
  W.u8(M.HasStore ? 1 : 0);
  return W.take();
}

HelloAckMsg halo::decodeHelloAck(const std::vector<uint8_t> &Payload) {
  return decoding("HelloAck", [&] {
    BinaryReader R(Payload);
    HelloAckMsg M;
    M.Version = R.u32();
    M.Workers = R.u64();
    M.HasStore = R.u8() != 0;
    R.expectEnd("HelloAck");
    return M;
  });
}

std::vector<uint8_t> halo::encodePlanQueued(const PlanQueuedMsg &M) {
  BinaryWriter W;
  W.u64(M.PlanId);
  W.varint(M.NumCells);
  W.varint(M.NumMeasurements);
  return W.take();
}

PlanQueuedMsg halo::decodePlanQueued(const std::vector<uint8_t> &Payload) {
  return decoding("PlanQueued", [&] {
    BinaryReader R(Payload);
    PlanQueuedMsg M;
    M.PlanId = R.u64();
    M.NumCells = R.varint();
    M.NumMeasurements = R.varint();
    R.expectEnd("PlanQueued");
    return M;
  });
}

std::vector<uint8_t> halo::encodePlanDone(const PlanDoneMsg &M) {
  BinaryWriter W;
  W.u64(M.PlanId);
  W.u8(static_cast<uint8_t>(M.Status));
  W.str(M.Message);
  return W.take();
}

PlanDoneMsg halo::decodePlanDone(const std::vector<uint8_t> &Payload) {
  return decoding("PlanDone", [&] {
    BinaryReader R(Payload);
    PlanDoneMsg M;
    M.PlanId = R.u64();
    uint8_t Status = R.u8();
    if (Status > static_cast<uint8_t>(PlanStatus::Failed))
      throw ProtocolError("plan status " + std::to_string(Status) +
                          " out of domain");
    M.Status = static_cast<PlanStatus>(Status);
    M.Message = R.str();
    R.expectEnd("PlanDone");
    return M;
  });
}

std::vector<uint8_t> halo::encodeCancel(uint64_t PlanId) {
  BinaryWriter W;
  W.u64(PlanId);
  return W.take();
}

uint64_t halo::decodeCancel(const std::vector<uint8_t> &Payload) {
  return decoding("Cancel", [&] {
    BinaryReader R(Payload);
    uint64_t PlanId = R.u64();
    R.expectEnd("Cancel");
    return PlanId;
  });
}

std::vector<uint8_t> halo::encodeError(const ErrorMsg &M) {
  BinaryWriter W;
  W.u64(M.PlanId);
  W.str(M.Message);
  return W.take();
}

ErrorMsg halo::decodeError(const std::vector<uint8_t> &Payload) {
  return decoding("Error", [&] {
    BinaryReader R(Payload);
    ErrorMsg M;
    M.PlanId = R.u64();
    M.Message = R.str();
    R.expectEnd("Error");
    return M;
  });
}
