//===- serve/Protocol.cpp - The halo serve wire protocol ---------------------===//

#include "serve/Protocol.h"

#include "support/Socket.h"

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
                      const std::vector<uint8_t> &Payload, int TimeoutMs) {
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
  S.sendAll(W.buffer().data(), W.size(), TimeoutMs);
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
// Payload layouts
//===----------------------------------------------------------------------===//

namespace {

/// Counts on the wire are bounded well above any real plan: a decoder
/// must never let a hostile length allocate unbounded memory.
constexpr uint64_t MaxWireCount = 1u << 16;

constexpr auto KindElement = [](auto &C, auto &Kind) {
  C.enumeration(Kind, AllocatorKind::HaloInstrumentedOnly);
};

constexpr auto PlanRequestLayout = [](auto &C, auto &R) {
  C.list(R.Benchmarks, StrElement);
  C.list(R.Machines, StrElement);
  C.list(R.Kinds, KindElement);
  C.enumeration(R.S, Scale::Ref);
  C.bounded(R.Trials, 1, MaxTrials);
  C.u64(R.SeedBase);
};

constexpr auto MetricsLayout = [](auto &C, auto &M) {
  C.f64(M.Seconds);
  C.u64(M.Cycles);
  C.u64(M.Mem.Accesses);
  C.u64(M.Mem.L1Misses);
  C.u64(M.Mem.L2Misses);
  C.u64(M.Mem.L3Misses);
  C.u64(M.Mem.TlbMisses);
  C.u64(M.Mem.StallCycles);
  C.u64(M.Events.Calls);
  C.u64(M.Events.Allocs);
  C.u64(M.Events.Frees);
  C.u64(M.Events.Loads);
  C.u64(M.Events.Stores);
  C.u64(M.InstrumentationOps);
  C.u64(M.Frag.PeakResident);
  C.u64(M.Frag.LiveAtPeak);
  C.u64(M.GroupedAllocs);
  C.u64(M.ForwardedAllocs);
};

constexpr auto CellResultLayout = [](auto &C, auto &M) {
  C.u64(M.PlanId);
  C.u64(M.CellIndex);
  C.str(M.Key.Benchmark);
  C.str(M.Key.Machine);
  KindElement(C, M.Key.Kind);
  C.enumeration(M.Key.S, Scale::Ref);
  C.u64(M.Key.SeedBase);
  C.bounded(M.Key.Trials, 0, MaxTrials);
  C.list(M.Runs, MetricsLayout);
};

constexpr auto StatsReplyLayout = [](auto &C, auto &S) {
  C.u64(S.ActiveSessions);
  C.u64(S.SessionsServed);
  C.u64(S.PlansSubmitted);
  C.u64(S.PlansCompleted);
  C.u64(S.PlansCancelled);
  C.u64(S.PlansFailed);
  C.u64(S.CellsStreamed);
  C.u64(S.TasksExecuted);
  C.u64(S.Workers);
  C.u64(S.WarmBenchmarks);
  C.enumeration(S.HasStore, true);
};

constexpr auto HelloLayout = [](auto &C, auto &Version) { C.u32(Version); };

constexpr auto HelloAckLayout = [](auto &C, auto &M) {
  C.u32(M.Version);
  C.u64(M.Workers);
  C.enumeration(M.HasStore, true);
};

constexpr auto PlanQueuedLayout = [](auto &C, auto &M) {
  C.u64(M.PlanId);
  C.varint(M.NumCells);
  C.varint(M.NumMeasurements);
};

constexpr auto PlanDoneLayout = [](auto &C, auto &M) {
  C.u64(M.PlanId);
  C.enumeration(M.Status, PlanStatus::Failed);
  C.str(M.Message);
};

constexpr auto CancelLayout = [](auto &C, auto &PlanId) { C.u64(PlanId); };

constexpr auto ErrorLayout = [](auto &C, auto &M) {
  C.u64(M.PlanId);
  C.str(M.Message);
};

template <typename T, typename LayoutT>
std::vector<uint8_t> encode(const T &Value, LayoutT Layout) {
  BinaryWriter W;
  Encoder E(W);
  Layout(E, Value);
  return W.take();
}

/// Decodes a whole payload, translating SerializationError (a truncation,
/// an out-of-domain field, trailing bytes) into the protocol's own error
/// type so callers catch exactly one thing.
template <typename T, typename LayoutT>
T decode(const char *What, const std::vector<uint8_t> &Payload,
         LayoutT Layout) {
  try {
    BinaryReader R(Payload);
    Decoder D(R, MaxWireCount);
    T Value{};
    Layout(D, Value);
    R.expectEnd(What);
    return Value;
  } catch (const SerializationError &E) {
    throw ProtocolError(std::string(What) + ": " + E.what());
  }
}

} // namespace

std::vector<uint8_t> halo::encodePlanRequest(const PlanRequest &R) {
  return encode(R, PlanRequestLayout);
}

PlanRequest halo::decodePlanRequest(const std::vector<uint8_t> &Payload) {
  return decode<PlanRequest>("SubmitPlan", Payload, PlanRequestLayout);
}

std::vector<uint8_t> halo::encodeCellResult(const CellResultMsg &M) {
  return encode(M, CellResultLayout);
}

CellResultMsg halo::decodeCellResult(const std::vector<uint8_t> &Payload) {
  return decode<CellResultMsg>("CellResult", Payload, CellResultLayout);
}

std::vector<uint8_t> halo::encodeStatsReply(const DaemonStats &S) {
  return encode(S, StatsReplyLayout);
}

DaemonStats halo::decodeStatsReply(const std::vector<uint8_t> &Payload) {
  return decode<DaemonStats>("StatsReply", Payload, StatsReplyLayout);
}

std::vector<uint8_t> halo::encodeHello(uint32_t Version) {
  return encode(Version, HelloLayout);
}

uint32_t halo::decodeHello(const std::vector<uint8_t> &Payload) {
  return decode<uint32_t>("Hello", Payload, HelloLayout);
}

std::vector<uint8_t> halo::encodeHelloAck(const HelloAckMsg &M) {
  return encode(M, HelloAckLayout);
}

HelloAckMsg halo::decodeHelloAck(const std::vector<uint8_t> &Payload) {
  return decode<HelloAckMsg>("HelloAck", Payload, HelloAckLayout);
}

std::vector<uint8_t> halo::encodePlanQueued(const PlanQueuedMsg &M) {
  return encode(M, PlanQueuedLayout);
}

PlanQueuedMsg halo::decodePlanQueued(const std::vector<uint8_t> &Payload) {
  return decode<PlanQueuedMsg>("PlanQueued", Payload, PlanQueuedLayout);
}

std::vector<uint8_t> halo::encodePlanDone(const PlanDoneMsg &M) {
  return encode(M, PlanDoneLayout);
}

PlanDoneMsg halo::decodePlanDone(const std::vector<uint8_t> &Payload) {
  return decode<PlanDoneMsg>("PlanDone", Payload, PlanDoneLayout);
}

std::vector<uint8_t> halo::encodeCancel(uint64_t PlanId) {
  return encode(PlanId, CancelLayout);
}

uint64_t halo::decodeCancel(const std::vector<uint8_t> &Payload) {
  return decode<uint64_t>("Cancel", Payload, CancelLayout);
}

std::vector<uint8_t> halo::encodeError(const ErrorMsg &M) {
  return encode(M, ErrorLayout);
}

ErrorMsg halo::decodeError(const std::vector<uint8_t> &Payload) {
  return decode<ErrorMsg>("Error", Payload, ErrorLayout);
}
