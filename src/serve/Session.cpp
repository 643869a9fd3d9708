//===- serve/Session.cpp - One daemon-side client connection ----------------===//

#include "serve/Session.h"

#include <stdexcept>

using namespace halo;

/// How long one send call to a client may block on its full socket
/// buffer before the session gives the client up: far above any live
/// client's pause between reads, and short enough that a client that
/// stops reading holds the others back for seconds, not for as long as
/// it stalls.
static constexpr int SendTimeoutMs = 2000;

ServeSession::ServeSession(uint64_t Id, Socket ConnIn)
    : Id(Id), Conn(std::move(ConnIn)) {
  Conn.setSendTimeout(SendTimeoutMs);
}

bool ServeSession::send(MsgType Type, const std::vector<uint8_t> &Payload) {
  std::lock_guard<std::mutex> Lock(WriteMutex);
  if (!Alive.load(std::memory_order_acquire))
    return false;
  try {
    writeFrame(Conn, Type, Payload);
    return true;
  } catch (const std::runtime_error &) {
    // The peer hung up mid-stream or stopped reading. Everything still
    // queued for this session -- later cells, the PlanDone -- drops
    // silently from here on, and the shutdown wakes the reader, which
    // cancels the session's plans.
    Alive.store(false, std::memory_order_release);
    Conn.shutdownBoth();
    return false;
  }
}

bool ServeSession::sendError(uint64_t PlanId, const std::string &Message) {
  ErrorMsg M;
  M.PlanId = PlanId;
  M.Message = Message;
  return send(MsgType::Error, encodeError(M));
}
