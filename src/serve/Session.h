//===- serve/Session.h - One daemon-side client connection ------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One accepted connection as the daemon (serve/Server.h) sees it: the
/// socket, the single write path every daemon thread funnels through, and
/// the liveness flag that turns "peer went away" into silently dropped
/// frames instead of errors racing through the scheduler.
///
/// Exactly one thread reads from a session (its reader loop, owned by the
/// daemon); any thread may write -- the scheduler's workers stream
/// CellResult frames while the reader answers Stats -- so send() serialises
/// writers on a per-session mutex and writes each frame with one sendAll,
/// keeping frames from distinct threads whole on the wire. Every send is
/// bounded in time: a client that stops reading fills its socket buffer,
/// and a sender blocked on it would hold the write lock -- and, for a
/// PlanDone, the daemon's state mutex -- for as long as the client waits.
///
/// Lock order: a sender may hold the daemon's state mutex when calling
/// send(); nothing here calls back into the daemon, so WriteMutex is
/// always innermost.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SERVE_SESSION_H
#define HALO_SERVE_SESSION_H

#include "serve/Protocol.h"
#include "support/Socket.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace halo {

/// Daemon-side state of one client connection. Owned by shared_ptr: the
/// accept loop, the reader thread, and every queued plan hold references,
/// and the last one out closes the socket.
class ServeSession {
public:
  /// Takes over \p Conn and bounds every send on it (Session.cpp's
  /// SendTimeoutMs).
  ServeSession(uint64_t Id, Socket Conn);

  uint64_t id() const { return Id; }

  /// The reader loop's socket. Only the reader thread may read from it.
  Socket &socket() { return Conn; }

  /// Sends one frame, serialised against other senders. Returns false if
  /// the peer is gone or the send timed out; either marks the session dead
  /// and shuts its socket down, so the reader wakes and cancels the
  /// session's plans. A result stream whose client vanished or stalled
  /// must not take the daemon down with it.
  bool send(MsgType Type, const std::vector<uint8_t> &Payload);

  /// Convenience for the protocol's error frame.
  bool sendError(uint64_t PlanId, const std::string &Message);

  /// True until the peer disconnects (or a send to it fails or times out).
  bool alive() const { return Alive.load(std::memory_order_acquire); }

  /// Marks the session dead: subsequent send() calls drop their frames.
  void markDead() { Alive.store(false, std::memory_order_release); }

  /// Wakes a reader blocked in recv with end-of-stream (shutdown without
  /// close, so the reader thread still owns a valid descriptor).
  void wakeReader() { Conn.shutdownBoth(); }

  /// Set by the reader thread as it exits; the accept loop reaps (joins)
  /// sessions with this flag set.
  bool readerDone() const { return Done.load(std::memory_order_acquire); }
  void markReaderDone() { Done.store(true, std::memory_order_release); }

  /// The reader thread itself, owned here so the daemon can join it.
  std::thread Reader;

private:
  uint64_t Id = 0;
  Socket Conn;
  std::mutex WriteMutex;
  std::atomic<bool> Alive{true};
  std::atomic<bool> Done{false};
};

} // namespace halo

#endif // HALO_SERVE_SESSION_H
