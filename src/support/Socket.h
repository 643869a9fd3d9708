//===- support/Socket.h - RAII Unix-domain sockets --------------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one socket wrapper in the tree: a move-only file-descriptor owner
/// with the loops every byte-stream user needs written exactly once --
/// EINTR-restarting full sends and receives, poll-based accept with a
/// timeout (so an accept loop can observe a stop flag), and SIGPIPE
/// suppressed on send (a peer hanging up must surface as an error return,
/// never a process-killing signal). serve/Protocol.h frames its messages
/// over this; nothing else in the tree opens sockets.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SUPPORT_SOCKET_H
#define HALO_SUPPORT_SOCKET_H

#include <cstddef>
#include <optional>
#include <string>

namespace halo {

/// A move-only owner of one socket file descriptor. All errors are
/// std::runtime_error with the failing call and errno text; end-of-stream
/// is a value, not an error (recvSome/recvFully return short).
class Socket {
public:
  Socket() = default;
  explicit Socket(int Fd) : Fd(Fd) {}
  ~Socket() { close(); }

  Socket(Socket &&Other) noexcept : Fd(Other.Fd) { Other.Fd = -1; }
  Socket &operator=(Socket &&Other) noexcept;
  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;

  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }

  /// Binds and listens on a Unix-domain socket at \p Path. The path must
  /// not name an existing file (a live daemon owns it; stale files from a
  /// crashed one need an explicit unlink by the operator) and must fit
  /// sockaddr_un. Throws std::runtime_error on failure.
  static Socket listenUnix(const std::string &Path, int Backlog = 16);

  /// Connects to the Unix-domain socket at \p Path.
  static Socket connectUnix(const std::string &Path);

  /// Waits up to \p TimeoutMs for a connection and accepts it;
  /// std::nullopt on timeout (the accept loop's stop-flag poll point).
  std::optional<Socket> accept(int TimeoutMs);

  /// Bounds how long one send call may block on a full socket buffer.
  void setSendTimeout(int TimeoutMs);

  /// Sends all \p Size bytes, restarting on EINTR, SIGPIPE suppressed.
  /// Throws std::runtime_error if the peer is gone, the send fails, or a
  /// send blocks past the setSendTimeout bound.
  void sendAll(const void *Data, size_t Size);

  /// Receives at most \p Size bytes; 0 means the peer closed cleanly.
  size_t recvSome(void *Data, size_t Size);

  /// Receives exactly \p Size bytes unless the peer closes first; returns
  /// the count actually read (callers distinguish a clean close at a
  /// message boundary, 0, from a mid-message truncation, 0 < n < Size).
  size_t recvFully(void *Data, size_t Size);

  /// Shuts down both directions without closing the descriptor: a reader
  /// blocked in recv on another thread wakes with end-of-stream.
  void shutdownBoth();

  void close();

private:
  int Fd = -1;
};

} // namespace halo

#endif // HALO_SUPPORT_SOCKET_H
