//===- support/Socket.cpp - RAII Unix-domain sockets ------------------------===//

#include "support/Socket.h"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

using namespace halo;

namespace {

[[noreturn]] void fail(const std::string &What) {
  throw std::runtime_error(What + ": " + std::strerror(errno));
}

sockaddr_un addressFor(const std::string &Path) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path))
    throw std::runtime_error("socket path '" + Path +
                             "' is empty or too long for a Unix socket");
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return Addr;
}

} // namespace

Socket &Socket::operator=(Socket &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = Other.Fd;
    Other.Fd = -1;
  }
  return *this;
}

void Socket::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

Socket Socket::listenUnix(const std::string &Path, int Backlog) {
  sockaddr_un Addr = addressFor(Path);
  Socket S(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!S.valid())
    fail("socket");
  if (::bind(S.fd(), reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
    fail("bind " + Path);
  if (::listen(S.fd(), Backlog) != 0)
    fail("listen " + Path);
  return S;
}

Socket Socket::connectUnix(const std::string &Path) {
  sockaddr_un Addr = addressFor(Path);
  Socket S(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!S.valid())
    fail("socket");
  int Rc;
  do {
    Rc = ::connect(S.fd(), reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  } while (Rc != 0 && errno == EINTR);
  if (Rc != 0)
    fail("connect " + Path);
  return S;
}

std::optional<Socket> Socket::accept(int TimeoutMs) {
  pollfd Pfd;
  Pfd.fd = Fd;
  Pfd.events = POLLIN;
  Pfd.revents = 0;
  int Ready = ::poll(&Pfd, 1, TimeoutMs);
  if (Ready < 0) {
    if (errno == EINTR)
      return std::nullopt;
    fail("poll");
  }
  if (Ready == 0)
    return std::nullopt;
  int Conn;
  do {
    Conn = ::accept(Fd, nullptr, nullptr);
  } while (Conn < 0 && errno == EINTR);
  if (Conn < 0) {
    // The listener was shut down under us (daemon stop) or the peer gave
    // up between poll and accept; neither ends the accept loop's caller.
    if (errno == EINVAL || errno == ECONNABORTED || errno == EAGAIN)
      return std::nullopt;
    fail("accept");
  }
  return Socket(Conn);
}

void Socket::setSendTimeout(int TimeoutMs) {
  timeval Tv;
  Tv.tv_sec = TimeoutMs / 1000;
  Tv.tv_usec = (TimeoutMs % 1000) * 1000;
  if (::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv)) != 0)
    fail("setsockopt SO_SNDTIMEO");
}

void Socket::sendAll(const void *Data, size_t Size) {
  const char *P = static_cast<const char *>(Data);
  while (Size > 0) {
    ssize_t N = ::send(Fd, P, Size, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      fail("send");
    }
    P += N;
    Size -= static_cast<size_t>(N);
  }
}

size_t Socket::recvSome(void *Data, size_t Size) {
  for (;;) {
    ssize_t N = ::recv(Fd, Data, Size, 0);
    if (N >= 0)
      return static_cast<size_t>(N);
    if (errno != EINTR)
      fail("recv");
  }
}

size_t Socket::recvFully(void *Data, size_t Size) {
  char *P = static_cast<char *>(Data);
  size_t Got = 0;
  while (Got < Size) {
    size_t N = recvSome(P + Got, Size - Got);
    if (N == 0)
      break;
    Got += N;
  }
  return Got;
}

void Socket::shutdownBoth() {
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_RDWR);
}
