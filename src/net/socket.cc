#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <utility>

namespace leopard {
namespace net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

Status SetTimeout(int fd, int which, uint64_t ms) {
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  if (setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(timeout)");
  }
  return Status::Ok();
}

}  // namespace

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status Socket::SendAll(const void* data, size_t n) {
  if (fd_ < 0) return Status::FailedPrecondition("send on closed socket");
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t sent = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Busy("send timeout");
      }
      return Errno("send");
    }
    p += sent;
    n -= static_cast<size_t>(sent);
  }
  return Status::Ok();
}

StatusOr<size_t> Socket::Recv(void* buf, size_t n) {
  if (fd_ < 0) return Status::FailedPrecondition("recv on closed socket");
  while (true) {
    ssize_t got = ::recv(fd_, buf, n, 0);
    if (got >= 0) return static_cast<size_t>(got);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Busy("recv timeout");
    }
    return Errno("recv");
  }
}

StatusOr<size_t> Socket::RecvNonblocking(void* buf, size_t n) {
  if (fd_ < 0) return Status::FailedPrecondition("recv on closed socket");
  while (true) {
    ssize_t got = ::recv(fd_, buf, n, MSG_DONTWAIT);
    if (got >= 0) return static_cast<size_t>(got);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Busy("no data");
    }
    return Errno("recv");
  }
}

Status Socket::SetRecvTimeoutMs(uint64_t ms) {
  return SetTimeout(fd_, SO_RCVTIMEO, ms);
}

Status Socket::SetSendTimeoutMs(uint64_t ms) {
  return SetTimeout(fd_, SO_SNDTIMEO, ms);
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool ParseHostPort(const std::string& spec, std::string& host,
                   uint16_t& port) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size()) return false;
  char* end = nullptr;
  unsigned long p = std::strtoul(spec.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || p == 0 || p > 65535) return false;
  host = spec.substr(0, colon);
  if (host.empty()) host = "127.0.0.1";
  port = static_cast<uint16_t>(p);
  return true;
}

StatusOr<Socket> TcpConnect(const std::string& host, uint16_t port) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
  if (rc != 0) {
    return Status::InvalidArgument("cannot resolve " + host + ": " +
                                   gai_strerror(rc));
  }
  Status last = Status::Internal("no addresses for " + host);
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::freeaddrinfo(res);
      return Socket(fd);
    }
    last = Errno("connect");
    ::close(fd);
  }
  ::freeaddrinfo(res);
  return last;
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

Listener::~Listener() { Close(); }

StatusOr<Listener> Listener::Listen(uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status s = Errno("bind");
    ::close(fd);
    return s;
  }
  if (::listen(fd, backlog) != 0) {
    Status s = Errno("listen");
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
      0) {
    Status s = Errno("getsockname");
    ::close(fd);
    return s;
  }
  Listener l;
  l.fd_ = fd;
  l.port_ = ntohs(addr.sin_port);
  return l;
}

StatusOr<Socket> Listener::Accept(uint64_t accept_timeout_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("accept on closed listener");
  Status s = SetTimeout(fd_, SO_RCVTIMEO, accept_timeout_ms);
  if (!s.ok()) return s;
  while (true) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Busy("accept timeout");
    }
    return Errno("accept");
  }
}

void Listener::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace net
}  // namespace leopard
