#include "transport/endpoint.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#error "the collection transport requires POSIX sockets"
#endif

#include "common/strings.h"

namespace causeway::transport {

namespace {

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

void set_nonblocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL,
          nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK));
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_sndbuf(int fd, std::size_t bytes) {
  if (bytes == 0) return;
  const int value = static_cast<int>(bytes);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &value, sizeof(value));
}

sockaddr_un unix_sockaddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  return addr;
}

// getaddrinfo wrapper shared by connect and bind; the caller frees.
addrinfo* resolve_tcp(const EndpointAddress& address, bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
  addrinfo* result = nullptr;
  const std::string service = std::to_string(address.port);
  const int rc = ::getaddrinfo(address.host.empty() ? nullptr
                                                    : address.host.c_str(),
                               service.c_str(), &hints, &result);
  if (rc != 0) {
    throw TransportError(strf("resolve %s: %s", address.to_string().c_str(),
                              ::gai_strerror(rc)));
  }
  return result;
}

}  // namespace

const char* endpoint_kind_name(EndpointKind kind) {
  return kind == EndpointKind::kTcp ? "tcp" : "unix";
}

std::string EndpointAddress::to_string() const {
  if (kind == EndpointKind::kTcp) {
    return strf("tcp:%s:%u", host.c_str(), static_cast<unsigned>(port));
  }
  return "unix:" + path;
}

EndpointAddress parse_endpoint(const std::string& spec) {
  EndpointAddress address;
  if (spec.rfind("tcp:", 0) == 0) {
    address.kind = EndpointKind::kTcp;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      throw TransportError(
          strf("malformed tcp endpoint '%s' (want tcp:host:port)",
               spec.c_str()));
    }
    address.host = rest.substr(0, colon);
    const std::string port_str = rest.substr(colon + 1);
    char* end = nullptr;
    const long port = std::strtol(port_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port < 0 || port > 65535) {
      throw TransportError(strf("invalid tcp port '%s' in '%s'",
                                port_str.c_str(), spec.c_str()));
    }
    address.port = static_cast<std::uint16_t>(port);
    return address;
  }
  if (spec.rfind("unix:", 0) == 0) {
    address.path = spec.substr(5);
  } else if (spec.find(':') != std::string::npos &&
             spec.find('/') == std::string::npos) {
    throw TransportError(
        strf("unknown endpoint scheme in '%s' (want unix:PATH, tcp:HOST:PORT "
             "or a bare socket path)",
             spec.c_str()));
  } else {
    address.path = spec;  // bare path: back-compat unix spelling
  }
  if (address.path.empty()) {
    throw TransportError(strf("empty unix socket path in '%s'", spec.c_str()));
  }
  if (address.path.size() >= sizeof(sockaddr_un::sun_path)) {
    throw TransportError(
        strf("unix socket path too long (%zu bytes, limit %zu): %s",
             address.path.size(), sizeof(sockaddr_un::sun_path) - 1,
             address.path.c_str()));
  }
  return address;
}

void StreamEndpoint::set_blocking(bool blocking) {
  if (fd_ >= 0) set_nonblocking(fd_, !blocking);
}

void StreamEndpoint::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool StreamEndpoint::close_gracefully(std::uint64_t timeout_ms) {
  if (fd_ < 0) return true;
  bool eof = false;
  if (::shutdown(fd_, SHUT_WR) == 0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    std::uint8_t discard[4096];
    for (;;) {
      const long got = ::recv(fd_, discard, sizeof(discard), MSG_DONTWAIT);
      if (got == 0) {
        eof = true;
        break;
      }
      if (got > 0) continue;
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) break;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) break;
      pollfd pfd{fd_, POLLIN, 0};
      ::poll(&pfd, 1, static_cast<int>(std::min<long long>(left.count(),
                                                           1000)));
    }
  }
  close();
  return eof;
}

StreamEndpoint connect_endpoint(const EndpointAddress& address,
                                std::uint64_t timeout_ms,
                                std::size_t sndbuf_bytes) {
  if (address.kind == EndpointKind::kUnix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return StreamEndpoint{};
    set_cloexec(fd);
    set_sndbuf(fd, sndbuf_bytes);
    const sockaddr_un addr = unix_sockaddr(address.path);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd);
      errno = err;
      return StreamEndpoint{};
    }
    set_nonblocking(fd, true);
    return StreamEndpoint{fd};
  }

  addrinfo* candidates = nullptr;
  try {
    candidates = resolve_tcp(address, /*passive=*/false);
  } catch (const TransportError&) {
    errno = EHOSTUNREACH;
    return StreamEndpoint{};
  }
  int last_errno = ECONNREFUSED;
  for (addrinfo* ai = candidates; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    set_cloexec(fd);
    set_sndbuf(fd, sndbuf_bytes);
    set_nonblocking(fd, true);
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      set_nodelay(fd);
      ::freeaddrinfo(candidates);
      return StreamEndpoint{fd};
    }
    if (errno == EINPROGRESS) {
      // Bounded wait for the three-way handshake; a dead host must cost
      // timeout_ms, not the kernel's SYN-retransmit minutes.
      pollfd pfd{fd, POLLOUT, 0};
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(timeout_ms == 0 ? 1 : timeout_ms));
      if (ready > 0) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err == 0) {
          set_nodelay(fd);
          ::freeaddrinfo(candidates);
          return StreamEndpoint{fd};
        }
        last_errno = err;
      } else {
        last_errno = ETIMEDOUT;
      }
    } else {
      last_errno = errno;
    }
    ::close(fd);
  }
  ::freeaddrinfo(candidates);
  errno = last_errno;
  return StreamEndpoint{};
}

Listener::Listener(const EndpointAddress& address) : address_(address) {
  if (address_.kind == EndpointKind::kUnix) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      throw TransportError(strf("socket(%s): %s",
                                address_.to_string().c_str(),
                                std::strerror(errno)));
    }
    set_cloexec(fd_);
    const sockaddr_un addr = unix_sockaddr(address_.path);
    ::unlink(address_.path.c_str());
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      throw TransportError(strf("bind(%s): %s", address_.to_string().c_str(),
                                std::strerror(err)));
    }
  } else {
    addrinfo* candidates = resolve_tcp(address_, /*passive=*/true);
    int last_errno = EADDRNOTAVAIL;
    for (addrinfo* ai = candidates; ai != nullptr; ai = ai->ai_next) {
      const int fd =
          ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) {
        last_errno = errno;
        continue;
      }
      set_cloexec(fd);
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
        fd_ = fd;
        break;
      }
      last_errno = errno;
      ::close(fd);
    }
    ::freeaddrinfo(candidates);
    if (fd_ < 0) {
      throw TransportError(strf("bind(%s): %s", address_.to_string().c_str(),
                                std::strerror(last_errno)));
    }
    // Report the port the kernel actually assigned (ephemeral binds).
    sockaddr_storage bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      if (bound.ss_family == AF_INET) {
        address_.port = ntohs(
            reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
      } else if (bound.ss_family == AF_INET6) {
        address_.port = ntohs(
            reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
      }
    }
  }
  if (::listen(fd_, 64) != 0) {
    const int err = errno;
    close();
    throw TransportError(strf("listen(%s): %s", address_.to_string().c_str(),
                              std::strerror(err)));
  }
  set_nonblocking(fd_, true);
}

StreamEndpoint Listener::accept() {
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return StreamEndpoint{};
  set_cloexec(fd);
  set_nonblocking(fd, true);
  if (address_.kind == EndpointKind::kTcp) set_nodelay(fd);
  return StreamEndpoint{fd};
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (address_.kind == EndpointKind::kUnix) {
      ::unlink(address_.path.c_str());
    }
  }
}

}  // namespace causeway::transport
