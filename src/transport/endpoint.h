// StreamEndpoint / Listener: the transport-agnostic byte-stream seam the
// collection fabric is layered on.
//
// Everything above this file -- framing (protocol.h), the publisher's
// queue/backoff/pump loop (uplink.h), the daemon's poll demux
// (subscriber.h), the relay tier (relay_sink.h) -- deals in connected
// stream fds and never learns what kind of socket produced them.  This is
// the only translation unit in the transport that names a socket family.
//
// Address syntax, parsed at *configure* time so misconfiguration is a
// clear error before any thread starts:
//
//   unix:/path/to/socket   Unix-domain SOCK_STREAM
//   /path/to/socket        bare path: same (back-compat spelling)
//   tcp:host:port          TCP; host resolved via getaddrinfo, port 0
//                          binds ephemeral (Listener::address() reports
//                          the resolved port)
//
// A Unix path longer than sockaddr_un::sun_path is rejected here with the
// offending length in the message -- never silently truncated into a bind
// or connect on the wrong path.
#pragma once

#include <cstdint>
#include <string>

#include "transport/protocol.h"

namespace causeway::transport {

enum class EndpointKind : std::uint8_t { kUnix = 0, kTcp = 1 };

// "unix" / "tcp" -- stable tokens for logs and stats lines.
const char* endpoint_kind_name(EndpointKind kind);

struct EndpointAddress {
  EndpointKind kind{EndpointKind::kUnix};
  std::string path;       // unix only
  std::string host;       // tcp only
  std::uint16_t port{0};  // tcp only

  // Round-trips through parse_endpoint (always with the explicit prefix).
  std::string to_string() const;
};

// Parses and validates one address spec (syntax above).  Throws
// TransportError on an unknown scheme, an oversized Unix path, a
// malformed host:port, or a port out of range.
EndpointAddress parse_endpoint(const std::string& spec);

// A connected stream socket.  Move-only; closes on destruction.  Freshly
// connected/accepted endpoints are non-blocking (the transport's pump and
// poll loops require it); raw test clients and benches flip them back with
// set_blocking(true).
class StreamEndpoint {
 public:
  StreamEndpoint() = default;
  explicit StreamEndpoint(int fd) : fd_(fd) {}
  ~StreamEndpoint() { close(); }
  StreamEndpoint(StreamEndpoint&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }
  StreamEndpoint& operator=(StreamEndpoint&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  StreamEndpoint(const StreamEndpoint&) = delete;
  StreamEndpoint& operator=(const StreamEndpoint&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  // Detaches the fd from RAII (callers that hand it to a poll loop).
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void set_blocking(bool blocking);
  void close();
  // Graceful close for a writer that is done: half-closes the write side
  // (the peer reads EOF after every byte already sent), reads and discards
  // until the peer closes its end or `timeout_ms` passes, then closes.
  // A plain close() with unread bytes in the receive queue -- say, a
  // control frame the writer never read -- makes TCP send RST, and the
  // peer's kernel then discards whatever it had not yet read of this
  // stream.  Returns true when the peer's EOF arrived in time.
  bool close_gracefully(std::uint64_t timeout_ms);

 private:
  int fd_{-1};
};

// One connect attempt, bounded by `timeout_ms` (a TCP connect to a dead
// host would otherwise sit in SYN retransmit for minutes; Unix connects
// resolve immediately either way).  Returns an invalid endpoint on
// failure with errno preserved -- callers own the retry/backoff policy.
// `sndbuf_bytes` > 0 caps the kernel send buffer (SO_SNDBUF, set before
// connecting): back-pressure then surfaces to the caller's own queue --
// and its drop ledger -- instead of hiding megabytes in autotuned kernel
// buffers.  0 keeps the kernel default.
StreamEndpoint connect_endpoint(const EndpointAddress& address,
                                std::uint64_t timeout_ms,
                                std::size_t sndbuf_bytes = 0);

// A bound, listening, non-blocking socket.  Unix listeners replace any
// pre-existing socket file at bind and unlink it on close; TCP listeners
// bind with SO_REUSEADDR and report the kernel-resolved port.
class Listener {
 public:
  Listener() = default;
  // Binds and listens, or throws TransportError with the address in the
  // message.
  explicit Listener(const EndpointAddress& address);
  ~Listener() { close(); }
  Listener(Listener&& other) noexcept
      : fd_(other.fd_), address_(std::move(other.address_)) {
    other.fd_ = -1;
  }
  Listener& operator=(Listener&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      address_ = std::move(other.address_);
      other.fd_ = -1;
    }
    return *this;
  }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  EndpointKind kind() const { return address_.kind; }
  // The bound address, with an ephemeral TCP port resolved to its real
  // value.
  const EndpointAddress& address() const { return address_; }

  // Accepts one pending connection (non-blocking, CLOEXEC, TCP_NODELAY on
  // TCP).  Invalid result when nothing is pending.
  StreamEndpoint accept();
  void close();

 private:
  int fd_{-1};
  EndpointAddress address_;
};

}  // namespace causeway::transport
