#include "srv/wire.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdlib>

#include "util/error.hpp"
#include "util/flat_json.hpp"

namespace lpm::srv {

namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw util::IoError(std::string("fcntl(O_NONBLOCK): ") +
                        std::strerror(errno));
  }
}

/// Remaining milliseconds before `deadline` (>= 0), for poll().
int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left < 0 ? 0 : static_cast<int>(left);
}

/// Polls `fd` for `events` until the deadline. kOk when ready, kTimeout
/// when the deadline passed, kClosed on hangup/error revents.
IoStatus poll_for(int fd, short events, Clock::time_point deadline) {
  for (;;) {
    struct pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int wait = remaining_ms(deadline);
    const int rc = ::poll(&pfd, 1, wait);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw util::IoError(std::string("poll: ") + std::strerror(errno));
    }
    if (rc == 0) return IoStatus::kTimeout;
    if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) return IoStatus::kClosed;
    // POLLHUP with readable data still delivers the data first; let the
    // read observe EOF itself.
    return IoStatus::kOk;
  }
}

IoStatus write_all(const Fd& fd, const char* data, std::size_t len,
                   Clock::time_point deadline) {
  std::size_t sent = 0;
  while (sent < len) {
    const IoStatus ready = poll_for(fd.get(), POLLOUT, deadline);
    if (ready != IoStatus::kOk) return ready;
    const ssize_t n =
        ::send(fd.get(), data + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return IoStatus::kClosed;
    }
    throw util::IoError(std::string("send: ") + std::strerror(errno));
  }
  return IoStatus::kOk;
}

IoStatus read_all(const Fd& fd, char* data, std::size_t len,
                  Clock::time_point deadline) {
  std::size_t got = 0;
  while (got < len) {
    const IoStatus ready = poll_for(fd.get(), POLLIN, deadline);
    if (ready != IoStatus::kOk) return ready;
    const ssize_t n = ::recv(fd.get(), data + got, len - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
    if (errno == ECONNRESET) return IoStatus::kClosed;
    throw util::IoError(std::string("recv: ") + std::strerror(errno));
  }
  return IoStatus::kOk;
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw util::ConfigError("socket path too long (" +
                            std::to_string(path.size()) + " bytes): " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

void set_nodelay(int fd) {
  // Frames are small and request/response latency matters more than
  // packing efficiency; harmless no-op on non-TCP sockets.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// getaddrinfo wrapper owning the result list.
struct AddrList {
  addrinfo* head = nullptr;
  AddrList() = default;
  AddrList(AddrList&& other) noexcept : head(other.head) {
    other.head = nullptr;
  }
  AddrList(const AddrList&) = delete;
  AddrList& operator=(const AddrList&) = delete;
  AddrList& operator=(AddrList&&) = delete;
  ~AddrList() {
    if (head != nullptr) ::freeaddrinfo(head);
  }
};

AddrList resolve_tcp(const std::string& host, std::uint16_t port,
                     bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
  AddrList list;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               service.c_str(), &hints, &list.head);
  if (rc != 0) {
    throw util::IoError("resolve '" + host + ":" + service +
                        "': " + ::gai_strerror(rc));
  }
  return list;
}

}  // namespace

Fd::~Fd() {
  if (fd_ >= 0) ::close(fd_);
}

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.release();
  }
  return *this;
}

int Fd::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Fd::shutdown_both() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

const char* to_string(IoStatus status) {
  switch (status) {
    case IoStatus::kOk: return "ok";
    case IoStatus::kTimeout: return "timeout";
    case IoStatus::kClosed: return "closed";
  }
  return "?";
}

Endpoint Endpoint::parse(const std::string& text) {
  Endpoint ep;
  if (text.rfind("unix:", 0) == 0) {
    ep.kind = Kind::kUnix;
    ep.path = text.substr(5);
    if (ep.path.empty()) throw util::ConfigError("endpoint 'unix:' lacks a path");
    return ep;
  }
  if (text.rfind("tcp:", 0) == 0) {
    ep.kind = Kind::kTcp;
    const std::string rest = text.substr(4);
    // Split at the LAST colon so IPv6 literals ("::1:7070") keep working.
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
      throw util::ConfigError("endpoint '" + text +
                              "' (want tcp:<host>:<port>)");
    }
    ep.host = rest.substr(0, colon);
    const std::string port_str = rest.substr(colon + 1);
    char* end = nullptr;
    const unsigned long port = std::strtoul(port_str.c_str(), &end, 10);
    if (end == port_str.c_str() || *end != '\0' || port > 65535) {
      throw util::ConfigError("endpoint '" + text + "': bad port '" +
                              port_str + "'");
    }
    ep.port = static_cast<std::uint16_t>(port);
    return ep;
  }
  // No scheme: the historical unix-path spelling.
  if (text.empty()) throw util::ConfigError("endpoint is empty");
  ep.kind = Kind::kUnix;
  ep.path = text;
  return ep;
}

std::string Endpoint::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Fd listen_endpoint(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    return listen_unix(endpoint.path);
  }
  const AddrList list = resolve_tcp(endpoint.host, endpoint.port,
                                    /*passive=*/true);
  std::string last_error = "no usable address";
  for (const addrinfo* ai = list.head; ai != nullptr; ai = ai->ai_next) {
    Fd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.valid()) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd.get(), ai->ai_addr, ai->ai_addrlen) < 0) {
      last_error = std::string("bind: ") + std::strerror(errno);
      continue;
    }
    if (::listen(fd.get(), 64) < 0) {
      last_error = std::string("listen: ") + std::strerror(errno);
      continue;
    }
    set_nonblocking(fd.get());
    return fd;
  }
  throw util::IoError("listen '" + endpoint.to_string() + "': " + last_error);
}

Fd connect_endpoint(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    return connect_unix(endpoint.path);
  }
  const AddrList list = resolve_tcp(endpoint.host, endpoint.port,
                                    /*passive=*/false);
  std::string last_error = "no usable address";
  for (const addrinfo* ai = list.head; ai != nullptr; ai = ai->ai_next) {
    Fd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.valid()) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    if (::connect(fd.get(), ai->ai_addr, ai->ai_addrlen) < 0) {
      last_error = std::string("connect: ") + std::strerror(errno);
      continue;
    }
    set_nodelay(fd.get());
    set_nonblocking(fd.get());
    return fd;
  }
  throw util::IoError("connect '" + endpoint.to_string() + "': " + last_error);
}

std::uint16_t bound_tcp_port(const Fd& listener) {
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&addr),
                    &len) < 0) {
    throw util::IoError(std::string("getsockname: ") + std::strerror(errno));
  }
  if (addr.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<const sockaddr_in*>(&addr)->sin_port);
  }
  if (addr.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<const sockaddr_in6*>(&addr)->sin6_port);
  }
  throw util::IoError("bound_tcp_port: listener is not a TCP socket");
}

Fd listen_unix(const std::string& path) {
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    throw util::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const sockaddr_un addr = make_addr(path);
  ::unlink(path.c_str());  // a stale socket file would make bind fail
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    throw util::IoError("bind '" + path + "': " + std::strerror(errno));
  }
  if (::listen(fd.get(), 64) < 0) {
    throw util::IoError("listen '" + path + "': " + std::strerror(errno));
  }
  set_nonblocking(fd.get());
  return fd;
}

Fd connect_unix(const std::string& path) {
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    throw util::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const sockaddr_un addr = make_addr(path);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    throw util::IoError("connect '" + path + "': " + std::strerror(errno));
  }
  set_nonblocking(fd.get());
  return fd;
}

std::optional<Fd> accept_socket(const Fd& listener, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const IoStatus ready = poll_for(listener.get(), POLLIN, deadline);
    if (ready == IoStatus::kTimeout) return std::nullopt;
    if (ready == IoStatus::kClosed) {
      throw util::IoError("accept: listener socket closed");
    }
    const int client = ::accept(listener.get(), nullptr, nullptr);
    if (client >= 0) {
      Fd fd(client);
      set_nodelay(fd.get());
      set_nonblocking(fd.get());
      return fd;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      // Raced another accept or the peer gave up; poll again. A shut-down
      // listener polls POLLHUP (which poll_for reports as ready) yet accepts
      // EAGAIN forever, so the deadline — not readiness — must end the loop.
      if (Clock::now() >= deadline) return std::nullopt;
      continue;
    }
    throw util::IoError(std::string("accept: ") + std::strerror(errno));
  }
}

IoStatus write_frame(const Fd& fd, const std::string& payload,
                     int timeout_ms) {
  util::require(payload.size() <= kMaxFramePayload,
                "write_frame: payload exceeds kMaxFramePayload");
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  char prefix[4] = {static_cast<char>((len >> 24) & 0xff),
                    static_cast<char>((len >> 16) & 0xff),
                    static_cast<char>((len >> 8) & 0xff),
                    static_cast<char>(len & 0xff)};
  // Prefix and payload go as two sends on one deadline; interleaving with
  // another writer is prevented by the caller's per-connection mutex.
  const IoStatus head = write_all(fd, prefix, sizeof(prefix), deadline);
  if (head != IoStatus::kOk) return head;
  return write_all(fd, payload.data(), payload.size(), deadline);
}

IoStatus read_frame(const Fd& fd, std::string& payload, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  char prefix[4] = {};
  const IoStatus head = read_all(fd, prefix, sizeof(prefix), deadline);
  if (head != IoStatus::kOk) return head;
  const std::uint32_t len =
      (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[0])) << 24) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[1])) << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[2])) << 8) |
      static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[3]));
  if (len > kMaxFramePayload) {
    // Protocol violation: there is no way to resynchronize a length-framed
    // stream after a bogus prefix, so the connection is done.
    fd.shutdown_both();
    return IoStatus::kClosed;
  }
  payload.resize(len);
  if (len == 0) return IoStatus::kOk;
  return read_all(fd, payload.data(), len, deadline);
}

void JsonWriter::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += util::json_escape(k);
  body_ += "\":";
}

JsonWriter& JsonWriter::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += '"';
  body_ += util::json_escape(value);
  body_ += '"';
  return *this;
}

JsonWriter& JsonWriter::num(const std::string& k, double value) {
  key(k);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  body_ += buf;
  return *this;
}

JsonWriter& JsonWriter::num_u64(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::boolean(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::raw_body(const std::string& fragment) {
  if (fragment.empty()) return *this;
  if (!body_.empty()) body_ += ',';
  body_ += fragment;
  return *this;
}

std::string JsonWriter::finish() const { return "{" + body_ + "}"; }

const std::vector<std::string>& request_ops() {
  static const std::vector<std::string> ops = {
      "hello", "submit", "attach", "ping", "stats", "shutdown",
  };
  return ops;
}

const std::vector<std::string>& response_ops() {
  static const std::vector<std::string> ops = {
      "hello_ok", "ack", "retry_after", "point",
      "done",     "error", "pong",      "stats",
      "shutdown_ok",
  };
  return ops;
}

const std::vector<std::string>& protocol_error_codes() {
  static const std::vector<std::string> codes = {
      // Typed job failures (util::ErrorCode names as error_code_name spells
      // them) that reach terminal error frames.
      "error", "config", "sim", "io", "timeout", "cancelled",
      // Protocol-level refusals.
      "overload", "unknown_job", "unsupported_proto",
  };
  return codes;
}

}  // namespace lpm::srv
