// Wire layer of the lpmd job server: length-prefixed flat-JSON frames over
// stream sockets — Unix-domain or TCP, selected by an Endpoint string
// ("unix:<path>", "tcp:<host>:<port>", or a bare path meaning unix).
//
// A frame is a 4-byte big-endian payload length followed by that many bytes
// of UTF-8 text holding exactly one flat JSON object, written by
// util::JsonWriter and read by util::FlatJson (no nesting needed anywhere
// in the protocol).
// Frames are capped at kMaxFramePayload so a misbehaving peer can never
// make the server buffer unboundedly; an oversized length prefix is a
// protocol error detected before any allocation, not an allocation.
//
// The byte stream is transport-agnostic: the same framing, deadlines, and
// payload cap apply on both transports. TCP listeners set SO_REUSEADDR (a
// restarted lpmd must rebind its port immediately) and connections set
// TCP_NODELAY (frames are small and latency-sensitive; Nagle would batch
// acks behind results). docs/PROTOCOL.md is the authoritative wire spec,
// locked to this header by tests/srv/protocol_doc_test.
//
// All socket I/O is non-blocking + poll with an overall per-frame deadline,
// so a slow or stalled peer costs the calling thread at most `timeout_ms`
// before it reports kTimeout and the connection can be reaped. EOF and
// ECONNRESET surface as kClosed; genuinely unexpected errno values throw
// util::IoError. Writes use MSG_NOSIGNAL: a vanished peer is a return
// value, never a SIGPIPE.
//
// Thread safety: Fd is a move-only owner; frame functions are free
// functions safe on distinct fds concurrently. Two threads writing one fd
// must serialize externally (srv::Connection holds the mutex).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/flat_json.hpp"

namespace lpm::srv {

/// Protocol revision spoken by this build; `hello` frames carry it. A
/// server refuses a hello announcing a *newer* proto with a typed
/// `unsupported_proto` error (older or absent means 1 and is accepted), so
/// a client always learns the mismatch instead of tripping over missing
/// fields mid-stream.
inline constexpr int kProtocolVersion = 1;

/// Upper bound on one frame's payload (1 MiB). Large enough for any result
/// stream frame, small enough that a hostile length prefix is harmless.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

/// Move-only owner of a file descriptor (socket). close() on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd();
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int get() const { return fd_; }
  /// Gives up ownership without closing.
  int release();
  /// Half-closes both directions so a thread blocked in poll() on this fd
  /// wakes up; the descriptor itself stays open until destruction (safe to
  /// call while another thread is polling).
  void shutdown_both() const;

 private:
  int fd_ = -1;
};

/// Outcome of one frame read/write (never throws for peer-caused trouble).
enum class IoStatus {
  kOk,
  kTimeout,  ///< deadline expired before the frame completed
  kClosed,   ///< orderly EOF or connection reset by peer
};

[[nodiscard]] const char* to_string(IoStatus status);

/// A parsed transport address. Three accepted spellings:
///   "unix:<path>"       Unix-domain stream socket at <path>
///   "tcp:<host>:<port>" TCP (IPv4/IPv6 via getaddrinfo; numeric port)
///   "<path>"            bare string without a scheme: unix path (the
///                       pre-TCP spelling every existing script uses)
/// A TCP listen port of 0 asks the kernel for an ephemeral port; read the
/// real one back with bound_tcp_port() (Server does this for you).
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;         ///< unix only
  std::string host;         ///< tcp only
  std::uint16_t port = 0;   ///< tcp only; 0 = ephemeral (listen only)

  /// Parses one of the spellings above. Throws util::ConfigError on a
  /// malformed tcp host:port.
  [[nodiscard]] static Endpoint parse(const std::string& text);
  /// Canonical form ("unix:<path>" or "tcp:<host>:<port>").
  [[nodiscard]] std::string to_string() const;
};

/// Binds and listens on `endpoint`. For unix, an existing socket file is
/// unlinked first; for tcp, SO_REUSEADDR is set so a restarted server can
/// rebind immediately. Throws util::IoError on failure.
[[nodiscard]] Fd listen_endpoint(const Endpoint& endpoint);

/// Connects to `endpoint`. Throws util::IoError when absent or refusing.
[[nodiscard]] Fd connect_endpoint(const Endpoint& endpoint);

/// Binds and listens on a Unix-domain socket at `path` (an existing socket
/// file is unlinked first). Throws util::IoError on failure.
[[nodiscard]] Fd listen_unix(const std::string& path);

/// Connects to the Unix-domain socket at `path`. Throws util::IoError when
/// the socket is absent or refuses.
[[nodiscard]] Fd connect_unix(const std::string& path);

/// The port a TCP listener actually bound — resolves an ephemeral ":0"
/// request. Throws util::IoError when `listener` is not a bound socket.
[[nodiscard]] std::uint16_t bound_tcp_port(const Fd& listener);

/// Waits up to `timeout_ms` for a pending connection and accepts it (any
/// transport). Returns an empty optional on timeout. Throws util::IoError
/// on listener breakage.
[[nodiscard]] std::optional<Fd> accept_socket(const Fd& listener,
                                              int timeout_ms);

/// Sends one frame (length prefix + payload) within `timeout_ms`. Payloads
/// over kMaxFramePayload throw util::ConfigError (caller bug, not peer).
[[nodiscard]] IoStatus write_frame(const Fd& fd, const std::string& payload,
                                   int timeout_ms);

/// Receives one frame within `timeout_ms` into `payload`. A peer
/// announcing more than kMaxFramePayload bytes is treated as kClosed after
/// the connection is shut down (protocol violation).
[[nodiscard]] IoStatus read_frame(const Fd& fd, std::string& payload,
                                  int timeout_ms);

/// Frames are built with the repo's one JSON writer. Every payload is one
/// flat object, so the protocol uses str/num/num_u64/boolean/raw_body only.
using util::JsonWriter;

// --- Protocol vocabulary -------------------------------------------------
// The authoritative op and error-code lists. Server::handle_frame
// dispatches over exactly these names, and tests/srv/protocol_doc_test
// locks them to docs/PROTOCOL.md in both directions: an op added to the code without a doc section — or a doc
// section for an op the code dropped — fails the test.

/// Ops a client may send (request frames).
[[nodiscard]] const std::vector<std::string>& request_ops();
/// Ops a server may send back (response and stream frames).
[[nodiscard]] const std::vector<std::string>& response_ops();
/// Every value the `code` field of an `error` frame can carry: the typed
/// job-failure codes (util::ErrorCode names) plus the protocol-level ones.
[[nodiscard]] const std::vector<std::string>& protocol_error_codes();

}  // namespace lpm::srv
