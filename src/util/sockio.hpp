// Blocking TCP socket helpers plus the two wire formats the verification
// service speaks: every failure surfaces as one catchable SockError
// instead of an errno check the caller forgets.
//
// Framed protocol ("PTEJ"): a connection opens with the 4-byte magic,
// then each message in either direction is a little-endian u32 payload
// length followed by that many bytes of JSON.  Oversized or truncated
// frames throw — a half-written frame can never be mistaken for a short
// one.  The HTTP side is a deliberately small HTTP/1.1 subset (request
// line + headers + Content-Length body, one response per connection) —
// just enough for `curl` against /healthz, /metrics and /run.
//
// All writes use MSG_NOSIGNAL so a peer that hangs up mid-response
// yields a SockError, not a process-killing SIGPIPE.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ptecps::util {

class SockError : public std::runtime_error {
 public:
  explicit SockError(const std::string& message) : std::runtime_error(message) {}
};

/// RAII file descriptor with blocking read/write helpers.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close(); }

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();
  /// Half-close the read side: a peer blocked in read() sees EOF, any
  /// response still in flight from us completes — the drain primitive.
  void shutdown_read();
  /// Half-close the write side: the peer reading to EOF sees it now,
  /// while the fd stays owned (no close/reuse race with other threads).
  void shutdown_write();

  /// Write the whole buffer; SockError on any failure (incl. EPIPE).
  void write_all(const void* data, std::size_t len);
  /// One read(2); returns 0 on EOF, throws SockError on error.
  std::size_t read_some(void* buf, std::size_t len);
  /// Exactly `len` bytes; SockError on EOF mid-read.
  void read_exact(void* buf, std::size_t len);

 private:
  int fd_ = -1;
};

/// Bind + listen on host:port (port 0 = ephemeral; bound_port() tells).
/// Throws SockError naming the address on failure.
Socket tcp_listen(const std::string& host, int port, int backlog = 64);
/// The locally bound port of a listening (or connected) socket.
int bound_port(const Socket& socket);
/// Blocking connect; throws SockError naming host:port on failure.
Socket tcp_connect(const std::string& host, int port);

// --- framed protocol -------------------------------------------------------

inline constexpr char kFrameMagic[4] = {'P', 'T', 'E', 'J'};
/// A frame larger than this is a protocol error, not an allocation.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

void write_frame_magic(Socket& socket);
void write_frame(Socket& socket, std::string_view payload);
/// One frame's payload; nullopt on clean EOF at a frame boundary;
/// SockError on truncation or an oversized length.
std::optional<std::string> read_frame(Socket& socket);

// --- HTTP/1.1 shim ---------------------------------------------------------

struct HttpRequest {
  std::string method;        // "GET", "POST", ...
  std::string target;        // path + query, as sent
  std::map<std::string, std::string> headers;  // keys lowercased
  std::string body;
};

/// Parse one request, `prefix` being bytes already consumed from the
/// socket (the protocol sniff).  nullopt on EOF before a full request
/// line; SockError on a malformed request or an oversized header/body.
std::optional<HttpRequest> read_http_request(Socket& socket, std::string prefix);

/// One complete response with Content-Length and Connection: close.
void write_http_response(Socket& socket, int status, std::string_view reason,
                         std::string_view content_type, std::string_view body);

}  // namespace ptecps::util
