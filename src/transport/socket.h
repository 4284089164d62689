#ifndef SIM2REC_TRANSPORT_SOCKET_H_
#define SIM2REC_TRANSPORT_SOCKET_H_

#include <cstddef>
#include <string>

namespace sim2rec {
namespace transport {

/// Thin RAII wrappers over blocking POSIX TCP sockets — just enough
/// surface for the serving transport: deadline-bounded full reads and
/// writes (poll + recv/send loops, EINTR-safe, SIGPIPE suppressed) and
/// a listener whose Accept ticks so a server can notice shutdown.
/// Nothing here knows about frames; framing lives in transport/wire.

enum class IoStatus {
  kOk = 0,
  kTimeout,  // deadline elapsed before the full transfer completed
  kClosed,   // orderly close / reset by the peer mid-transfer
  kError,    // anything else errno-shaped
};

/// One connected TCP stream. Move-only; the destructor closes the fd.
/// TCP_NODELAY is set on every connection (a request/reply protocol
/// with small frames must not wait out Nagle's algorithm).
class TcpConnection {
 public:
  TcpConnection() = default;
  explicit TcpConnection(int fd);
  ~TcpConnection();

  TcpConnection(TcpConnection&& other) noexcept;
  TcpConnection& operator=(TcpConnection&& other) noexcept;
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Connects to a numeric IPv4 address ("127.0.0.1") within
  /// `timeout_ms`. Returns an invalid connection on failure, and for a
  /// port outside [1, 65535].
  static TcpConnection Connect(const std::string& host, int port,
                               int timeout_ms);

  bool valid() const { return fd_ >= 0; }
  void Close();

  /// shutdown(2) both directions without closing the fd: blocked reads
  /// and writes (on this or any thread) return kClosed promptly, and
  /// because fd_ itself is untouched this is safe to call from another
  /// thread racing an in-flight ReadFull — the cross-thread wakeup a
  /// multiplexing client needs. Close() still releases the fd.
  void ShutdownBoth();

  /// Blocks until exactly `size` bytes are read or the deadline
  /// (`timeout_ms` from the call) passes. Partial data on failure is
  /// discarded by callers — a frame either arrives whole or not at all.
  IoStatus ReadFull(void* buffer, size_t size, int timeout_ms);

  /// Blocks until exactly `size` bytes are written or the deadline
  /// passes.
  IoStatus WriteFull(const void* buffer, size_t size, int timeout_ms);

  /// Reads whatever is available (at most `max_size` bytes) within the
  /// deadline — one poll + one recv. For delimiter-terminated protocols
  /// (the HTTP metrics endpoint) where the total length is unknown up
  /// front. kOk stores >= 1 byte into *bytes_read; kClosed is a clean
  /// EOF with zero bytes.
  IoStatus ReadSome(void* buffer, size_t max_size, int timeout_ms,
                    size_t* bytes_read);

  /// Waits up to `timeout_ms` for the stream to become readable —
  /// the idle tick a server loop uses between requests so it can check
  /// its stop flag. kOk means bytes (or EOF) are waiting.
  IoStatus WaitReadable(int timeout_ms);

 private:
  int fd_ = -1;
};

/// Listening socket bound to a numeric IPv4 address. Accept ticks on a
/// timeout instead of blocking forever, so an accept loop can poll its
/// stop flag without signals or self-pipes.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds and listens. `port` 0 picks an ephemeral port; the resolved
  /// port is available from port() afterwards. False on failure, and
  /// for a port outside [0, 65535].
  bool Listen(const std::string& host, int port, int backlog);

  /// Waits up to `timeout_ms` for a connection. Status is kOk with a
  /// valid connection, kTimeout with an invalid one, or kError/kClosed
  /// when the listener is broken or Close()d.
  TcpConnection Accept(int timeout_ms, IoStatus* status);

  bool valid() const { return fd_ >= 0; }
  int port() const { return port_; }
  void Close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

}  // namespace transport
}  // namespace sim2rec

#endif  // SIM2REC_TRANSPORT_SOCKET_H_
