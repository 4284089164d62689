#include "transport/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace sim2rec {
namespace transport {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Remaining budget of a deadline started `start_ms` ago with
/// `timeout_ms` total; clamped to >= 0 for poll().
int RemainingMs(int64_t deadline_ms) {
  const int64_t left = deadline_ms - NowMs();
  if (left <= 0) return 0;
  return static_cast<int>(std::min<int64_t>(left, 1 << 30));
}

/// poll() one fd for `events`, EINTR-safe. Returns >0 ready, 0 timeout,
/// <0 error.
int PollOne(int fd, short events, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc >= 0) return rc;
    if (errno != EINTR) return -1;
  }
}

bool SetNoDelay(int fd) {
  int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

/// False when `host` is not a numeric IPv4 address or `port` lies
/// outside [min_port, 65535]; the cast to the 16-bit field would
/// otherwise wrap an out-of-range port onto some other one.
bool FillAddr(const std::string& host, int port, int min_port,
              struct sockaddr_in* addr) {
  if (port < min_port || port > 65535) return false;
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(port));
  return ::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

}  // namespace

TcpConnection::TcpConnection(int fd) : fd_(fd) {
  if (fd_ >= 0) SetNoDelay(fd_);
}

TcpConnection::~TcpConnection() { Close(); }

TcpConnection::TcpConnection(TcpConnection&& other) noexcept
    : fd_(other.fd_) {
  other.fd_ = -1;
}

TcpConnection& TcpConnection::operator=(TcpConnection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void TcpConnection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpConnection::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

TcpConnection TcpConnection::Connect(const std::string& host, int port,
                                     int timeout_ms) {
  struct sockaddr_in addr;
  if (!FillAddr(host, port, /*min_port=*/1, &addr)) return TcpConnection();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return TcpConnection();

  const int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                           sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return TcpConnection();
  }
  if (rc != 0) {
    // Connection in progress: wait for writability, then check the
    // socket-level error slot.
    if (PollOne(fd, POLLOUT, timeout_ms) <= 0) {
      ::close(fd);
      return TcpConnection();
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      ::close(fd);
      return TcpConnection();
    }
  }
  // Back to blocking; all timeouts from here run through poll().
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) != 0) {
    ::close(fd);
    return TcpConnection();
  }
  return TcpConnection(fd);
}

IoStatus TcpConnection::ReadFull(void* buffer, size_t size,
                                 int timeout_ms) {
  if (fd_ < 0) return IoStatus::kClosed;
  char* out = static_cast<char*>(buffer);
  size_t done = 0;
  const int64_t deadline = NowMs() + timeout_ms;
  while (done < size) {
    const int rc = PollOne(fd_, POLLIN, RemainingMs(deadline));
    if (rc < 0) return IoStatus::kError;
    if (rc == 0) return IoStatus::kTimeout;
    const ssize_t n = ::recv(fd_, out + done, size - done, 0);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    if (errno == ECONNRESET) return IoStatus::kClosed;
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

IoStatus TcpConnection::WriteFull(const void* buffer, size_t size,
                                  int timeout_ms) {
  if (fd_ < 0) return IoStatus::kClosed;
  const char* in = static_cast<const char*>(buffer);
  size_t done = 0;
  const int64_t deadline = NowMs() + timeout_ms;
  while (done < size) {
    const int rc = PollOne(fd_, POLLOUT, RemainingMs(deadline));
    if (rc < 0) return IoStatus::kError;
    if (rc == 0) return IoStatus::kTimeout;
    const ssize_t n = ::send(fd_, in + done, size - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 &&
        (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return IoStatus::kClosed;
    }
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

IoStatus TcpConnection::ReadSome(void* buffer, size_t max_size,
                                 int timeout_ms, size_t* bytes_read) {
  *bytes_read = 0;
  if (fd_ < 0) return IoStatus::kClosed;
  if (max_size == 0) return IoStatus::kOk;
  const int64_t deadline = NowMs() + timeout_ms;
  for (;;) {
    const int rc = PollOne(fd_, POLLIN, RemainingMs(deadline));
    if (rc < 0) return IoStatus::kError;
    if (rc == 0) return IoStatus::kTimeout;
    const ssize_t n = ::recv(fd_, buffer, max_size, 0);
    if (n > 0) {
      *bytes_read = static_cast<size_t>(n);
      return IoStatus::kOk;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    if (errno == ECONNRESET) return IoStatus::kClosed;
    return IoStatus::kError;
  }
}

IoStatus TcpConnection::WaitReadable(int timeout_ms) {
  if (fd_ < 0) return IoStatus::kClosed;
  const int rc = PollOne(fd_, POLLIN, timeout_ms);
  if (rc < 0) return IoStatus::kError;
  if (rc == 0) return IoStatus::kTimeout;
  return IoStatus::kOk;
}

TcpListener::~TcpListener() { Close(); }

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool TcpListener::Listen(const std::string& host, int port, int backlog) {
  Close();
  struct sockaddr_in addr;
  if (!FillAddr(host, port, /*min_port=*/0, &addr)) return false;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, backlog) != 0) {
    ::close(fd);
    return false;
  }
  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) !=
      0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  port_ = ntohs(bound.sin_port);
  return true;
}

TcpConnection TcpListener::Accept(int timeout_ms, IoStatus* status) {
  if (fd_ < 0) {
    *status = IoStatus::kClosed;
    return TcpConnection();
  }
  const int rc = PollOne(fd_, POLLIN, timeout_ms);
  if (rc < 0) {
    *status = IoStatus::kError;
    return TcpConnection();
  }
  if (rc == 0) {
    *status = IoStatus::kTimeout;
    return TcpConnection();
  }
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    *status = (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
               errno == ECONNABORTED)
                  ? IoStatus::kTimeout
                  : IoStatus::kError;
    return TcpConnection();
  }
  *status = IoStatus::kOk;
  return TcpConnection(fd);
}

}  // namespace transport
}  // namespace sim2rec
