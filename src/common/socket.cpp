#include "common/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <utility>

#include "common/error.h"
#include "common/strings.h"

namespace bfpp::net {

namespace {

// Strips one trailing '\r' (CRLF clients) and reports whether anything
// is left — the shared "final unterminated line" rule of both
// transports: return it iff non-empty.
bool finish_eof_line(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return !line.empty();
}

}  // namespace

Stream::~Stream() {
  if (fd_ >= 0) ::close(fd_);
}

Stream::Stream(Stream&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buffer_(std::move(other.buffer_)) {}

Stream& Stream::operator=(Stream&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

bool Stream::read_line(std::string& line) {
  while (true) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EOF (or a dead peer): hand back a non-empty unterminated final
    // line, exactly like read_stdio_line.
    line = std::move(buffer_);
    buffer_.clear();
    return finish_eof_line(line);
  }
}

bool Stream::write_all(const std::string& data) {
  size_t written = 0;
  while (written < data.size()) {
    // MSG_NOSIGNAL: a vanished client must surface as a return value,
    // not kill the server with SIGPIPE.
    const ssize_t n = ::send(fd_, data.data() + written, data.size() - written,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

bool Stream::set_send_timeout(int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  return ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) == 0;
}

bool Stream::set_nonblocking() {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) >= 0;
}

IoStatus Stream::fill() {
  bool got_bytes = false;
  // A short burst, not read-until-EAGAIN: one connection must not be
  // able to starve the rest of the event loop with an endless firehose.
  for (int i = 0; i < 4; ++i) {
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      got_bytes = true;
      if (static_cast<size_t>(n) < sizeof(chunk)) break;  // kernel drained
      continue;
    }
    if (n == 0) return IoStatus::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return got_bytes ? IoStatus::kOk : IoStatus::kWouldBlock;
    }
    return IoStatus::kError;
  }
  return got_bytes ? IoStatus::kOk : IoStatus::kWouldBlock;
}

bool Stream::next_line(std::string& line) {
  const size_t newline = buffer_.find('\n');
  if (newline == std::string::npos) return false;
  line = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

bool Stream::take_final_line(std::string& line) {
  line = std::move(buffer_);
  buffer_.clear();
  return finish_eof_line(line);
}

IoStatus Stream::write_some(const std::string& data, size_t& offset) {
  while (offset < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + offset, data.size() - offset,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kWouldBlock;
      return IoStatus::kError;
    }
    offset += static_cast<size_t>(n);
  }
  return IoStatus::kOk;
}

void Stream::shutdown_read() {
  // Errors (ENOTCONN on an already-gone peer, ENOTSOCK on a pipe-backed
  // Stream in tests) are harmless: the goal is only to nudge a blocked
  // reader towards EOF.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

bool read_stdio_line(std::FILE* in, std::string& line) {
  line.clear();
  int c;
  while ((c = std::fgetc(in)) != EOF) {
    if (c == '\n') {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    line += static_cast<char>(c);
  }
  return finish_eof_line(line);
}

Listener::Listener(int port, int backlog) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw ConfigError(str_format("socket: cannot create socket: %s",
                                 errno_string(errno).c_str()));
  }
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd_, std::max(backlog, 16)) < 0 || ::pipe(wake_fds_) < 0) {
    const std::string why = errno_string(errno);
    ::close(fd_);
    fd_ = -1;
    throw ConfigError(str_format("socket: cannot listen on 127.0.0.1:%d: %s",
                                 port, why.c_str()));
  }
  // Non-blocking listener: accept() multiplexes it with the wake pipe
  // through poll(), so a shutdown request can unblock the accept loop.
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  ::fcntl(wake_fds_[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(wake_fds_[1], F_SETFD, FD_CLOEXEC);

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = port;
  }
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

std::optional<Stream> Listener::accept() {
  while (true) {
    if (woken_.load(std::memory_order_acquire)) {
      last_error_ = 0;
      return std::nullopt;
    }
    pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      last_error_ = errno;
      return std::nullopt;
    }
    if ((fds[1].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
      last_error_ = 0;  // woken for shutdown, not an error
      return std::nullopt;
    }
    if ((fds[0].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) {
      // BSD-derived systems let accepted sockets inherit the listener's
      // O_NONBLOCK (Linux does not); sessions need blocking reads, so
      // clear it explicitly either way.
      ::fcntl(client, F_SETFL,
              ::fcntl(client, F_GETFL, 0) & ~O_NONBLOCK);
      return Stream(client);
    }
    // The ready connection can vanish between poll() and accept():
    // EAGAIN and ECONNABORTED are routine, not failures.
    if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
        errno == EWOULDBLOCK) {
      continue;
    }
    last_error_ = errno;
    return std::nullopt;
  }
}

std::optional<Stream> Listener::try_accept() {
  while (true) {
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) {
      // The event loop needs every client socket non-blocking. Linux
      // does not inherit O_NONBLOCK from the listener; set it here so
      // callers never have to remember.
      ::fcntl(client, F_SETFL, ::fcntl(client, F_GETFL, 0) | O_NONBLOCK);
      last_error_ = 0;
      return Stream(client);
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
      last_error_ = 0;  // nothing usable pending right now
      return std::nullopt;
    }
    last_error_ = errno;
    return std::nullopt;
  }
}

void Listener::wake() {
  woken_.store(true, std::memory_order_release);
  const char byte = 'w';
  // A full pipe means a wake byte is already pending; either way every
  // accept() call observes woken_.
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

WakePipe::WakePipe() {
  // errno is read only after pipe() failed: as a check argument its
  // evaluation order against the call would be unspecified.
  if (::pipe(fds_) != 0) {
    throw ConfigError(str_format("socket: cannot create wake pipe: %s",
                                 errno_string(errno).c_str()));
  }
  for (const int fd : fds_) {
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    // Non-blocking on both ends: signal() must never stall a worker on
    // a full pipe, and drain() must never stall the event loop.
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
}

WakePipe::~WakePipe() {
  if (fds_[0] >= 0) ::close(fds_[0]);
  if (fds_[1] >= 0) ::close(fds_[1]);
}

void WakePipe::signal() {
  const char byte = 'w';
  // EAGAIN (pipe full) is success: a pending byte already guarantees
  // the next poll() wakes.
  [[maybe_unused]] const ssize_t n = ::write(fds_[1], &byte, 1);
}

void WakePipe::drain() {
  char sink[64];
  while (::read(fds_[0], sink, sizeof(sink)) > 0) {
  }
}

}  // namespace bfpp::net
