#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("loadgen: " + what + ": " + std::strerror(errno));
}

// Lines a response occupies, from its first line: 1 plus the payload
// line count a multi-row response announces in its "lines" field.
size_t response_lines(const std::string& head) {
  const size_t at = head.find("\"lines\":");
  if (at == std::string::npos) return 1;
  return 1 + std::strtoul(head.c_str() + at + 8, nullptr, 10);
}

}  // namespace

LoadGen::LoadGen(int port, int connections) {
  conns_.resize(static_cast<size_t>(connections));
  try {
    for (Conn& c : conns_) {
      c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (c.fd < 0) fail("socket");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0) {
        fail("connect");
      }
      const int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
  } catch (...) {
    close_all();  // the destructor does not run for a throwing constructor
    throw;
  }
}

LoadGen::~LoadGen() { close_all(); }

void LoadGen::close_all() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  }
}

void LoadGen::start(Conn& c, size_t id, std::string line) {
  c.out = std::move(line);
  c.out += '\n';
  c.out_off = 0;
  c.in.clear();
  c.scanned = 0;
  c.lines = 0;
  c.want = 0;
  c.id = id;
  c.busy = true;
  c.start_ns = now_ns();
}

bool LoadGen::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      if (errno == EINTR) continue;
      fail("send");
    }
    c.out_off += static_cast<size_t>(n);
  }
  return true;
}

bool LoadGen::receive(Conn& c) {
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n == 0) {
      errno = ECONNRESET;
      fail("server closed the connection");
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      fail("recv");
    }
    c.in.append(buf, static_cast<size_t>(n));
  }
  for (size_t nl; (nl = c.in.find('\n', c.scanned)) != std::string::npos;) {
    if (c.lines == 0) c.want = response_lines(c.in.substr(0, nl));
    ++c.lines;
    c.scanned = nl + 1;
  }
  if (c.want == 0 || c.lines < c.want) return false;
  if (c.scanned != c.in.size()) {
    errno = EPROTO;
    fail("bytes after the end of a response");
  }
  return true;
}

void LoadGen::run(int64_t deadline_ns, const Next& next, const Done& done) {
  size_t id = 0;
  std::string line;
  for (Conn& c : conns_) {
    if (now_ns() < deadline_ns && next(id, line)) {
      start(c, id, std::move(line));
      flush(c);
    }
  }
  std::vector<pollfd> fds(conns_.size());
  while (true) {
    size_t busy = 0;
    for (size_t i = 0; i < conns_.size(); ++i) {
      const Conn& c = conns_[i];
      fds[i].fd = c.busy ? c.fd : -1;
      fds[i].events = static_cast<short>(
          POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
      busy += c.busy ? 1 : 0;
    }
    if (busy == 0) return;
    if (::poll(fds.data(), fds.size(), 1000) < 0) {
      if (errno == EINTR) continue;
      fail("poll");
    }
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (!c.busy || fds[i].revents == 0) continue;
      if ((fds[i].revents & POLLOUT) != 0) flush(c);
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      if (!receive(c)) continue;
      const int64_t end = now_ns();
      c.busy = false;
      done(Completion{c.id, end - c.start_ns, &c.in});
      if (end < deadline_ns && next(id, line)) {
        start(c, id, std::move(line));
        flush(c);
      }
    }
  }
}

std::string LoadGen::roundtrip(const std::string& line, int64_t& latency_ns) {
  Conn& c = conns_.front();
  start(c, 0, line);
  while (!flush(c)) {
    pollfd p{c.fd, POLLOUT, 0};
    ::poll(&p, 1, 1000);
  }
  while (!receive(c)) {
    pollfd p{c.fd, POLLIN, 0};
    ::poll(&p, 1, 1000);
  }
  latency_ns = now_ns() - c.start_ns;
  c.busy = false;
  return c.in;
}

}  // namespace perfbench
