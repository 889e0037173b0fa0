// Closed-loop TCP load generator: one thread drives a few loopback
// connections to an in-process `bfpp serve` event loop. Each connection
// has at most one request outstanding and sends its next request only
// after the previous response has fully arrived - the shape of an
// experiment driver that waits for every reply.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

class LoadGen {
 public:
  // Connects `connections` sockets to 127.0.0.1:port. Throws
  // std::runtime_error when a connection cannot be made.
  LoadGen(int port, int connections);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  struct Completion {
    size_t id = 0;          // what next() returned for this request
    int64_t latency_ns = 0; // first byte sent to last byte received
    const std::string* response = nullptr;  // every response line
  };

  // Supplies the next request: sets `id` and `line` and returns true, or
  // returns false to leave the connection idle.
  using Next = std::function<bool(size_t& id, std::string& line)>;
  using Done = std::function<void(const Completion&)>;

  // Keeps every connection busy until `deadline_ns` (steady clock);
  // requests in flight at the deadline still complete. Returns once all
  // connections are idle. Throws std::runtime_error on a transport
  // failure (peer close, socket error, malformed framing).
  void run(int64_t deadline_ns, const Next& next, const Done& done);

  // One blocking request/response on the first connection; returns the
  // response and its round-trip time.
  std::string roundtrip(const std::string& line, int64_t& latency_ns);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::string in;
    size_t scanned = 0;   // bytes of `in` already searched for newlines
    size_t lines = 0;     // complete lines received
    size_t want = 0;      // lines the response has (0 = head not seen)
    size_t id = 0;
    int64_t start_ns = 0;
    bool busy = false;
  };

  void close_all();
  void start(Conn& c, size_t id, std::string line);
  bool flush(Conn& c);    // true once the request is fully written
  bool receive(Conn& c);  // true once the response is complete

  std::vector<Conn> conns_;
};

}  // namespace perfbench
