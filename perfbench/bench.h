// Shared plumbing of the perfbench program: clocks, process counters,
// the span tracer, metric collection and the seeded input generator.
//
// Everything here runs on the benchmark's own thread. The program under
// test (libbfpp) only ever sees the generated request lines, grids and
// configurations; no code in src/ knows it is being benchmarked.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/scenario.h"
#include "common/json.h"
#include "parallel/config.h"

namespace perfbench {

// ---- Clocks and process counters ----

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process-wide resource counters: user+sys CPU of every thread
// (getrusage RUSAGE_SELF), peak RSS, and /proc/self/io wchar (bytes
// passed to write(2)-family syscalls; socket bytes sent with send(2)
// are not counted).
struct Usage {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  int64_t wchar = 0;
};
Usage read_usage();

// ---- Small statistics ----

// Nearest-rank percentile (q in [0, 1]) of unsorted samples; 0 when
// empty.
double percentile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

// 64-bit FNV-1a.
uint64_t fnv1a(std::string_view bytes);

// ---- Seeded randomness (splitmix64: identical on every platform) ----

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  // Uniform in [0, n).
  size_t below(size_t n) { return static_cast<size_t>(next() % n); }
  template <typename Container>
  void shuffle(Container& items) {
    for (size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  uint64_t state_;
};

// ---- Metrics ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  // Adds a metric; metrics print in the order they were set.
  void set(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  [[nodiscard]] const std::vector<Metric>& all() const { return items_; }

 private:
  std::vector<Metric> items_;
};

// ---- Tracing ----

// One timed call: name, [start, end), the enclosing span (-1 = none)
// and the op it belongs to (-1 = none).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t op = -1;
};

// In-memory span recorder. Single-threaded: every span is opened and
// closed on the benchmark thread, strictly nested. Disabled tracers
// record nothing (Scope is then two branches).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  [[nodiscard]] Scope span(const char* name, int64_t op = -1) {
    return Scope(enabled_ ? this : nullptr, name, op);
  }
  // Records an already-finished span under the innermost open one.
  void record(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t op = -1);

  [[nodiscard]] size_t size() const { return spans_.size(); }

  // Self time (duration minus the time covered by direct children) of
  // every closed span named `name`, in microseconds.
  [[nodiscard]] std::vector<double> self_us(std::string_view name) const;

  // Writes one JSON object per span to `path`. Returns false on IO
  // failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

// ---- Generated request inputs ----

// One fully-specified run: model and cluster registry names plus the
// exact parallel configuration.
struct RunSpec {
  std::string model;
  std::string cluster;
  bfpp::parallel::ParallelConfig cfg;
};

// Every configuration autotune enumerates for (model, cluster, method,
// batch) that fits in device memory and passes parallel::validate, and
// that a `run` request naming its fields reproduces exactly.
std::vector<RunSpec> feasible_runs(const std::string& model,
                                   const std::string& cluster,
                                   const std::string& method, int batch);

// The ScenarioBuilder a run or search request's scenario fields describe
// (the fields run_line and search lines carry), mirroring how `bfpp
// serve` maps them.
bfpp::api::ScenarioBuilder builder_from_request(const bfpp::json::Value& root);

// The `run` request line for `spec` (no trailing newline). `backend` and
// `format` are omitted when empty (the server defaults: sim, json).
// `kernel_efficiency` > 0 adds a kernel-model override.
std::string run_line(const RunSpec& spec, const std::string& backend,
                     const std::string& format,
                     double kernel_efficiency = 0.0);

}  // namespace perfbench
