#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "api/server.h"
#include "api/sweep.h"
#include "autotune/autotune.h"
#include "common/socket.h"
#include "loadgen.h"
#include "probes.h"

namespace perfbench {

namespace api = bfpp::api;
namespace fs = std::filesystem;

namespace {

constexpr int kConnections = 4;  // serve_warm clients, one per core
constexpr const char* kCluster = "dgx1-v100-ib";
// Ops whose requests feed the ledger's in-process probes.
constexpr size_t kLedgerOps = 256;

double since_s(int64_t start_ns) { return 1e-9 * (now_ns() - start_ns); }

// The shared host switches between a fast and a slow mode about 1.5x
// apart, for a second to minutes at a time, and the share of time in
// each mode differs from run to run. Serve runs therefore cut the timed
// phase into windows of this length and report the interquartile mean
// of the per-window values: it moves smoothly with the share of slow
// windows, where a median or quartile of the windows jumps from one
// mode to the other once that share crosses its quantile. search_sweep
// takes, for every cell, the first quartile over its repeats. CPU per op
// is not filtered: it is the whole timed phase's CPU over its ops, so
// periodic background work always counts.
constexpr double kServeWindowS = 2.0;
constexpr double kQuiet = 0.25;

// Set-ups before the timed phase (the last one builds the server under
// test), and set-ups in every gap between windows (serve) or epochs
// (search_sweep), each on a server of its own, so the set-up samples
// span the run as the windows do. setup_s is their minimum: the host
// runs in a fast and a slow mode about 1.5x apart, and the share of
// samples in each mode varies from run to run, so every quantile but
// the lowest flips between the two modes.
constexpr int kSetupsBefore = 3;
constexpr int kSetupsPerGap = 3;

// The undisturbed end of a set of per-part values.
double quiet_low(const std::vector<double>& v) { return percentile(v, kQuiet); }

// The mean of the middle half of the values (all of them when fewer
// than four).
double interquartile_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 4;
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

// The figures of one window.
struct Window {
  double rate = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
};

// The timed phase of one workload: its windows (serve) and process
// counters summed over the timed parts only, not over the set-up gaps.
// Its memory does not grow with the op count, so peak_rss_mb stays the
// program's.
struct Timed {
  size_t ops = 0;
  std::vector<Window> windows;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int64_t wchar = 0;
  double peak_rss_mb = 0.0;

  // Adds the counters between two readings to the timed totals.
  void count(const Usage& before, const Usage& after) {
    cpu_s += after.cpu_s - before.cpu_s;
    wchar += after.wchar - before.wchar;
  }
  [[nodiscard]] double cpu_ms_per_op() const {
    return 1e3 * cpu_s / static_cast<double>(ops);
  }
};

struct EndToEnd {
  double throughput_ops_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
};

// Interquartile means of the per-window values (serve workloads).
EndToEnd from_windows(const Timed& t) {
  if (t.windows.empty()) throw std::runtime_error("no request completed");
  std::vector<double> rate, p50, p90;
  for (const Window& w : t.windows) {
    rate.push_back(w.rate);
    p50.push_back(w.p50_ms);
    p90.push_back(w.p90_ms);
  }
  std::printf("# windows (ops/s, p50 ms):");
  for (const Window& w : t.windows) std::printf(" %.0f/%.3g", w.rate, w.p50_ms);
  std::printf("\n");
  const size_t per_window = t.ops / t.windows.size();
  std::printf("# %zu ops in %.3f s: %zu windows of ~%zu ops, ~%zu beyond "
              "each window's p90; rates and latencies are interquartile "
              "means over windows, CPU is over all of them\n",
              t.ops, t.wall_s, t.windows.size(), per_window, per_window / 10);
  return {interquartile_mean(rate), interquartile_mean(p50),
          interquartile_mean(p90)};
}

void set_end_to_end(Metrics& m, const std::vector<double>& setups,
                    const EndToEnd& e, const Timed& t) {
  m.set("setup_s", *std::min_element(setups.begin(), setups.end()), "s");
  m.set("throughput_ops_s", e.throughput_ops_s, "1/s");
  m.set("latency_p50_ms", e.latency_p50_ms, "ms");
  m.set("latency_p90_ms", e.latency_p90_ms, "ms");
  m.set("cpu_ms_per_op", t.cpu_ms_per_op(), "ms");
  m.set("peak_rss_mb", t.peak_rss_mb, "MB");
  std::printf("# setup_s is the minimum of %zu set-ups:",
              setups.size());
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
}

// ---- In-process server ----

// `bfpp serve` on an ephemeral loopback port, its event loop on a
// thread of its own. Shut down and joined on destruction.
class LiveServer {
 public:
  explicit LiveServer(api::ServeOptions options)
      : server(std::move(options)), listener(0), thread_([this] {
          if (server.serve_on(listener) != 0) {
            std::fprintf(stderr, "perfbench: serve loop failed\n");
          }
        }) {}
  ~LiveServer() {
    server.request_shutdown();
    thread_.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  api::Server server;
  bfpp::net::Listener listener;

 private:
  std::thread thread_;
};

// What a serve set-up builds: a live server and its connected clients.
// The clients close first, then the server shuts down.
struct Served {
  std::unique_ptr<LiveServer> live;
  std::unique_ptr<LoadGen> gen;

  void reset() {
    gen.reset();
    live.reset();
  }
};

// Response checking. Every response to a line must equal the first
// response to that line, and after the run the first one must equal what
// Server::handle on a fresh in-process server answers. Responses are
// compared by length plus 64-bit FNV-1a digest, so the check holds 24
// bytes per distinct line whatever the op count.
class ResponseCheck {
 public:
  void observe(size_t id, const std::string& response) {
    if (id >= lines_.size()) lines_.resize(id + 1);
    Line& l = lines_[id];
    ++l.count;
    const uint64_t digest = fnv1a(response) ^ response.size();
    if (response.rfind("{\"ok\":true", 0) != 0) {
      ++l.failed;
      if (errors_++ < 3) std::fprintf(stderr, "perfbench: %s", response.c_str());
    } else if (l.digest == 0) {
      l.digest = digest;
    } else if (digest != l.digest) {
      ++l.failed;
    }
  }

  // Returns the failed-op count after checking against a reference;
  // `line` gives the request line of an id.
  int64_t verify(const std::function<std::string(size_t)>& line) {
    api::Server reference;
    int64_t failed = 0;
    for (size_t id = 0; id < lines_.size(); ++id) {
      Line& l = lines_[id];
      if (l.count == 0) continue;
      const std::string response = reference.handle(line(id));
      if (l.digest != 0 && (fnv1a(response) ^ response.size()) != l.digest) {
        std::fprintf(stderr, "perfbench: response mismatch for %s\n",
                     line(id).c_str());
        l.failed = l.count;
      }
      failed += l.failed;
    }
    return failed;
  }

 private:
  struct Line {
    uint64_t digest = 0;  // of the first ok response; 0 = none yet
    int64_t count = 0;
    int64_t failed = 0;
  };
  std::vector<Line> lines_;
  int errors_ = 0;
};

// Drives the clients closed-loop for `seconds`, in windows of
// kServeWindowS. Every connection is idle between windows, and
// `between` then takes kSetupsPerGap set-up samples; the gaps count
// towards no figure of the timed phase. Trace runs record each op as a span.
Timed drive(LoadGen& gen, const RunConfig& config, Tracer& tracer,
            const LoadGen::Next& next, ResponseCheck& check,
            const std::function<void()>& between) {
  Timed t;
  std::vector<double> window_ms;
  const LoadGen::Done done = [&](const LoadGen::Completion& c) {
    check.observe(c.id, *c.response);
    if (config.trace) {
      const int64_t now = now_ns();
      tracer.record("serve.request", now - c.latency_ns, now,
                    static_cast<int64_t>(t.ops));
    }
    ++t.ops;
    window_ms.push_back(1e-6 * static_cast<double>(c.latency_ns));
  };
  // The last window takes the remainder: never shorter than half a
  // window, unless the whole run is.
  for (double left = config.seconds; left > 0.0;) {
    const double length = left < 1.5 * kServeWindowS ? left : kServeWindowS;
    left -= length;
    window_ms.clear();
    const Usage before = read_usage();
    const int64_t start = now_ns();
    gen.run(start + static_cast<int64_t>(length * 1e9), next, done);
    const double wall = since_s(start);
    t.count(before, read_usage());
    t.wall_s += wall;
    if (!window_ms.empty()) {
      t.windows.push_back({static_cast<double>(window_ms.size()) / wall,
                           percentile(window_ms, 0.5),
                           percentile(window_ms, 0.9)});
    }
    for (int k = 0; k < kSetupsPerGap && left > 0.0; ++k) between();
  }
  t.peak_rss_mb = read_usage().peak_rss_mb;
  return t;
}

// wchar per op. Both the load generator and the server's event loop
// move socket bytes with send(2), which /proc/self/io does not count, so
// wchar is the write(2)-family traffic: cache files plus one wake-pipe
// byte per response.
double bytes_written_per_op(const Timed& t) {
  return static_cast<double>(t.wchar) / static_cast<double>(t.ops);
}

// Two (model, cluster, batch) cells of `runs`, as breadth-first
// searches: the find_best probe of a serve workload. Batches of 32 to 64
// come first - searches of a few hundred milliseconds, not trivial ones.
std::vector<SearchCell> nearby_search_cells(const std::vector<RunSpec>& runs) {
  std::map<std::tuple<bool, int, std::string, std::string>, bool> cells;
  for (const RunSpec& r : runs) {
    const int batch = r.cfg.batch_size();
    cells[{batch < 32 || batch > 64, batch, r.model, r.cluster}] = true;
  }
  std::vector<SearchCell> out;
  for (const auto& [key, unused] : cells) {
    if (out.size() == 2) break;
    out.push_back({std::get<2>(key), std::get<3>(key), "bf", std::get<1>(key)});
  }
  return out;
}

// ---- search_sweep ----

std::vector<SearchCell> sweep_population() {
  std::vector<SearchCell> cells;
  const std::vector<std::pair<std::string, std::vector<int>>> models = {
      {"6.6b", {32, 48, 64, 96, 128}}, {"52b", {8, 16, 24, 32, 48, 64}}};
  for (const auto& [model, batches] : models) {
    for (const char* method : {"bf", "df"}) {
      for (const int batch : batches) {
        cells.push_back({model, kCluster, method, batch});
      }
    }
  }
  // An odd cell count puts the median op inside one cell's group of
  // repeats instead of on the edge between two cells of different cost.
  // Depth-first has no feasible configuration at batch 12.
  cells.push_back({"52b", kCluster, "bf", 12});
  return cells;
}

std::string cell_name(const SearchCell& c) {
  return c.model + " " + c.method + " " + std::to_string(c.batch);
}

api::ScenarioGrid cell_grid(const SearchCell& c) {
  return api::SweepBuilder()
      .models({c.model})
      .clusters({c.cluster})
      .batches({c.batch})
      .methods({c.method})
      .build();
}

api::SweepOptions serial_sweep() {
  api::SweepOptions options;
  options.jobs = 1;
  options.run.threads = 1;
  return options;
}
const api::SweepOptions kSerialSweep = serial_sweep();

std::string digest_of(const api::Report& report) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, fnv1a(report.to_wire()));
  return hex;
}

std::map<std::string, std::string> load_digests(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const size_t cut = line.rfind(' ');
    if (cut != std::string::npos) out[line.substr(0, cut)] = line.substr(cut + 1);
  }
  return out;
}

}  // namespace

void record_search_digests(const std::string& path) {
  std::ofstream out(path);
  out << "# FNV-1a 64 of Report::to_wire() per search_sweep cell:\n"
      << "# model method batch digest\n";
  for (const SearchCell& c : sweep_population()) {
    const auto reports = api::sweep(cell_grid(c), kSerialSweep);
    out << cell_name(c) << " " << digest_of(reports.at(0)) << "\n";
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

Outcome search_sweep(const RunConfig& config, Tracer& tracer) {
  Outcome o;
  const std::vector<SearchCell> cells = sweep_population();
  const auto digests = load_digests(config.digests_path);
  if (digests.size() != cells.size()) {
    throw std::runtime_error("search_sweep: digest file " +
                             config.digests_path + " is missing or partial");
  }

  // Set-up: build every cell's grid, then one warm-up search.
  std::vector<double> setups;
  std::vector<api::ScenarioGrid> grids;
  const auto set_up = [&] {
    const int64_t t0 = now_ns();
    grids.clear();
    for (const SearchCell& c : cells) grids.push_back(cell_grid(c));
    (void)api::sweep(cell_grid({"52b", kCluster, "bf", 8}), kSerialSweep);
    setups.push_back(since_s(t0));
  };
  for (int k = 0; k < kSetupsBefore; ++k) set_up();

  // Timed: whole epochs, each every cell once in a seeded order, until
  // the time is up. Set-up samples run between epochs.
  Rng rng(config.seed);
  Timed t;
  std::vector<size_t> op_cells;
  std::vector<api::Report> last_reports(cells.size());
  std::vector<std::vector<double>> cell_ms(cells.size());
  while (t.wall_s < config.seconds) {
    for (int k = 0; k < kSetupsPerGap && t.ops > 0; ++k) set_up();
    std::vector<size_t> order(cells.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    const Usage before = read_usage();
    const int64_t start = now_ns();
    for (const size_t i : order) {
      const int64_t t0 = now_ns();
      const std::vector<api::Report> reports =
          api::sweep(grids[i], kSerialSweep);
      const int64_t t1 = now_ns();
      cell_ms[i].push_back(1e-6 * static_cast<double>(t1 - t0));
      if (config.trace) {
        tracer.record("sweep.cell", t0, t1,
                      static_cast<int64_t>(op_cells.size()));
      }
      ++t.ops;
      ++o.attempted;
      if (reports.size() != 1 ||
          digest_of(reports[0]) != digests.at(cell_name(cells[i]))) {
        ++o.failed;
        std::fprintf(stderr, "perfbench: digest mismatch for %s\n",
                     cell_name(cells[i]).c_str());
      } else {
        last_reports[i] = reports[0];
      }
      op_cells.push_back(i);
    }
    t.wall_s += since_s(start);
    t.count(before, read_usage());
  }
  t.peak_rss_mb = read_usage().peak_rss_mb;
  // Per-cell quiet quartiles over the repeats: one undisturbed epoch.
  std::vector<double> typical_ms;
  double epoch_ms = 0.0;
  for (size_t i = 0; i < cells.size(); ++i) {
    typical_ms.push_back(quiet_low(cell_ms[i]));
    epoch_ms += typical_ms.back();
  }
  const auto n = static_cast<double>(cells.size());
  std::printf("# cell first quartiles (ms):");
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf(" %s=%.1f", cell_name(cells[i]).c_str(), typical_ms[i]);
  }
  std::printf("\n");
  std::printf("# %zu ops in %.3f s: %zu cells x %zu repeats; rates and "
              "latencies come from each cell's first quartile over its "
              "repeats, p50/p90 over those %zu values; CPU is over all ops\n",
              t.ops, t.wall_s, cells.size(), cell_ms[0].size(),
              cells.size());
  set_end_to_end(o.end_to_end, setups,
                 {1e3 * n / epoch_ms, percentile(typical_ms, 0.5),
                  percentile(typical_ms, 0.9)},
                 t);
  if (!config.trace) return o;

  // Ledger: the op stream as `search` requests to an in-process server,
  // find_best on one epoch of cells, and the epoch's Reports.
  o.layers.set("persist.bytes_written_per_op", bytes_written_per_op(t),
               "B/op");
  std::vector<std::string> keys;
  LedgerInputs in;
  for (const size_t i : op_cells) {
    in.handle_lines.push_back(search_line(cells[i]));
    keys.push_back(line_cache_key(in.handle_lines.back()));
  }
  o.layers.set("report_cache.repeat_share", repeat_share(keys, 0), "ratio");
  for (size_t k = 0; k < cells.size(); ++k) {
    in.search_cells.push_back(cells[op_cells[k]]);
  }
  in.reports = last_reports;
  in.scratch_dir = config.work_dir;
  LiveServer live(api::ServeOptions{});
  in.server = &live.server;
  in.port = live.listener.port();
  run_ledger(in, tracer, o.layers);
  return o;
}

// ---- serve_warm ----

Outcome serve_warm(const RunConfig& config, Tracer& tracer) {
  Outcome o;
  // Inputs: 24 seed-chosen feasible configurations, each as a JSON and a
  // CSV run request. The pool is cut into 24 equal strata by simulated
  // task count and one configuration is drawn from each, so the warm
  // fill simulates about the same amount whatever the seed.
  constexpr size_t kConfigs = 24;
  const auto tasks = [](const RunSpec& r) {
    return r.cfg.n_stages() * r.cfg.n_mb;
  };
  std::vector<RunSpec> pool;
  const std::vector<std::pair<std::string, std::vector<int>>> models = {
      {"6.6b", {32, 64}}, {"52b", {16, 32}}};
  for (const auto& [model, batches] : models) {
    for (const char* method : {"bf", "df"}) {
      for (const int batch : batches) {
        for (RunSpec& r : feasible_runs(model, kCluster, method, batch)) {
          if (tasks(r) <= 256) pool.push_back(r);
        }
      }
    }
  }
  std::stable_sort(pool.begin(), pool.end(),
                   [&](const RunSpec& a, const RunSpec& b) {
                     return tasks(a) < tasks(b);
                   });
  Rng rng(config.seed);
  std::vector<RunSpec> chosen;
  for (size_t k = 0; k < kConfigs; ++k) {
    const size_t lo = k * pool.size() / kConfigs;
    const size_t hi = (k + 1) * pool.size() / kConfigs;
    chosen.push_back(pool[lo + rng.below(hi - lo)]);
  }
  pool = std::move(chosen);
  std::vector<std::string> lines;
  std::vector<RunSpec> line_runs;
  for (const RunSpec& r : pool) {
    for (const char* format : {"json", "csv"}) {
      lines.push_back(run_line(r, "", format));
      line_runs.push_back(r);
    }
  }

  // Set-up: server construction, warm fill (every line answered once,
  // in-process), client connections.
  std::vector<double> setups;
  const auto set_up = [&] {
    const int64_t t0 = now_ns();
    Served s;
    s.live = std::make_unique<LiveServer>(api::ServeOptions{});
    for (const std::string& line : lines) (void)s.live->server.handle(line);
    s.gen = std::make_unique<LoadGen>(s.live->listener.port(), kConnections);
    setups.push_back(since_s(t0));
    return s;
  };
  Served served;
  for (int k = 0; k < kSetupsBefore; ++k) {
    served.reset();
    served = set_up();
  }

  // Timed: clients replay seed-chosen lines.
  ResponseCheck check;
  std::vector<size_t> op_ids;
  const LoadGen::Next next = [&](size_t& id, std::string& line) {
    id = rng.below(lines.size());
    line = lines[id];
    if (config.trace) op_ids.push_back(id);
    return true;
  };
  const Timed t = drive(*served.gen, config, tracer, next, check,
                        [&] { (void)set_up(); });
  o.attempted = static_cast<int64_t>(t.ops);
  o.failed = check.verify([&](size_t id) { return lines[id]; });
  if (config.trace) {
    o.layers.set("persist.bytes_written_per_op", bytes_written_per_op(t),
                 "B/op");
    std::vector<std::string> line_keys;
    for (const std::string& line : lines) line_keys.push_back(line_cache_key(line));
    std::vector<std::string> keys = line_keys;  // the warm fill
    for (const size_t id : op_ids) keys.push_back(line_keys[id]);
    o.layers.set("report_cache.repeat_share", repeat_share(keys, lines.size()),
                 "ratio");

    LedgerInputs in;
    for (size_t i = 0; i < op_ids.size(); ++i) {
      if (i < kLedgerOps) in.handle_lines.push_back(lines[op_ids[i]]);
      in.op_runs.push_back(line_runs[op_ids[i]]);
    }
    for (size_t i = 0; i < lines.size(); i += 2) {
      in.reports.push_back(report_for_line(lines[i]));
    }
    in.search_cells = nearby_search_cells(line_runs);
    in.scratch_dir = config.work_dir;
    in.server = &served.live->server;
    in.port = served.live->listener.port();
    served.gen.reset();
    run_ledger(in, tracer, o.layers);
  }
  set_end_to_end(o.end_to_end, setups, from_windows(t), t);
  return o;
}

// ---- serve_cold_persist ----

namespace {

constexpr size_t kPrimed = 400;     // snapshot entries before the clock
constexpr size_t kCapacity = 512;   // --cache-size: the snapshot fills up
                                    // early and stays at this size
constexpr size_t kBlock = 16;    // stream mix per block of requests:
constexpr size_t kSimPerBlock = 1;     //   sim N_mb-neighbours
constexpr size_t kRepeatPerBlock = 2;  //   repeats of earlier requests
                                       //   (the rest: new analytic runs)
// One closed-loop client: every mutating request then costs exactly one
// snapshot save. With several, requests that finish during another's
// save share the next one, and how many share it depends on thread
// timing, so the work per op changed from run to run.
constexpr int kColdConnections = 1;

// The never-seen request stream, deterministic in the seed alone. Ids
// number the lines in stream order, the primed lines first; each id
// keeps an 8-byte record and its line is rendered on demand, so the
// stream's memory stays small however fast the server answers.
class ColdStream {
 public:
  explicit ColdStream(uint64_t seed) : rng_(seed) {
    std::vector<RunSpec> pool;
    for (const char* model : {"6.6b", "52b"}) {
      const auto batches = std::string(model) == "52b"
                               ? bfpp::autotune::paper_batch_sizes_52b()
                               : bfpp::autotune::paper_batch_sizes_6_6b();
      for (const char* cluster : {"dgx1-v100-ib", "dgx1-v100-eth"}) {
        for (const char* method : {"bf", "df", "nl"}) {
          for (const int batch : batches) {
            if (batch > 256) continue;
            for (RunSpec& r : feasible_runs(model, cluster, method, batch)) {
              pool.push_back(std::move(r));
            }
          }
        }
      }
    }
    // Simulator neighbours: configurations equal but for N_mb (same
    // model, cluster and pipeline layout), small enough to simulate in
    // milliseconds, walked group by group in a seeded group order.
    std::map<std::string, std::vector<RunSpec>> groups;
    for (const RunSpec& r : pool) {
      if (r.cfg.n_stages() * r.cfg.n_mb > 256) continue;
      auto layout = r.cfg;
      layout.n_mb = 0;
      groups[r.model + r.cluster + layout.describe()].push_back(r);
    }
    std::vector<std::vector<RunSpec>> order;
    for (auto& [key, members] : groups) {
      if (members.size() > 1) order.push_back(std::move(members));
    }
    rng_.shuffle(order);
    for (auto& members : order) {
      for (RunSpec& r : members) sim_.push_back(std::move(r));
    }
    rng_.shuffle(pool);
    analytic_ = std::move(pool);
    for (size_t i = 0; i < kPrimed; ++i) push(false);
  }

  // The next request of the stream.
  size_t next() {
    if (slot_ == 0) {
      block_.assign(kBlock, 'a');
      for (size_t i = 0; i < kSimPerBlock; ++i) block_[i] = 's';
      for (size_t i = 0; i < kRepeatPerBlock; ++i) {
        block_[kSimPerBlock + i] = 'r';
      }
      rng_.shuffle(block_);
    }
    const char kind = block_[slot_];
    slot_ = (slot_ + 1) % kBlock;
    if (kind == 'r') return rng_.below(ids_.size());
    return push(kind == 's');
  }

  [[nodiscard]] RunSpec run(size_t id) const {
    const Id& r = ids_[id];
    const auto& walk = r.sim ? sim_ : analytic_;
    return walk[r.n % walk.size()];
  }

  // Past one full walk of a population, a kernel-efficiency override
  // keeps every line new.
  [[nodiscard]] std::string line(size_t id) const {
    const Id& r = ids_[id];
    const size_t cycle = r.n / (r.sim ? sim_ : analytic_).size();
    return run_line(run(id), r.sim ? "" : "analytic", "",
                    cycle == 0 ? 0.0 : 0.64 - 0.001 * static_cast<double>(cycle));
  }

 private:
  struct Id {
    uint32_t n = 0;    // position in its population's walk
    bool sim = false;  // simulator neighbour (else analytic)
  };

  size_t push(bool sim) {
    size_t& n = sim ? sim_next_ : analytic_next_;
    ids_.push_back({static_cast<uint32_t>(n++), sim});
    return ids_.size() - 1;
  }

  Rng rng_;
  std::vector<RunSpec> analytic_;
  std::vector<RunSpec> sim_;
  size_t analytic_next_ = 0;
  size_t sim_next_ = 0;
  std::string block_;
  size_t slot_ = 0;
  std::vector<Id> ids_;
};

}  // namespace

Outcome serve_cold_persist(const RunConfig& config, Tracer& tracer) {
  Outcome o;
  ColdStream stream(config.seed);
  const std::string primed = config.work_dir + "/primed.jsonl";
  const std::string live_file = config.work_dir + "/cache.jsonl";
  {
    api::ServeOptions options;
    options.cache_capacity = kCapacity;
    options.cache_file = primed;
    api::Server priming(options);
    for (size_t i = 0; i < kPrimed; ++i) {
      (void)priming.handle(stream.line(i));
    }
    if (!priming.persist_cache()) {
      throw std::runtime_error("serve_cold_persist: priming save failed");
    }
  }

  // Set-up: server construction on a fresh copy of the primed snapshot
  // (the load), client connections. Set-ups between windows use a file
  // of their own, as the server under test still owns `live_file`.
  std::vector<double> setups;
  const auto set_up = [&](const std::string& file) {
    fs::copy_file(primed, file, fs::copy_options::overwrite_existing);
    api::ServeOptions options;
    options.cache_capacity = kCapacity;
    options.cache_file = file;
    const int64_t t0 = now_ns();
    Served s;
    s.live = std::make_unique<LiveServer>(options);
    s.gen = std::make_unique<LoadGen>(s.live->listener.port(),
                                      kColdConnections);
    setups.push_back(since_s(t0));
    return s;
  };
  Served served;
  for (int k = 0; k < kSetupsBefore; ++k) {
    served.reset();
    served = set_up(live_file);
  }

  ResponseCheck check;
  std::vector<size_t> op_ids;
  const LoadGen::Next next = [&](size_t& id, std::string& line) {
    id = stream.next();
    line = stream.line(id);
    if (config.trace) op_ids.push_back(id);
    return true;
  };
  const std::string sample_file = config.work_dir + "/sample.jsonl";
  const Timed t = drive(*served.gen, config, tracer, next, check,
                        [&] { (void)set_up(sample_file); });
  o.attempted = static_cast<int64_t>(t.ops);
  o.failed = check.verify([&](size_t id) { return stream.line(id); });
  if (config.trace) {
    o.layers.set("persist.bytes_written_per_op", bytes_written_per_op(t),
                 "B/op");
    std::vector<std::string> keys;
    for (size_t i = 0; i < kPrimed; ++i) {
      keys.push_back(line_cache_key(stream.line(i)));
    }
    for (const size_t id : op_ids) {
      keys.push_back(line_cache_key(stream.line(id)));
    }
    o.layers.set("report_cache.repeat_share", repeat_share(keys, kPrimed),
                 "ratio");

    // Ledger: the stream's continuation through handle() on the live
    // server, so the probe sees the same mix of new and repeated cells.
    LedgerInputs in;
    for (size_t i = 0; i < kLedgerOps; ++i) {
      in.handle_lines.push_back(stream.line(stream.next()));
    }
    for (const size_t id : op_ids) in.op_runs.push_back(stream.run(id));
    for (size_t i = 0; i < op_ids.size() && in.reports.size() < 64; ++i) {
      in.reports.push_back(report_for_line(stream.line(op_ids[i])));
    }
    in.search_cells = nearby_search_cells(in.op_runs);
    in.scratch_dir = config.work_dir;
    in.server = &served.live->server;
    in.port = served.live->listener.port();
    served.gen.reset();
    run_ledger(in, tracer, o.layers);
  }
  set_end_to_end(o.end_to_end, setups, from_windows(t), t);
  return o;
}

}  // namespace perfbench
