#include "probes.h"

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "api/api.h"
#include "api/engine.h"
#include "api/registry.h"
#include "autotune/autotune.h"
#include "common/error.h"
#include "common/json.h"
#include "loadgen.h"
#include "memmodel/memory.h"
#include "runtime/pipeline_sim.h"
#include "runtime/sim_cache.h"
#include "schedule/schedule.h"
#include "sim/task_graph.h"

namespace perfbench {

namespace api = bfpp::api;
namespace json = bfpp::json;
namespace runtime = bfpp::runtime;

namespace {

// Candidate-layer probes per ledger: enough samples for a steady
// median, few enough that a traced run stays within seconds.
constexpr size_t kMaxCandidates = 256;
constexpr size_t kMaxOpRuns = 64;
constexpr size_t kMaxCrossCellOps = 4096;
constexpr size_t kMaxSocketLines = 128;
constexpr int kRenderReps = 3;
constexpr int kPersistReps = 5;

// The non-scenario request fields that select the cache cell.
struct CellOptions {
  std::optional<bfpp::autotune::Method> method;
  api::RunOptions run;
};

CellOptions cell_options(const json::Value& root) {
  CellOptions out;
  if (const json::Value* v = root.get("method")) {
    out.method = bfpp::autotune::parse_method(v->as_string());
  }
  if (const json::Value* v = root.get("backend")) {
    out.run.backend = api::parse_backend(v->as_string());
  }
  if (const json::Value* v = root.get("kernel")) {
    bfpp::hw::KernelModel kernel;
    if (const json::Value* e = v->get("max_efficiency")) {
      kernel.max_efficiency = e->as_number();
    }
    out.run.kernel = kernel;
  }
  return out;
}

double median_of(const Tracer& tracer, const char* name) {
  return median(tracer.self_us(name));
}

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

// json.parse / scenario.build / server.cache_key / server.handle on
// every line, in order.
void probe_requests(const LedgerInputs& in, Tracer& tracer) {
  for (size_t i = 0; i < in.handle_lines.size(); ++i) {
    const std::string& line = in.handle_lines[i];
    const auto op = static_cast<int64_t>(i);
    auto request = tracer.span("ledger.request", op);
    json::Value root;
    {
      auto s = tracer.span("json.parse", op);
      root = json::parse(line);
    }
    const api::ScenarioBuilder builder = builder_from_request(root);
    const CellOptions options = cell_options(root);
    api::Scenario scenario;
    {
      auto s = tracer.span("scenario.build", op);
      scenario = builder.build();
    }
    {
      auto s = tracer.span("server.cache_key", op);
      (void)api::cache_key(scenario, options.method, options.run);
    }
    {
      auto s = tracer.span("server.handle", op);
      (void)in.server->handle(line);
    }
  }
}

// The same (now cached) lines over TCP and in-process, alternately, so
// drift cancels: the difference of the medians is the transport's
// share of a request.
double probe_socket(const LedgerInputs& in, Tracer& tracer) {
  std::vector<std::string> lines;
  std::unordered_set<std::string> seen;
  for (const std::string& line : in.handle_lines) {
    if (lines.size() < kMaxSocketLines && seen.insert(line).second) {
      lines.push_back(line);
    }
  }
  LoadGen client(in.port, 1);
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < lines.size(); ++i) {
      const auto op = static_cast<int64_t>(i);
      int64_t latency_ns = 0;
      {
        auto s = tracer.span("socket.roundtrip", op);
        (void)client.roundtrip(lines[i], latency_ns);
      }
      {
        auto s = tracer.span("socket.handle_cached", op);
        (void)in.server->handle(lines[i]);
      }
    }
  }
  return median_of(tracer, "socket.roundtrip") -
         median_of(tracer, "socket.handle_cached");
}

void probe_cache(const LedgerInputs& in, Tracer& tracer, Metrics& m) {
  const std::string wire = in.server->handle(R"({"type":"stats"})");
  const api::ServeStats stats = api::ServeStats::from_wire(json::parse(wire));
  m.set("report_cache.hit_ratio",
        ratio(static_cast<double>(stats.cache.hits),
              static_cast<double>(stats.cache.hits + stats.cache.misses)),
        "ratio");
  m.set("report_cache.coalesced", static_cast<double>(stats.cache.coalesced),
        "count");

  const std::string path = in.scratch_dir + "/ledger.snapshot";
  for (int r = 0; r < kPersistReps; ++r) {
    auto s = tracer.span("report_cache.save", r);
    if (!in.server->cache().save(path)) {
      throw bfpp::Error("ledger: cannot save the cache snapshot");
    }
  }
  for (int r = 0; r < kPersistReps; ++r) {
    api::ReportCache fresh(stats.cache.capacity);
    auto s = tracer.span("report_cache.load", r);
    (void)fresh.load(path);
  }
  m.set("report_cache.save_ms", 1e-3 * median_of(tracer, "report_cache.save"),
        "ms");
  m.set("report_cache.load_ms", 1e-3 * median_of(tracer, "report_cache.load"),
        "ms");
}

void probe_render(const LedgerInputs& in, Tracer& tracer) {
  for (int r = 0; r < kRenderReps; ++r) {
    for (size_t i = 0; i < in.reports.size(); ++i) {
      const api::Report& report = in.reports[i];
      const auto op = static_cast<int64_t>(i);
      {
        auto s = tracer.span("report.to_json", op);
        (void)report.to_json();
      }
      {
        auto s = tracer.span("report.to_csv_row", op);
        (void)report.to_csv_row();
      }
      {
        auto s = tracer.span("report.to_wire", op);
        (void)report.to_wire();
      }
    }
  }
}

// find_best on every cell with a wrapping evaluator. Returns the
// evaluated candidates per cell (in evaluation order).
std::vector<std::vector<RunSpec>> probe_search(const LedgerInputs& in,
                                               Tracer& tracer, Metrics& m) {
  std::vector<std::vector<RunSpec>> evaluated(in.search_cells.size());
  std::vector<double> candidates_per_cell;
  double candidates = 0.0;
  double feasible = 0.0;
  for (size_t i = 0; i < in.search_cells.size(); ++i) {
    const SearchCell& cell = in.search_cells[i];
    const auto op = static_cast<int64_t>(i);
    const auto spec = api::lookup_model(cell.model);
    const auto hw = api::lookup_cluster(cell.cluster);
    // One engine per cell, exactly as api::search builds one per call.
    api::RunOptions serial;
    serial.threads = 1;
    const std::unique_ptr<api::Engine> engine = api::make_engine(serial);
    bfpp::autotune::SearchOptions options;
    options.jobs = 1;
    options.evaluate = [&](const bfpp::model::TransformerSpec& s,
                           const bfpp::parallel::ParallelConfig& cfg,
                           const bfpp::hw::ClusterSpec& c) {
      auto span = tracer.span("engine.evaluate", op);
      evaluated[i].push_back({cell.model, cell.cluster, cfg});
      return engine->evaluate(s, cfg, c);
    };
    bfpp::autotune::SearchResult result;
    {
      auto s = tracer.span("autotune.find_best", op);
      result = bfpp::autotune::find_best(
          spec, hw, bfpp::autotune::parse_method(cell.method), cell.batch,
          options);
    }
    const double n = result.evaluated + result.infeasible;
    candidates_per_cell.push_back(n);
    candidates += n;
    feasible += result.evaluated;
  }
  m.set("autotune.find_best_ms", 1e-3 * median_of(tracer, "autotune.find_best"),
        "ms");
  m.set("autotune.candidates_per_cell", median(candidates_per_cell), "count");
  m.set("autotune.feasible_ratio", ratio(feasible, candidates), "ratio");
  m.set("engine.evaluate_us", median_of(tracer, "engine.evaluate"), "us");
  return evaluated;
}

// Share of candidates whose op_cost_key or sim_topology_key an earlier
// cell already produced.
double cross_cell_reuse(const std::vector<std::vector<RunSpec>>& cells) {
  std::unordered_map<std::string, size_t> first_cell;
  double total = 0.0;
  double reused = 0.0;
  for (size_t c = 0; c < cells.size(); ++c) {
    for (const RunSpec& run : cells[c]) {
      const auto spec = api::lookup_model(run.model);
      const auto hw = api::lookup_cluster(run.cluster);
      bool earlier = false;
      for (const std::string& key :
           {runtime::op_cost_key(spec, run.cfg, hw, bfpp::hw::KernelModel{}),
            runtime::sim_topology_key(spec, run.cfg, hw)}) {
        const auto [it, inserted] = first_cell.emplace(key, c);
        earlier = earlier || (!inserted && it->second < c);
      }
      total += 1.0;
      reused += earlier ? 1.0 : 0.0;
    }
  }
  return ratio(reused, total);
}

// Schedule, memory model, analytic engine, simulator (cold, shared
// cache) and the raw event loop on each candidate configuration.
void probe_candidates(const std::vector<RunSpec>& runs, Tracer& tracer,
                      Metrics& m) {
  const auto shared = std::make_shared<runtime::SimCache>();
  api::RunOptions closed_form;
  closed_form.backend = api::Backend::kAnalytic;
  const std::unique_ptr<api::Engine> analytic = api::make_engine(closed_form);
  std::vector<double> tasks;
  std::vector<double> ns_per_task;
  for (size_t k = 0; k < runs.size(); ++k) {
    const RunSpec& run = runs[k];
    const auto& cfg = run.cfg;
    const auto op = static_cast<int64_t>(k);
    const auto spec = api::lookup_model(run.model);
    const auto hw = api::lookup_cluster(run.cluster);
    auto candidate = tracer.span("ledger.candidate", op);
    try {
      {
        auto s = tracer.span("schedule.build_validate", op);
        bfpp::schedule::validate(bfpp::schedule::make_schedule(
            cfg.schedule, cfg.n_pp, cfg.n_loop, cfg.n_mb));
      }
      {
        auto s = tracer.span("memmodel.estimate", op);
        (void)bfpp::memmodel::estimate(spec, cfg);
      }
      {
        auto s = tracer.span("analytic.evaluate", op);
        (void)analytic->evaluate(spec, cfg, hw);
      }
      runtime::PipelineSim cold(spec, cfg, hw);
      {
        auto s = tracer.span("runtime.sim_cold", op);
        (void)cold.run();
      }
      const int64_t start = now_ns();
      {
        auto s = tracer.span("sim.run", op);
        (void)bfpp::sim::run(cold.graph());
      }
      const double n = cold.graph().task_count();
      tasks.push_back(n);
      ns_per_task.push_back(static_cast<double>(now_ns() - start) / n);
      runtime::PipelineSim warm(spec, cfg, hw, {}, shared);
      {
        auto s = tracer.span("runtime.sim_shared_cache", op);
        (void)warm.run();
      }
    } catch (const bfpp::Error&) {
      // Infeasible on the simulator: its partial spans stay recorded.
    }
  }
  const runtime::SimCache::Stats st = shared->stats();
  m.set("schedule.build_validate_us",
        median_of(tracer, "schedule.build_validate"), "us");
  m.set("memmodel.estimate_us", median_of(tracer, "memmodel.estimate"), "us");
  m.set("analytic.evaluate_us", median_of(tracer, "analytic.evaluate"), "us");
  m.set("runtime.sim_cold_us", median_of(tracer, "runtime.sim_cold"), "us");
  m.set("runtime.sim_shared_cache_us",
        median_of(tracer, "runtime.sim_shared_cache"), "us");
  m.set("runtime.simcache.cost_hit_ratio",
        ratio(static_cast<double>(st.cost_hits),
              static_cast<double>(st.cost_hits + st.cost_misses)),
        "ratio");
  m.set("runtime.simcache.skeleton_hit_ratio",
        ratio(static_cast<double>(st.skeleton_hits),
              static_cast<double>(st.skeleton_hits + st.skeleton_misses)),
        "ratio");
  m.set("sim.run_us", median_of(tracer, "sim.run"), "us");
  m.set("sim.tasks_per_candidate", median(tasks), "count");
  m.set("sim.run_ns_per_task", median(ns_per_task), "ns");
}

// What one span adds to the time it encloses, in nanoseconds: an
// enabled Scope around an empty body minus a disabled one, per span,
// median over batches. Each batch records into a fresh tracer, so the
// span vector's growth is paid as in the ledger. Every `_us` layer
// figure includes about this much per child span besides its own.
double span_overhead_ns() {
  constexpr int kBatches = 31;
  constexpr int kSpans = 2000;
  std::vector<double> per_span;
  for (int b = 0; b < kBatches; ++b) {
    Tracer off(false);
    Tracer on(true);
    const int64_t t0 = now_ns();
    for (int i = 0; i < kSpans; ++i) auto s = off.span("ledger.empty", i);
    const int64_t t1 = now_ns();
    for (int i = 0; i < kSpans; ++i) auto s = on.span("ledger.empty", i);
    const int64_t t2 = now_ns();
    per_span.push_back(static_cast<double>((t2 - t1) - (t1 - t0)) / kSpans);
  }
  return median(per_span);
}

}  // namespace

std::string search_line(const SearchCell& cell) {
  return "{\"type\":\"search\",\"model\":\"" + cell.model +
         "\",\"cluster\":\"" + cell.cluster +
         "\",\"batch\":" + std::to_string(cell.batch) + ",\"method\":\"" +
         cell.method + "\",\"jobs\":1}";
}

std::string line_cache_key(const std::string& line) {
  const json::Value root = json::parse(line);
  const CellOptions options = cell_options(root);
  return api::cache_key(builder_from_request(root).build(), options.method,
                        options.run);
}

api::Report report_for_line(const std::string& line) {
  const json::Value root = json::parse(line);
  const CellOptions options = cell_options(root);
  const api::Scenario scenario = builder_from_request(root).build();
  return options.method.has_value()
             ? api::search(scenario, *options.method, options.run)
             : api::run(scenario, options.run);
}

double repeat_share(const std::vector<std::string>& keys, size_t warm) {
  std::unordered_set<std::string> seen;
  double repeats = 0.0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const bool earlier = !seen.insert(keys[i]).second;
    if (i >= warm && earlier) repeats += 1.0;
  }
  return keys.size() > warm ? repeats / static_cast<double>(keys.size() - warm)
                            : 0.0;
}

void run_ledger(const LedgerInputs& in, Tracer& tracer, Metrics& m) {
  probe_requests(in, tracer);
  m.set("json.parse_us", median_of(tracer, "json.parse"), "us");
  m.set("scenario.build_us", median_of(tracer, "scenario.build"), "us");
  m.set("server.cache_key_us", median_of(tracer, "server.cache_key"), "us");
  m.set("server.handle_us", median_of(tracer, "server.handle"), "us");
  probe_cache(in, tracer, m);
  m.set("socket.overhead_us", probe_socket(in, tracer), "us");

  probe_render(in, tracer);
  m.set("report.to_json_us", median_of(tracer, "report.to_json"), "us");
  m.set("report.to_csv_row_us", median_of(tracer, "report.to_csv_row"), "us");
  m.set("report.to_wire_us", median_of(tracer, "report.to_wire"), "us");

  const std::vector<std::vector<RunSpec>> evaluated =
      probe_search(in, tracer, m);

  // Candidate layers on an even sample of the searched candidates plus
  // the first distinct per-op configurations.
  std::vector<RunSpec> runs;
  std::vector<const RunSpec*> all;
  for (const auto& cell : evaluated) {
    for (const RunSpec& run : cell) all.push_back(&run);
  }
  const size_t stride = all.size() / kMaxCandidates + 1;
  for (size_t i = 0; i < all.size(); i += stride) runs.push_back(*all[i]);
  std::unordered_set<std::string> distinct;
  for (const RunSpec& run : in.op_runs) {
    if (distinct.size() == kMaxOpRuns) break;
    if (distinct.insert(run.model + run.cluster + run.cfg.describe()).second) {
      runs.push_back(run);
    }
  }
  probe_candidates(runs, tracer, m);

  std::vector<std::vector<RunSpec>> cells = evaluated;
  if (!in.op_runs.empty()) {
    cells.clear();
    for (size_t i = 0; i < in.op_runs.size() && i < kMaxCrossCellOps; ++i) {
      cells.push_back({in.op_runs[i]});
    }
  }
  m.set("runtime.simcache.cross_cell_reuse", cross_cell_reuse(cells), "ratio");
  m.set("trace.span_overhead_ns", span_overhead_ns(), "ns");
}

}  // namespace perfbench
