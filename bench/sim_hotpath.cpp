// Simulator hot-path latency: what one sweep cell costs to evaluate,
// and what the SimCache buys on the cells a sweep actually meets.
//
// The workload is the fig5-quick shape (6.6B, pp4/tp2/dp8 on DGX-1
// V100 InfiniBand) across the full schedule zoo and two micro-batch
// counts. Four passes, each timed per cell:
//
//   arena cold     the arena/SoA simulator, full rebuild, no cache
//   memoized       exact repeat on a shared SimCache (cost table and
//                  skeleton both hit: clone + re-time + run)
//   nmb neighbor   a never-seen cell differing only in N_mb (the
//                  memoized cost table is reused; new skeleton)
//   smb neighbor   a never-seen cell differing only in S_mb (the
//                  memoized skeleton is cloned and re-timed through its
//                  CostRefs; new cost table)
//
// The neighbor rows are the honest "cold cell in a sweep" numbers: the
// cell itself was never simulated, but a sibling on the same grid was;
// each is compared against a cold, cache-less rebuild of the *same*
// cells. (The pre-rework simulator this bench originally baselined
// against is gone; its last measured numbers live in ROADMAP.md.)
// Byte-identity of every path is pinned by tests/test_sim_diff.cpp; this
// bench reports time and what the SimCache did.
//
// Each pass is also expressed in calibration units: its us/cell divided
// by the time of one fixed in-process calibration loop, so an absolute
// bound set on one machine carries to a faster or slower one. Each
// cached pass reports the SimCache hits and misses it caused; they are
// exact functions of the repeat and cell counts, so a cache that stops
// paying fails on its counts whatever the timings say.
//
// Usage: sim_hotpath [repeats] [--json FILE]
//        (default 20; --json writes the machine-readable artifact CI
//        archives as BENCH_sim.json and gates on)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/serialize.h"
#include "common/strings.h"
#include "common/table.h"
#include "hw/cluster.h"
#include "model/transformer.h"
#include "parallel/config.h"
#include "runtime/pipeline_sim.h"

using namespace bfpp;

namespace {

struct Cell {
  parallel::ParallelConfig cfg;
  std::string label;
};

// The fig5-quick operating point across the schedule zoo.
std::vector<Cell> fig5_quick_cells() {
  struct Family {
    const char* label;
    parallel::ScheduleKind kind;
    int n_loop;
  };
  const Family kFamilies[] = {
      {"bf", parallel::ScheduleKind::kBreadthFirst, 4},
      {"df", parallel::ScheduleKind::kDepthFirst, 4},
      {"gpipe", parallel::ScheduleKind::kGpipe, 1},
      {"1f1b", parallel::ScheduleKind::kOneFOneB, 1},
      {"1f1b-async", parallel::ScheduleKind::kOneFOneBAsync, 1},
      {"unbalanced", parallel::ScheduleKind::kUnbalanced, 1},
      {"v", parallel::ScheduleKind::kVSchedule, 2},
      {"2bp", parallel::ScheduleKind::kTwoBP, 1},
  };
  std::vector<Cell> cells;
  for (const Family& family : kFamilies) {
    for (const int n_mb : {8, 16}) {
      Cell cell;
      cell.cfg.n_pp = 4;
      cell.cfg.n_tp = 2;
      cell.cfg.n_dp = 8;
      cell.cfg.s_mb = 1;
      cell.cfg.n_mb = n_mb;
      cell.cfg.n_loop = family.n_loop;
      cell.cfg.schedule = family.kind;
      cell.label = str_format("%s/nmb%d", family.label, n_mb);
      cells.push_back(cell);
    }
  }
  return cells;
}

// Mean per-cell wall time of `body(cell)` over `repeats` sweeps of the
// cell list. Cells that throw (structurally infeasible on this point)
// are skipped identically in every pass.
struct PassTime {
  double us_per_cell = 0.0;
  int cells = 0;
};

PassTime time_pass(const std::vector<Cell>& cells, int repeats,
                   const std::function<void(const Cell&)>& body) {
  PassTime out;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < repeats; ++r) {
    out.cells = 0;
    for (const Cell& cell : cells) {
      try {
        body(cell);
        ++out.cells;
      } catch (const Error&) {
        // skipped: same cells skip in every pass
      }
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.us_per_cell =
      out.cells > 0 ? 1e6 * seconds / (repeats * out.cells) : 0.0;
  return out;
}

// One run of a fixed workload in the simulator's own shape: a dependent
// chain of "start = max(ready, clock) + duration" updates over an
// L1-resident table, driven by xorshift. Returns the best of several
// runs in microseconds, the unit the CI bounds are written in.
double calibration_us() {
  std::vector<double> ready(4096, 0.0);
  double best = 0.0;
  double sink = 0.0;
  for (int run = 0; run < 9; ++run) {
    const auto start = std::chrono::steady_clock::now();
    uint64_t x = 88172645463325252ull;
    double clock = 0.0;
    for (int i = 0; i < 200000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      double& slot = ready[x & 4095];
      clock = std::max(clock, slot) + static_cast<double>(x >> 44) * 1e-9;
      slot = clock;
    }
    sink += clock;
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (run == 0 || us < best) best = us;
  }
  if (sink < 0.0) std::puts("");  // keep the loop observable
  return best;
}

struct CacheDelta {
  int64_t cost_hits = 0;
  int64_t cost_misses = 0;
  int64_t skeleton_hits = 0;
  int64_t skeleton_misses = 0;
};

CacheDelta operator-(const runtime::SimCache::Stats& after,
                     const runtime::SimCache::Stats& before) {
  return {after.cost_hits - before.cost_hits,
          after.cost_misses - before.cost_misses,
          after.skeleton_hits - before.skeleton_hits,
          after.skeleton_misses - before.skeleton_misses};
}

struct Row {
  std::string pass;
  PassTime time;
  CacheDelta cache;  // zero for the cache-less pass
};

std::string to_json(const std::vector<Row>& rows, int repeats,
                    double calibration, double neighbor_speedup,
                    double memoized_speedup) {
  std::string out = str_format(
      "{\"bench\":\"sim_hotpath\",\"workload\":\"fig5-quick\","
      "\"repeats\":%d,\"calibration_us\":%.2f,\"results\":[",
      repeats, calibration);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out += str_format(
        "%s{\"pass\":\"%s\",\"us_per_cell\":%.2f,\"calib_units\":%.4f,"
        "\"cells\":%d,\"cache\":{\"cost_hits\":%lld,\"cost_misses\":%lld,"
        "\"skeleton_hits\":%lld,\"skeleton_misses\":%lld}}",
        i == 0 ? "" : ",", row.pass.c_str(), row.time.us_per_cell,
        row.time.us_per_cell / calibration, row.time.cells,
        static_cast<long long>(row.cache.cost_hits),
        static_cast<long long>(row.cache.cost_misses),
        static_cast<long long>(row.cache.skeleton_hits),
        static_cast<long long>(row.cache.skeleton_misses));
  }
  out += str_format(
      "],\"cold_neighbor_speedup\":%.2f,\"memoized_speedup\":%.2f}\n",
      neighbor_speedup, memoized_speedup);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int repeats = 20;
  std::string json_path;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (positional == 0) {
      repeats = std::atoi(argv[i]);
      ++positional;
    } else {
      repeats = 0;
      break;
    }
  }
  if (repeats <= 0) {
    std::fprintf(stderr, "usage: sim_hotpath [repeats] [--json FILE]\n");
    return 1;
  }

  const model::TransformerSpec spec = model::model_6_6b();
  const hw::ClusterSpec cluster = hw::dgx1_v100_infiniband();
  const std::vector<Cell> cells = fig5_quick_cells();

  // Neighbor cell lists: never simulated in the warm-up pass, but each
  // shares either the cost-table key (same S_mb, kernel) or the
  // skeleton key (same schedule topology) with a warmed cell.
  std::vector<Cell> nmb_neighbors = cells;
  for (Cell& cell : nmb_neighbors) cell.cfg.n_mb *= 2;
  std::vector<Cell> smb_neighbors = cells;
  for (Cell& cell : smb_neighbors) cell.cfg.s_mb = 2;

  auto run_arena = [&](std::shared_ptr<runtime::SimCache> cache) {
    return [&spec, &cluster, cache](const Cell& cell) {
      runtime::PipelineSim sim(spec, cell.cfg, cluster, {}, cache);
      (void)sim.run();
    };
  };

  std::printf(
      "== simulator hot path: fig5-quick zoo, %zu cells, %d repeats ==\n\n",
      cells.size(), repeats);

  const double calibration = calibration_us();

  std::vector<Row> rows;
  rows.push_back(
      {"arena_cold", time_pass(cells, repeats, run_arena(nullptr)), {}});

  // One shared cache, warmed once by the base cells; the three cached
  // passes then hit it the way sweep neighbors do.
  auto cache = std::make_shared<runtime::SimCache>();
  (void)time_pass(cells, 1, run_arena(cache));  // warm-up (not reported)
  auto cached_pass = [&](const char* name, const std::vector<Cell>& list) {
    const runtime::SimCache::Stats before = cache->stats();
    const PassTime time = time_pass(list, repeats, run_arena(cache));
    rows.push_back({name, time, cache->stats() - before});
  };
  cached_pass("memoized_repeat", cells);
  cached_pass("nmb_neighbor", nmb_neighbors);
  cached_pass("smb_neighbor", smb_neighbors);

  const double cold_us = rows[0].time.us_per_cell;
  const double memo_us = rows[1].time.us_per_cell;
  // The sweep-neighbor number compares against a cache-less rebuild of
  // the same neighbor cells (nmb neighbors are the larger graphs, so
  // re-time the cold baseline on them).
  const PassTime cold_nmb =
      time_pass(nmb_neighbors, repeats, run_arena(nullptr));
  const double neighbor_us = rows[2].time.us_per_cell;
  const double neighbor_speedup =
      neighbor_us > 0.0 ? cold_nmb.us_per_cell / neighbor_us : 0.0;
  const double memoized_speedup = memo_us > 0.0 ? cold_us / memo_us : 0.0;

  Table table({"Pass", "us/cell", "Calib units", "Cells", "vs cold",
               "Cost hit/miss", "Skeleton hit/miss"});
  for (const Row& row : rows) {
    const double base =
        row.pass == "nmb_neighbor" ? cold_nmb.us_per_cell : cold_us;
    table.add_row({row.pass, str_format("%.1f", row.time.us_per_cell),
                   str_format("%.3f", row.time.us_per_cell / calibration),
                   str_format("%d", row.time.cells),
                   str_format("%.1fx", row.time.us_per_cell > 0.0
                                           ? base / row.time.us_per_cell
                                           : 0.0),
                   str_format("%lld/%lld",
                              static_cast<long long>(row.cache.cost_hits),
                              static_cast<long long>(row.cache.cost_misses)),
                   str_format("%lld/%lld",
                              static_cast<long long>(row.cache.skeleton_hits),
                              static_cast<long long>(
                                  row.cache.skeleton_misses))});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf(
      "\narena cold = full rebuild per cell, no cache; memoized = exact\n"
      "repeat on a shared SimCache; nmb/smb neighbor = never-seen cells\n"
      "reusing the memoized cost table / skeleton the way sweep siblings\n"
      "do, each vs a cache-less rebuild of the same cells. Equality of\n"
      "every path's output is pinned by tests/test_sim_diff.cpp.\n"
      "Calibration loop: %.1f us (calib units = us/cell over it).\n",
      calibration);

  if (!json_path.empty()) {
    if (!serialize::write_file_atomic(
            json_path,
            to_json(rows, repeats, calibration, neighbor_speedup,
                    memoized_speedup))) {
      std::fprintf(stderr, "sim_hotpath: cannot write '%s'\n",
                   json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
