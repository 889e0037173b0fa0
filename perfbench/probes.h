// The traced layer ledger: times the calls into each module's public
// functions on a workload's own generated inputs, one span per call,
// and turns the spans into per-layer metrics (median self time per
// layer, plus the counts and ratios each layer exposes).
#pragma once

#include <string>
#include <vector>

#include "api/report.h"
#include "api/server.h"
#include "bench.h"

namespace perfbench {

// A search cell of the find_best probe.
struct SearchCell {
  std::string model;
  std::string cluster;
  std::string method;
  int batch = 0;
};

// The `search` request line for a cell, pinned to one thread.
std::string search_line(const SearchCell& cell);

// The ReportCache key the server files a run/search request line under.
std::string line_cache_key(const std::string& line);

// The Report a run/search request line asks for, computed directly
// through the api (no server, no cache).
bfpp::api::Report report_for_line(const std::string& line);

// Share of `keys` whose key occurs earlier in the sequence (the first
// `warm` keys were answered during set-up: they count as earlier
// occurrences but not as requests).
double repeat_share(const std::vector<std::string>& keys, size_t warm);

struct LedgerInputs {
  // Server whose handle() is timed on handle_lines (in order), whose
  // cache is saved/loaded and whose stats are read; serving TCP on
  // `port`, where the same lines, by then cached, are timed again.
  bfpp::api::Server* server = nullptr;
  int port = 0;
  std::vector<std::string> handle_lines;
  // Reports rendered by the report.* probes.
  std::vector<bfpp::api::Report> reports;
  // Cells searched by the find_best probe; their candidates feed the
  // candidate-layer probes and, when op_runs is empty, cross-cell reuse.
  std::vector<SearchCell> search_cells;
  // Per-op configurations of the serve workloads (one cell per request,
  // in op order): candidate-layer probes and cross-cell reuse.
  std::vector<RunSpec> op_runs;
  // Directory for the save/load probe's snapshot file.
  std::string scratch_dir;
};

// Runs every probe and sets every layer metric that comes from the
// ledger (all per-layer metrics except report_cache.repeat_share and
// persist.bytes_written_per_op, which come from the workload's own
// timed phase), the cost of one span included.
void run_ledger(const LedgerInputs& in, Tracer& tracer, Metrics& metrics);

}  // namespace perfbench
