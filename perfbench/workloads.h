// The three benchmark workloads. Each generates its inputs from the
// seed, sets up several times (before and during its timed phase,
// reporting the fastest set-up), runs its timed phase for the requested
// seconds, checks every output, and - when tracing - runs the layer
// ledger on the same inputs.
#pragma once

#include <cstdint>
#include <string>

#include "bench.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;      // private scratch directory for this run
  std::string digests_path;  // search_sweep reference digests
};

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;  // ops whose output did not match its reference
  Metrics end_to_end;  // from the timed phase (traced or not)
  Metrics layers;      // trace runs only
};

Outcome search_sweep(const RunConfig& config, Tracer& tracer);
Outcome serve_warm(const RunConfig& config, Tracer& tracer);
Outcome serve_cold_persist(const RunConfig& config, Tracer& tracer);

// Runs every search_sweep cell once and writes its digest file.
void record_search_digests(const std::string& path);

}  // namespace perfbench
