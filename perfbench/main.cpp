// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload search_sweep|serve_warm|serve_cold_persist
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             --digests FILE [--trace-file FILE]
//   perfbench --record-digests FILE
//
// Prints human-readable "# ..." lines, then, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}} - the end-to-end metrics
// untraced, the per-layer metrics with --trace 1. Exits 1 without a
// result line on any error. perfbench/run.py builds this binary and is
// the intended entry point; perfbench/README.md documents the
// workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

using perfbench::Metrics;

void print_result(const perfbench::Outcome& o, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += o.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(o.attempted);
  out += ", \"failed\": " + std::to_string(o.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : metrics.all()) {
    char value[64];
    std::snprintf(value, sizeof value, "%.12g", m.value);
    out += first ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --digests FILE "
               "[--trace-file FILE]\n       perfbench --record-digests FILE\n",
               why);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage("expected --flag value pairs");
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("expected --flag value pairs");
  try {
    if (args.count("record-digests") != 0) {
      perfbench::record_search_digests(args["record-digests"]);
      return 0;
    }
    for (const char* required :
         {"workload", "seed", "seconds", "trace", "work-dir", "digests"}) {
      if (args.count(required) == 0) {
        return usage((std::string("missing --") + required).c_str());
      }
    }
    perfbench::RunConfig config;
    config.seed = std::stoull(args["seed"]);
    config.seconds = std::stod(args["seconds"]);
    config.trace = args["trace"] == "1";
    config.work_dir = args["work-dir"];
    config.digests_path = args["digests"];
    if (config.seconds <= 0) return usage("--seconds must be positive");

    perfbench::Tracer tracer(config.trace);
    const std::string& workload = args["workload"];
    perfbench::Outcome outcome;
    if (workload == "search_sweep") {
      outcome = perfbench::search_sweep(config, tracer);
    } else if (workload == "serve_warm") {
      outcome = perfbench::serve_warm(config, tracer);
    } else if (workload == "serve_cold_persist") {
      outcome = perfbench::serve_cold_persist(config, tracer);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
    std::printf("# %s: %lld attempted, %lld succeeded, %lld failed\n",
                workload.c_str(), static_cast<long long>(outcome.attempted),
                static_cast<long long>(outcome.attempted - outcome.failed),
                static_cast<long long>(outcome.failed));
    for (const perfbench::Metric& m : outcome.end_to_end.all()) {
      std::printf("# %-20s %14.6f %s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), config.trace ? " (traced run)" : "");
    }
    if (config.trace && args.count("trace-file") != 0) {
      if (!tracer.write(args["trace-file"])) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args["trace-file"].c_str());
        return 1;
      }
      std::printf("# trace: %zu spans in %s\n", tracer.size(),
                  args["trace-file"].c_str());
    }
    print_result(outcome, config.trace ? outcome.layers : outcome.end_to_end);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
