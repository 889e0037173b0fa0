// Golden-report regression suite: the `fig5-quick` compare grid (all six
// schedule families on the 6.6B point, batches 64 and 128) serialized to
// JSON and CSV must byte-match the files checked into tests/golden/.
// Any intentional change to costs, schedules, or serialization shows up
// here as a diff that has to be re-recorded, reviewed, and committed.
//
// The Serve* tests pin the serve protocol the same way: every line of
// serve_requests.jsonl (run/search/sweep/compare in JSON and CSV, list,
// ping, id echoes and error lines, hostile format strings included) is
// answered by one Server and the transcript byte-diffed, alongside the
// pretty/CSV/wire renders of search and failed Reports, the ServeStats
// wire form and ReportCache keys (which persist in snapshots).
//
// Regenerating after an intentional change:
//
//   BFPP_UPDATE_GOLDEN=1 ./build/tests/test_golden
//     or
//   ./build/tests/test_golden --update-golden
//
// then `git diff tests/golden/` to review what moved before committing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "api/compare.h"
#include "api/registry.h"
#include "api/report.h"
#include "api/server.h"
#include "api/sweep.h"
#include "golden_util.h"

namespace bfpp::api {
namespace {

// One sweep per process; both serializations pin the same Reports.
const std::vector<Report>& fig5_quick_reports() {
  static const std::vector<Report>* reports = [] {
    SweepOptions options;
    options.jobs = 1;  // the contract says jobs-independent; keep CI serial
    return new std::vector<Report>(sweep(compare_grid("fig5-quick"), options));
  }();
  return *reports;
}

TEST(Golden, GridShapeCoversAllFamilies) {
  const auto& reports = fig5_quick_reports();
  // 2 batches x 6 schedule families, one row per cell, always.
  ASSERT_EQ(reports.size(), 12u);
  for (const char* family :
       {"/bf", "/df", "/1f1b-async", "/unbalanced", "/v", "/2bp"}) {
    int seen = 0;
    for (const Report& r : reports) {
      if (r.scenario.size() >= std::string(family).size() &&
          r.scenario.rfind(family) ==
              r.scenario.size() - std::string(family).size()) {
        ++seen;
      }
    }
    EXPECT_EQ(seen, 2) << "family column " << family;
  }
}

TEST(Golden, Fig5QuickJsonIsByteStable) {
  bfpp::testing::check_golden("fig5_quick.json", to_json(fig5_quick_reports()));
}

TEST(Golden, Fig5QuickCsvIsByteStable) {
  bfpp::testing::check_golden("fig5_quick.csv", to_csv(fig5_quick_reports()));
}

TEST(ServeGolden, TranscriptIsByteStable) {
  std::ifstream in(std::string(BFPP_GOLDEN_DIR) + "/serve_requests.jsonl");
  ASSERT_TRUE(in.good()) << "missing tests/golden/serve_requests.jsonl";
  Server server;
  std::string transcript;
  std::string line;
  int requests = 0;
  while (std::getline(in, line)) {
    transcript += "> " + line + "\n";
    transcript += server.handle(line);
    ++requests;
  }
  EXPECT_GE(requests, 60);
  bfpp::testing::check_golden("serve_transcript.txt", transcript);
}

TEST(ServeGolden, ReportRendersAreByteStable) {
  // Search cells (method + frugal, the nested pretty layout), run cells
  // including infeasible ones, and a Report whose text fields need JSON
  // escaping and CSV quoting.
  SweepOptions options;
  options.jobs = 1;
  options.run.backend = Backend::kAnalytic;
  std::vector<Report> reports = sweep(SweepBuilder()
                                          .models({"6.6b", "52b"})
                                          .clusters({"dgx1-v100-eth"})
                                          .methods({"bf", "np"})
                                          .batches({8, 64})
                                          .build(),
                                      options);
  for (Report& r : sweep(SweepBuilder()
                             .base(ScenarioBuilder().model("52b"))
                             .pp({8})
                             .tp({8})
                             .nmb({3, 16})
                             .schedules({"df", "bf"})
                             .loops({4})
                             .build(),
                         options)) {
    reports.push_back(std::move(r));
  }
  Report odd;
  odd.scenario = "q\"uote,comma\nline\ttab\x01";
  odd.model = "m";
  odd.cluster = "c,d";
  odd.error = "[oom] needs 1e+99 bytes";
  reports.push_back(odd);
  std::string renders = to_json(reports);
  renders += to_csv(reports);
  for (const Report& r : reports) renders += r.to_wire() + "\n";
  bfpp::testing::check_golden("report_renders.txt", renders);
}

TEST(ServeGolden, StatsWireIsByteStable) {
  ServeStats s;
  s.requests = 18446744073709551615ull;
  s.cache.entries = 17;
  s.cache.capacity = 1024;
  s.cache.hits = 23;
  s.cache.misses = 19;
  s.cache.insertions = 19;
  s.cache.coalesced = 3;
  s.cache.inflight = 1;
  s.connections.active = 2;
  s.connections.reading = -1;
  s.connections.processing = 1;
  s.connections.accepted = 5;
  s.connections.rejected = 9007199254740993ull;
  s.queues.executing = 1;
  s.latency.count = 41;
  s.latency.sum_us = 901233;
  s.latency.p50_us = 1023;
  s.latency.p99_us = 262143;
  for (size_t i = 0; i < ServeStats::kLatencyBuckets; ++i) {
    s.latency.buckets.push_back(i * i * 1000);
  }
  bfpp::testing::check_golden(
      "serve_stats.wire.txt",
      s.to_wire() + "\n" + ServeStats{}.to_wire() + "\n");
}

TEST(ServeGolden, CacheKeysAreByteStable) {
  // Keys name entries in persisted snapshots: a changed key silently
  // turns every warm restart cold.
  RunOptions kernel;
  kernel.backend = Backend::kAnalytic;
  kernel.kernel = hw::KernelModel{};
  kernel.kernel->max_efficiency = 0.1 + 0.2;
  kernel.kernel->narrow_half = 1e-300;
  kernel.kernel->rows_half = 123456789.125;
  std::string keys;
  for (const RunOptions& run : {RunOptions{}, kernel}) {
    keys += cache_key(lookup_scenario("fig5a-bf-b16"), std::nullopt, run);
    keys += "\n";
    keys += cache_key(ScenarioBuilder()
                          .model("6.6b")
                          .cluster("dgx1-v100-eth")
                          .batch(64)
                          .build(),
                      autotune::Method::kBreadthFirst, run);
    keys += "\n";
    keys += cache_key(ScenarioBuilder()
                          .model("52b")
                          .cluster("dgx1-v100-ib")
                          .pp(8)
                          .tp(8)
                          .nmb(16)
                          .schedule("df")
                          .loop(4)
                          .megatron()
                          .build(),
                      std::nullopt, run);
    keys += "\n";
  }
  bfpp::testing::check_golden("serve_cache_keys.txt", keys);
}

}  // namespace
}  // namespace bfpp::api
