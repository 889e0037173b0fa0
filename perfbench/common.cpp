#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "api/registry.h"
#include "autotune/autotune.h"
#include "bench.h"
#include "common/error.h"
#include "memmodel/memory.h"

namespace perfbench {

namespace api = bfpp::api;
namespace parallel = bfpp::parallel;

namespace {

double cpu_s(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

}  // namespace

Usage read_usage() {
  Usage u;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  u.cpu_s = cpu_s(ru);
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
  std::ifstream io("/proc/self/io");
  std::string key;
  int64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") u.wchar = value;
  }
  return u;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<size_t>(std::max(1.0, std::ceil(q * n)));
  return samples[std::min(rank, samples.size()) - 1];
}

uint64_t fnv1a(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t Rng::next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, int64_t op)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.op = op;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->open_.push_back(index_);
  tracer_->spans_.back().start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<size_t>(index_)].end_ns = now_ns();
  tracer_->open_.pop_back();
}

void Tracer::record(const char* name, int64_t start_ns, int64_t end_ns,
                    int64_t op) {
  if (!enabled_) return;
  spans_.push_back({name, start_ns, end_ns,
                    open_.empty() ? -1 : open_.back(), op});
}

std::vector<double> Tracer::self_us(std::string_view name) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    out.push_back(1e-3 * static_cast<double>(spans_[i].end_ns -
                                             spans_[i].start_ns - child_ns[i]));
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"op\":%lld}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.op));
  }
  return std::fclose(f) == 0;
}

api::ScenarioBuilder builder_from_request(const bfpp::json::Value& root) {
  api::ScenarioBuilder b;
  b.name("cli");
  bool no_dp = false;
  bool no_pp = false;
  for (const auto& [key, v] : root.members()) {
    if (key == "model") b.model(v.as_string());
    else if (key == "cluster") b.cluster(v.as_string());
    else if (key == "schedule") b.schedule(v.as_string());
    else if (key == "sharding") b.sharding(v.as_string());
    else if (key == "pp") b.pp(v.as_int());
    else if (key == "tp") b.tp(v.as_int());
    else if (key == "dp") b.dp(v.as_int());
    else if (key == "smb") b.smb(v.as_int());
    else if (key == "nmb") b.nmb(v.as_int());
    else if (key == "loop") b.loop(v.as_int());
    else if (key == "batch") b.batch(v.as_int());
    else if (key == "no_dp_overlap") no_dp = v.as_bool();
    else if (key == "no_pp_overlap") no_pp = v.as_bool();
  }
  if (no_dp || no_pp) b.overlap(!no_dp, !no_pp);
  return b;
}

std::string run_line(const RunSpec& spec, const std::string& backend,
                     const std::string& format, double kernel_efficiency) {
  const parallel::ParallelConfig& c = spec.cfg;
  std::string kind = parallel::to_string(c.schedule);
  std::string sharding = parallel::to_string(c.sharding);
  std::transform(kind.begin(), kind.end(), kind.begin(), ::tolower);
  std::transform(sharding.begin(), sharding.end(), sharding.begin(),
                 ::tolower);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"type\":\"run\",\"model\":\"%s\",\"cluster\":\"%s\","
                "\"schedule\":\"%s\",\"sharding\":\"%s\",\"pp\":%d,\"tp\":%d,"
                "\"dp\":%d,\"smb\":%d,\"nmb\":%d,\"loop\":%d",
                spec.model.c_str(), spec.cluster.c_str(), kind.c_str(),
                sharding.c_str(), c.n_pp, c.n_tp, c.n_dp, c.s_mb, c.n_mb,
                c.n_loop);
  std::string line = buf;
  if (!c.overlap_dp) line += ",\"no_dp_overlap\":true";
  if (!c.overlap_pp) line += ",\"no_pp_overlap\":true";
  if (!backend.empty()) line += ",\"backend\":\"" + backend + "\"";
  if (!format.empty()) line += ",\"format\":\"" + format + "\"";
  if (kernel_efficiency > 0.0) {
    std::snprintf(buf, sizeof buf, ",\"kernel\":{\"max_efficiency\":%.4f}",
                  kernel_efficiency);
    line += buf;
  }
  return line + "}";
}

std::vector<RunSpec> feasible_runs(const std::string& model,
                                   const std::string& cluster,
                                   const std::string& method, int batch) {
  const auto spec = api::lookup_model(model);
  const auto hw = api::lookup_cluster(cluster);
  std::vector<RunSpec> out;
  for (const parallel::ParallelConfig& cfg : bfpp::autotune::enumerate_configs(
           spec, hw, bfpp::autotune::parse_method(method), batch)) {
    if (!bfpp::memmodel::fits(spec, cfg, hw)) continue;
    RunSpec run{model, cluster, cfg};
    try {
      parallel::validate(cfg, spec, hw);
      // Keep only configurations a request naming these fields
      // reproduces exactly, so the served cell is the enumerated one.
      const auto built =
          builder_from_request(bfpp::json::parse(run_line(run, "", "")))
              .build();
      if (!built.config.has_value() || !(*built.config == cfg)) continue;
    } catch (const bfpp::Error&) {
      continue;
    }
    out.push_back(std::move(run));
  }
  return out;
}

}  // namespace perfbench
