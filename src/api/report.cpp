#include "api/report.h"

#include <array>
#include <initializer_list>

#include "common/error.h"
#include "common/json.h"
#include "common/strings.h"
#include "common/writer.h"

namespace bfpp::api {

namespace {

// Display doubles: %.10g, compact and locale-independent ("0.25",
// "36280000000000"). The wire form uses kWireDigits instead.
constexpr int kDisplayDigits = 10;

// %.17g: enough digits that parsing the decimal back yields the exact
// same double, which keeps reloaded Reports byte-identical under the
// display emitters.
constexpr int kWireDigits = 17;

// The pretty layout puts the members of the objects inside "frugal" at
// the level of the "frugal" members themselves, as the CLI's JSON has
// always printed them (pinned by tests/golden/report_renders.txt).
// `depth` is that override, or Writer::kNested for ordinary nesting.
void config_json(Writer& w, const parallel::ParallelConfig& cfg,
                 int depth = Writer::kNested) {
  w.begin_object(depth)
      .key("schedule").string(parallel::to_string(cfg.schedule))
      .key("sharding").string(parallel::to_string(cfg.sharding))
      .key("n_pp").integer(cfg.n_pp)
      .key("n_tp").integer(cfg.n_tp)
      .key("n_dp").integer(cfg.n_dp)
      .key("s_mb").integer(cfg.s_mb)
      .key("n_mb").integer(cfg.n_mb)
      .key("n_loop").integer(cfg.n_loop)
      .key("overlap_dp").boolean(cfg.overlap_dp)
      .key("overlap_pp").boolean(cfg.overlap_pp)
      .key("describe").string(cfg.describe())
      .end_object();
}

void result_json(Writer& w, const runtime::RunResult& r,
                 int depth = Writer::kNested) {
  w.begin_object(depth)
      .key("batch_time_s").real(r.batch_time, kDisplayDigits)
      .key("throughput_per_gpu").real(r.throughput_per_gpu, kDisplayDigits)
      .key("utilization").real(r.utilization, kDisplayDigits)
      .key("compute_idle_fraction")
      .real(r.compute_idle_fraction, kDisplayDigits)
      .end_object();
}

void memory_json(Writer& w, const memmodel::MemoryEstimate& m,
                 int depth = Writer::kNested) {
  w.begin_object(depth)
      .key("total_bytes").real(m.total(), kDisplayDigits)
      .key("state_bytes").real(m.state_bytes, kDisplayDigits)
      .key("buffer_bytes").real(m.buffer_bytes, kDisplayDigits)
      .key("activation_bytes").real(m.activation_bytes, kDisplayDigits)
      .key("checkpoint_bytes").real(m.checkpoint_bytes, kDisplayDigits)
      .key("p2p_buffer_bytes").real(m.p2p_buffer_bytes, kDisplayDigits)
      .end_object();
}

}  // namespace

void Report::write_json(Writer& w) const {
  w.begin_object()
      .key("scenario").string(scenario)
      .key("model").string(model)
      .key("cluster").string(cluster)
      .key("method");
  if (method.empty()) {
    w.null();
  } else {
    w.string(method);
  }
  w.key("n_gpus").integer(n_gpus)
      .key("batch_size").integer(batch_size)
      .key("beta").real(beta(), kDisplayDigits)
      .key("found").boolean(found);
  if (!found && !error.empty()) w.key("error").string(error);
  if (found) {
    config_json(w.key("config"), config);
    result_json(w.key("result"), result);
    memory_json(w.key("memory"), memory);
    memory_json(w.key("memory_min"), memory_min);
  }
  if (!method.empty()) {
    w.key("search").begin_object()
        .key("evaluated").integer(evaluated)
        .key("infeasible").integer(infeasible);
    if (frugal.has_value()) {
      w.key("frugal").begin_object();
      constexpr int kFrugalDepth = 3;
      config_json(w.key("config"), frugal->config, kFrugalDepth);
      result_json(w.key("result"), frugal->result, kFrugalDepth);
      memory_json(w.key("memory_min"), frugal->memory_min, kFrugalDepth);
      w.end_object();
    }
    w.end_object();
  }
  w.end_object();
}

std::string Report::to_json() const {
  std::string out;
  Writer w(out, 2);
  write_json(w);
  out += '\n';
  return out;
}

std::string Report::csv_header() {
  return "scenario,model,cluster,method,n_gpus,batch_size,beta,found,"
         "schedule,sharding,n_pp,n_tp,n_dp,s_mb,n_mb,n_loop,overlap_dp,"
         "overlap_pp,batch_time_s,throughput_per_gpu,utilization,"
         "compute_idle_fraction,memory_total_bytes,memory_min_total_bytes,"
         "evaluated,infeasible,error";
}

void Report::write_csv_row(Writer& w) const {
  w.csv(scenario).put(',').csv(model).put(',').csv(cluster).put(',');
  w.csv(method).put(',').integer(n_gpus).put(',').integer(batch_size);
  w.put(',').real(beta(), kDisplayDigits).put(',').put(found ? '1' : '0');
  if (found) {
    w.put(',').raw(parallel::to_string(config.schedule));
    w.put(',').raw(parallel::to_string(config.sharding));
    for (const int n : {config.n_pp, config.n_tp, config.n_dp, config.s_mb,
                        config.n_mb, config.n_loop}) {
      w.put(',').integer(n);
    }
    w.put(',').put(config.overlap_dp ? '1' : '0');
    w.put(',').put(config.overlap_pp ? '1' : '0');
    for (const double x : {result.batch_time, result.throughput_per_gpu,
                           result.utilization, result.compute_idle_fraction,
                           memory.total(), memory_min.total()}) {
      w.put(',').real(x, kDisplayDigits);
    }
  } else {
    w.raw(",,,,,,,,,,,,,,,,");  // the 16 config/result columns, empty
  }
  w.put(',').integer(evaluated).put(',').integer(infeasible);
  // Explicit (usually empty) error column, quoted like every other text
  // field, so failed sweep cells never change the CSV schema.
  w.put(',').csv(error);
}

std::string Report::to_csv_row() const {
  std::string out;
  Writer w(out);
  write_csv_row(w);
  return out;
}

std::string Report::to_csv() const {
  return csv_header() + "\n" + to_csv_row() + "\n";
}

// ---- wire form (cache persistence) ----

namespace {

void wire_array(Writer& w, std::initializer_list<double> xs) {
  w.begin_array();
  for (const double x : xs) w.real(x, kWireDigits);
  w.end_array();
}

void wire_result(Writer& w, const runtime::RunResult& r) {
  wire_array(w, {r.batch_time, r.throughput_per_gpu, r.utilization,
                   r.compute_idle_fraction});
}

void wire_memory(Writer& w, const memmodel::MemoryEstimate& m) {
  wire_array(w, {m.state_bytes, m.buffer_bytes, m.activation_bytes,
                   m.checkpoint_bytes, m.p2p_buffer_bytes});
}

const json::Value& wire_field(const json::Value& v, const char* key) {
  const json::Value* field = v.get(key);
  check_config(field != nullptr, "report: wire form is missing \"%s\"", key);
  return *field;
}

template <size_t N>
std::array<double, N> wire_doubles(const json::Value& v, const char* key) {
  const json::Value& field = wire_field(v, key);
  check_config(field.is_array() && field.size() == N,
               "report: \"%s\" must be an array of %zu numbers", key, N);
  std::array<double, N> out{};
  for (size_t i = 0; i < N; ++i) out[i] = field.items()[i].as_number(key);
  return out;
}

runtime::RunResult result_from_wire(const json::Value& v, const char* key) {
  const auto d = wire_doubles<4>(v, key);
  runtime::RunResult r;
  r.batch_time = d[0];
  r.throughput_per_gpu = d[1];
  r.utilization = d[2];
  r.compute_idle_fraction = d[3];
  return r;
}

memmodel::MemoryEstimate memory_from_wire(const json::Value& v,
                                          const char* key) {
  const auto d = wire_doubles<5>(v, key);
  memmodel::MemoryEstimate m;
  m.state_bytes = d[0];
  m.buffer_bytes = d[1];
  m.activation_bytes = d[2];
  m.checkpoint_bytes = d[3];
  m.p2p_buffer_bytes = d[4];
  return m;
}

}  // namespace

std::string Report::to_wire() const {
  std::string out;
  Writer w(out);
  w.begin_object()
      .key("scenario").string(scenario)
      .key("model").string(model)
      .key("cluster").string(cluster)
      .key("method").string(method)
      .key("n_gpus").integer(n_gpus)
      .key("batch_size").integer(batch_size)
      .key("found").boolean(found)
      .key("error").string(error)
      .key("config").string(config.describe());
  wire_result(w.key("result"), result);
  wire_memory(w.key("memory"), memory);
  wire_memory(w.key("memory_min"), memory_min);
  w.key("evaluated").integer(evaluated).key("infeasible").integer(infeasible);
  if (frugal.has_value()) {
    w.key("frugal").begin_object()
        .key("config").string(frugal->config.describe());
    wire_result(w.key("result"), frugal->result);
    wire_memory(w.key("memory_min"), frugal->memory_min);
    w.end_object();
  }
  w.end_object();
  return out;
}

Report Report::from_wire(const json::Value& value) {
  check_config(value.is_object(), "report: wire form must be a JSON object");
  Report r;
  r.scenario = wire_field(value, "scenario").as_string("scenario");
  r.model = wire_field(value, "model").as_string("model");
  r.cluster = wire_field(value, "cluster").as_string("cluster");
  r.method = wire_field(value, "method").as_string("method");
  r.n_gpus = wire_field(value, "n_gpus").as_int("n_gpus");
  r.batch_size = wire_field(value, "batch_size").as_int("batch_size");
  r.found = wire_field(value, "found").as_bool("found");
  r.error = wire_field(value, "error").as_string("error");
  r.config =
      parallel::ParallelConfig::parse(wire_field(value, "config").as_string());
  r.result = result_from_wire(value, "result");
  r.memory = memory_from_wire(value, "memory");
  r.memory_min = memory_from_wire(value, "memory_min");
  r.evaluated = wire_field(value, "evaluated").as_int("evaluated");
  r.infeasible = wire_field(value, "infeasible").as_int("infeasible");
  if (const json::Value* frugal = value.get("frugal")) {
    check_config(frugal->is_object(),
                 "report: \"frugal\" must be a JSON object");
    Report::Frugal f;
    f.config = parallel::ParallelConfig::parse(
        wire_field(*frugal, "config").as_string());
    f.result = result_from_wire(*frugal, "result");
    f.memory_min = memory_from_wire(*frugal, "memory_min");
    r.frugal = std::move(f);
  }
  return r;
}

Table to_table(const std::vector<Report>& reports) {
  Table t({"Scenario", "Method", "Model", "B", "beta", "Config",
           "Tflop/s/GPU", "Util", "Memory", "Memory min"});
  for (const Report& r : reports) {
    if (!r.found) {
      t.add_row({r.scenario, r.method, r.model, std::to_string(r.batch_size),
                 format_number(r.beta(), 3), "(none feasible)", "-", "-", "-",
                 "-"});
      continue;
    }
    t.add_row({r.scenario, r.method, r.model, std::to_string(r.batch_size),
               format_number(r.beta(), 3), r.config.describe(),
               str_format("%.2f", r.result.throughput_per_gpu / 1e12),
               str_format("%.1f%%", 100.0 * r.result.utilization),
               format_bytes(r.memory.total()),
               format_bytes(r.memory_min.total())});
  }
  return t;
}

std::string to_csv(const std::vector<Report>& reports) {
  std::string out = Report::csv_header() + "\n";
  for (const Report& r : reports) out += r.to_csv_row() + "\n";
  return out;
}

std::string to_json(const std::vector<Report>& reports) {
  if (reports.empty()) return "[]\n";
  // Array elements sit at column 0, one pretty object after another.
  std::string out = "[\n";
  Writer w(out, 2);
  for (size_t i = 0; i < reports.size(); ++i) {
    reports[i].write_json(w);
    out += i + 1 < reports.size() ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

}  // namespace bfpp::api
