#include "exp/sweep.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <thread>
#include <utility>

#include "obs/json.h"

namespace pase::exp {

unsigned resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("PASE_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

SweepRunner::SweepRunner(unsigned threads) : threads_(resolve_threads(threads)) {}

std::vector<workload::ScenarioResult> SweepRunner::run(
    const std::vector<workload::ScenarioConfig>& configs) const {
  std::vector<workload::ScenarioResult> results(configs.size());
  std::vector<std::exception_ptr> errors(configs.size());

  // Results land in the slot matching the config's index, so the output
  // order never depends on scheduling; each scenario's simulation is a pure
  // function of its config.
  const auto run_one = [&](std::size_t i) {
    try {
      results[i] = workload::run_scenario(configs[i]);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  const std::size_t n = configs.size();
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads_, n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) run_one(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
          run_one(i);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  for (std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

namespace {

void append_field(std::string& out, const char* key, double v) {
  out += '"';
  out += key;
  out += "\": ";
  obs::append_json_number(out, v);
}

}  // namespace

std::string scenario_record(
    const SweepCase& c, const workload::ScenarioResult& r,
    const std::vector<std::pair<std::string, long long>>& counts,
    const std::vector<std::pair<std::string, double>>& measures) {
  std::string out;
  out.reserve(512);
  out += "{\"label\": ";
  obs::append_json_string(out, c.label);
  out += ", \"protocol\": ";
  obs::append_json_string(out, workload::protocol_name(c.config.protocol));
  out += ", \"topology\": ";
  switch (c.config.topology) {
    case workload::ScenarioConfig::TopologyKind::kSingleRack:
      obs::append_json_string(out, "single_rack");
      break;
    case workload::ScenarioConfig::TopologyKind::kFatTree:
      obs::append_json_string(out, "fat_tree");
      break;
    case workload::ScenarioConfig::TopologyKind::kThreeTier:
      obs::append_json_string(out, "three_tier");
      break;
  }
  out += ", ";
  append_field(out, "load", c.config.traffic.load);
  out += ", \"num_flows\": " + std::to_string(c.config.traffic.num_flows);
  out += ", \"seed\": " + std::to_string(c.config.traffic.seed);
  out += ", ";
  append_field(out, "afct_s", r.afct());
  out += ", ";
  append_field(out, "fct_p99_s", r.fct_p99());
  out += ", ";
  append_field(out, "app_throughput", r.app_throughput());
  out += ", ";
  append_field(out, "loss_rate", r.loss_rate());
  out += ", \"unfinished\": " + std::to_string(r.unfinished());
  out += ", \"flows\": " + std::to_string(r.total_flows());
  out += ", \"fabric_drops\": " + std::to_string(r.fabric_drops);
  out += ", \"data_packets_sent\": " + std::to_string(r.data_packets_sent);
  out += ", \"probes_sent\": " + std::to_string(r.probes_sent);
  out += ", \"control_messages_sent\": " +
         std::to_string(r.control.messages_sent);
  out += ", ";
  append_field(out, "end_time_s", r.end_time);
  out += ", \"workers_used\": " + std::to_string(r.workers_used);
  out += ", \"parallel_fallback_reason\": ";
  obs::append_json_string(out, r.parallel_fallback_reason);
  out += ", \"metrics\": {";
  for (std::size_t m = 0; m < r.metrics.size(); ++m) {
    if (m > 0) out += ", ";
    obs::append_json_string(out, r.metrics[m].name);
    out += ": ";
    obs::append_json_number(out, r.metrics[m].value);
  }
  out += '}';
  for (const auto& [key, value] : counts) {
    out += ", ";
    obs::append_json_string(out, key);
    out += ": " + std::to_string(value);
  }
  for (const auto& [key, value] : measures) {
    out += ", ";
    append_field(out, key.c_str(), value);
  }
  out += '}';
  return out;
}

std::string sweep_document(const std::string& name,
                           const std::vector<std::string>& records) {
  std::string out;
  out += "{\n  \"name\": ";
  obs::append_json_string(out, name);
  out += ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out += "    ";
    out += records[i];
    if (i + 1 < records.size()) out += ',';
    out += '\n';
  }
  out += "  ]\n}\n";
  return out;
}

std::string sweep_to_json(
    const std::string& name, const std::vector<SweepCase>& cases,
    const std::vector<workload::ScenarioResult>& results) {
  assert(cases.size() == results.size());
  std::vector<std::string> records;
  records.reserve(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    records.push_back(scenario_record(cases[i], results[i]));
  }
  return sweep_document(name, records);
}

bool write_sweep_json(const std::string& path, const std::string& name,
                      const std::vector<SweepCase>& cases,
                      const std::vector<workload::ScenarioResult>& results) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  const std::string doc = sweep_to_json(name, cases, results);
  f.write(doc.data(), static_cast<std::streamsize>(doc.size()));
  return static_cast<bool>(f);
}

}  // namespace pase::exp
