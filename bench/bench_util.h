// Shared helpers for the figure-reproduction benches: the paper's standard
// scenarios (§4.1), the parallel sweep-grid driver, and table printing.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "exp/sweep.h"
#include "obs/trace.h"
#include "obs/trace_sink.h"
#include "workload/scenario.h"

namespace pase::bench {

using workload::Pattern;
using workload::Protocol;
using workload::ScenarioConfig;
using workload::ScenarioResult;

// Parses `--threads=N` (or `--threads N`) from the bench's argv. Returns 0
// when absent, which lets SweepRunner fall back to PASE_THREADS / core count.
inline unsigned parse_threads(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      const long n = std::strtol(argv[i] + 10, nullptr, 10);
      if (n > 0) return static_cast<unsigned>(n);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const long n = std::strtol(argv[i + 1], nullptr, 10);
      if (n > 0) return static_cast<unsigned>(n);
    }
  }
  return 0;
}

// Parses `--workers=N` (parallel-engine workers per run) from argv. Returns
// 1 when absent and 0 — after printing why — when N is not a positive
// integer, so callers can exit on 0.
inline int parse_workers(int argc, char** argv) {
  int workers = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = std::atoi(argv[i] + 10);
      if (workers < 1) {
        std::fprintf(stderr, "error: --workers must be at least 1\n");
        return 0;
      }
    }
  }
  return workers;
}

// Parses `--protocols=a,b,c` (or `--protocols a,b,c`; `--protocol` is an
// accepted alias) into Protocol values via workload::parse_protocol, so any
// figure can be re-run over a different protocol subset without recompiling:
//
//   ./build/bench/fig09a_afct_deployment_friendly --protocols=pase,pdq
//
// Returns `defaults` when the flag is absent; exits with a message naming
// the unknown spelling otherwise.
inline std::vector<Protocol> protocols_from_cli(
    int argc, char** argv, std::vector<Protocol> defaults) {
  std::string list;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--protocols=", 12) == 0) {
      list = a + 12;
    } else if (std::strncmp(a, "--protocol=", 11) == 0) {
      list = a + 11;
    } else if ((std::strcmp(a, "--protocols") == 0 ||
                std::strcmp(a, "--protocol") == 0) &&
               i + 1 < argc) {
      list = argv[++i];
    }
  }
  if (list.empty()) return defaults;

  std::vector<Protocol> chosen;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string tok =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) {
      if (const auto p = workload::parse_protocol(tok)) {
        chosen.push_back(*p);
      } else {
        std::fprintf(stderr,
                     "unknown protocol '%s' (expected one of "
                     "dctcp,d2tcp,l2dct,pdq,pfabric,pase)\n",
                     tok.c_str());
        std::exit(1);
      }
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (chosen.empty()) {
    std::fprintf(stderr, "--protocols needs at least one protocol\n");
    std::exit(1);
  }
  return chosen;
}

// Structured-trace request parsed from a bench's argv:
//   --trace=<path>              enable tracing, write the merged trace there
//   --trace-filter=<categories> comma list (flow,packet,arb,endpoint,queue,
//                               engine) or "all"; default all
// A path ending in ".chrome.json" selects the Chrome trace_event sink
// (openable in chrome://tracing); anything else gets schema-versioned JSONL.
struct TraceOptions {
  std::string path;  // empty = tracing off
  std::uint32_t categories = obs::kAllCategories;
  bool enabled() const { return !path.empty(); }
};

inline TraceOptions trace_from_cli(int argc, char** argv) {
  TraceOptions t;
  std::string filter;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--trace=", 8) == 0) {
      t.path = a + 8;
    } else if (std::strcmp(a, "--trace") == 0 && i + 1 < argc) {
      t.path = argv[++i];
    } else if (std::strncmp(a, "--trace-filter=", 15) == 0) {
      filter = a + 15;
    } else if (std::strcmp(a, "--trace-filter") == 0 && i + 1 < argc) {
      filter = argv[++i];
    }
  }
  if (!filter.empty()) t.categories = obs::parse_categories(filter);
  return t;
}

// Writes a result's merged trace in the format the path's suffix selects.
inline bool write_trace_file(const ScenarioResult& r, const std::string& path) {
  if (!r.trace) return false;
  static constexpr const char* kChromeSuffix = ".chrome.json";
  const std::size_t n = std::strlen(kChromeSuffix);
  const bool chrome =
      path.size() >= n && path.compare(path.size() - n, n, kChromeSuffix) == 0;
  return chrome ? r.trace->write_chrome_json(path) : r.trace->write_jsonl(path);
}

// Telemetry request parsed from a bench's argv:
//   --telemetry=<path>          enable the telemetry plane, write the
//                               "pase-telemetry" JSONL summary there
//   --telemetry-period=<sec>    sample grid period (default 1 ms)
// Like tracing, telemetry applies to the grid's first cell.
struct TelemetryOptions {
  std::string path;  // empty = telemetry off
  double period = 1e-3;
  bool enabled() const { return !path.empty(); }
};

inline TelemetryOptions telemetry_from_cli(int argc, char** argv) {
  TelemetryOptions t;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--telemetry=", 12) == 0) {
      t.path = a + 12;
    } else if (std::strcmp(a, "--telemetry") == 0 && i + 1 < argc) {
      t.path = argv[++i];
    } else if (std::strncmp(a, "--telemetry-period=", 19) == 0) {
      const double p = std::atof(a + 19);
      if (p > 0) t.period = p;
    }
  }
  return t;
}

// `--profile`: enable the engine self-profiler, folding profile.* entries
// (dispatch mix, calendar scan stats, path-cache hit rates) into every
// cell's metrics snapshot — and therefore into the sweep JSON.
inline bool profile_from_cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--profile") == 0) return true;
  }
  return false;
}

// Fabric override for any figure bench: `--topology=fattree [--k=N]`
// rebases every sweep cell onto a k-ary fat-tree (default k=16, 1024 hosts)
// so the paper's AFCT/CDF/deadline figures can be reproduced on a
// datacenter-scale Clos fabric instead of the small three-tier tree.
// Traffic pattern, load and flow counts carry over unchanged; the scenario
// layer re-derives per-host rates and host counts from the built topology,
// and structural route synthesis keeps setup time flat at any k.
inline void apply_topology_override(ScenarioConfig& cfg, int argc,
                                    char** argv) {
  bool fattree = false;
  int k = 16;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--topology=fattree") == 0) {
      fattree = true;
    } else if (std::strncmp(argv[i], "--k=", 4) == 0) {
      k = std::atoi(argv[i] + 4);
    }
  }
  if (!fattree) return;
  cfg.topology = ScenarioConfig::TopologyKind::kFatTree;
  cfg.fattree.k = k;
}

// Column headers matching a protocol list, for print_header.
inline std::vector<std::string> protocol_columns(
    const std::vector<Protocol>& protocols) {
  std::vector<std::string> cols;
  cols.reserve(protocols.size());
  for (Protocol p : protocols) cols.emplace_back(workload::protocol_name(p));
  return cols;
}

inline std::string case_label(Protocol p, double load) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s load=%.2f", workload::protocol_name(p),
                load);
  return buf;
}

// A figure's sweep grid: add() every cell in print order, run() once (fanning
// the cells out across worker threads and writing BENCH_<name>.json), then
// read the results back positionally.
class Sweep {
 public:
  explicit Sweep(std::string name) : name_(std::move(name)) {}

  // Returns the cell's index, in submission order.
  std::size_t add(std::string label, ScenarioConfig cfg) {
    cases_.push_back({std::move(label), std::move(cfg)});
    return cases_.size() - 1;
  }

  // Standard bench entry: honors --threads plus the tracing, telemetry and
  // profiling flags. Tracing and telemetry apply to the grid's first cell
  // (figures order cells per protocol, so pass --protocols=<one> to pick
  // which run is observed); --profile applies to every cell.
  const std::vector<ScenarioResult>& run(int argc, char** argv) {
    for (auto& c : cases_) apply_topology_override(c.config, argc, argv);
    const TraceOptions trace = trace_from_cli(argc, argv);
    if (trace.enabled() && !cases_.empty()) {
      cases_[0].config.trace.enabled = true;
      cases_[0].config.trace.categories = trace.categories;
    }
    const TelemetryOptions telemetry = telemetry_from_cli(argc, argv);
    if (telemetry.enabled() && !cases_.empty()) {
      cases_[0].config.telemetry.enabled = true;
      cases_[0].config.telemetry.sample_period = telemetry.period;
    }
    if (profile_from_cli(argc, argv)) {
      for (auto& c : cases_) c.config.profile = true;
    }
    run(parse_threads(argc, argv));
    if (trace.enabled() && !results_.empty()) {
      if (write_trace_file(results_[0], trace.path)) {
        std::fprintf(stderr, "trace for '%s' written to %s\n",
                     cases_[0].label.c_str(), trace.path.c_str());
      } else {
        std::fprintf(stderr, "warning: could not write trace to %s\n",
                     trace.path.c_str());
      }
    }
    if (telemetry.enabled() && !results_.empty()) {
      if (results_[0].telemetry &&
          results_[0].telemetry->write_jsonl(telemetry.path)) {
        std::fprintf(stderr, "telemetry for '%s' written to %s\n",
                     cases_[0].label.c_str(), telemetry.path.c_str());
      } else {
        std::fprintf(stderr, "warning: could not write telemetry to %s\n",
                     telemetry.path.c_str());
      }
    }
    return results_;
  }

  const std::vector<ScenarioResult>& run(unsigned threads = 0) {
    std::vector<ScenarioConfig> configs;
    configs.reserve(cases_.size());
    for (const auto& c : cases_) configs.push_back(c.config);
    results_ = exp::SweepRunner(threads).run(configs);
    const std::string path = "BENCH_" + name_ + ".json";
    if (!exp::write_sweep_json(path, name_, cases_, results_)) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    }
    return results_;
  }

  const ScenarioResult& operator[](std::size_t i) const { return results_[i]; }

 private:
  std::string name_;
  std::vector<exp::SweepCase> cases_;
  std::vector<ScenarioResult> results_;
};

inline const std::vector<double>& standard_loads() {
  static const std::vector<double> loads{0.1, 0.2, 0.3, 0.4, 0.5,
                                         0.6, 0.7, 0.8, 0.9};
  return loads;
}

// §4.1 default: 3-tier tree, left-right traffic, U[2,198] KB, 2 background
// flows ("left-right inter-rack" scenario).
inline ScenarioConfig left_right(Protocol p, double load,
                                 int num_flows = 1000,
                                 std::uint64_t seed = 11) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.topology = ScenarioConfig::TopologyKind::kThreeTier;
  cfg.traffic.pattern = Pattern::kLeftRight;
  cfg.traffic.load = load;
  cfg.traffic.num_flows = num_flows;
  cfg.traffic.seed = seed;
  return cfg;
}

// D2TCP's experiment 4.1.3 (paper §2/§4.2): 20-host rack, random pairs,
// U[100,500] KB, two background flows, optional U[5,25] ms deadlines.
inline ScenarioConfig intra_rack_20(Protocol p, double load,
                                    bool deadlines,
                                    int num_flows = 800,
                                    std::uint64_t seed = 13) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.topology = ScenarioConfig::TopologyKind::kSingleRack;
  cfg.rack.num_hosts = 20;
  cfg.traffic.pattern = Pattern::kIntraRackRandom;
  cfg.traffic.load = load;
  cfg.traffic.num_flows = num_flows;
  cfg.traffic.size_min_bytes = 100e3;
  cfg.traffic.size_max_bytes = 500e3;
  if (deadlines) {
    cfg.traffic.deadline_min = 5e-3;
    cfg.traffic.deadline_max = 25e-3;
  }
  cfg.traffic.seed = seed;
  return cfg;
}

// §4.2.2 all-to-all scenario: 40-host rack, U[2,198] KB.
inline ScenarioConfig all_to_all_40(Protocol p, double load,
                                    int num_flows = 1000,
                                    std::uint64_t seed = 19) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.topology = ScenarioConfig::TopologyKind::kSingleRack;
  cfg.rack.num_hosts = 40;
  cfg.traffic.pattern = Pattern::kIntraRackRandom;
  cfg.traffic.load = load;
  cfg.traffic.num_flows = num_flows;
  cfg.traffic.seed = seed;
  return cfg;
}

inline void print_header(const std::string& title,
                         const std::vector<std::string>& columns) {
  std::printf("%s\n", title.c_str());
  std::printf("%-10s", "load(%)");
  for (const auto& c : columns) std::printf("%16s", c.c_str());
  std::printf("\n");
}

inline void print_row(double load, const std::vector<double>& values,
                      const char* fmt = "%16.3f") {
  std::printf("%-10.0f", load * 100);
  for (double v : values) std::printf(fmt, v);
  std::printf("\n");
}

}  // namespace pase::bench
