// End-to-end hot-path throughput: simulated data packets per wall-clock
// second, per protocol, on the single-rack and three-tier topologies with
// the web-search flow-size distribution.
//
// This is the repo's perf trajectory for the steady-state packet path
// (event dispatch, link hop, queue discipline, host demux): the workload is
// deterministic per config, so packets/sec moves only when the engine does.
// Results are written to BENCH_hotpath.json. Wall-clock numbers are machine
// dependent: compare packets/sec only between runs on the same machine (see
// EXPERIMENTS.md).
//
// Flags:
//   --quick          smaller grids, one repetition (CI smoke)
//   --reps=N         timing repetitions per case (default 3; best-of-N)
//   --protocols=a,b  protocol subset (default: all six)
//   --workers=N      run every case with N parallel domains (labels gain a
//                    "-wN" suffix)
//   --trace=<path>   after the timing loop, rerun the first case once with
//                    tracing enabled and write the merged trace (JSONL, or
//                    Chrome trace_event when the path ends ".chrome.json");
//                    the timed measurements themselves always run untraced
//   --trace-filter=<categories>  comma list: flow,packet,arb,endpoint,queue,
//                    engine (default all)
//
// Full mode additionally records a workers ∈ {1,2,4,8} scaling series for
// the large three-tier web-search scenario (the "dctcp/three-tier" case is
// the 1-worker reference; "-w2/-w4/-w8" rows rerun it with that many
// domains), so the series reads as parallel scaling against the 1-worker
// row of the same run — on a single-core machine expect no gain.
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using namespace pase;
using workload::Pattern;
using workload::Protocol;
using workload::ScenarioConfig;
using workload::SizeDistribution;

struct Case {
  std::string label;      // "<protocol>/<topology>", stable JSON key
  std::string topology;   // "single-rack" | "three-tier"
  std::string workload;   // human-readable description
  ScenarioConfig config;
};

std::string lower_name(Protocol p) {
  std::string s = workload::protocol_name(p);
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

std::vector<Case> build_cases(const std::vector<Protocol>& protocols,
                              bool quick, int workers) {
  const std::string wsuffix =
      workers > 1 ? "-w" + std::to_string(workers) : "";
  std::vector<Case> cases;
  for (Protocol p : protocols) {
    {
      ScenarioConfig cfg;
      cfg.protocol = p;
      cfg.topology = ScenarioConfig::TopologyKind::kSingleRack;
      cfg.rack.num_hosts = quick ? 20 : 40;
      cfg.traffic.pattern = Pattern::kIntraRackRandom;
      cfg.traffic.size_dist = SizeDistribution::kWebSearch;
      cfg.traffic.load = 0.7;
      cfg.traffic.num_flows = quick ? 200 : 1200;
      cfg.traffic.seed = 42;
      cfg.workers = workers;
      char desc[96];
      std::snprintf(desc, sizeof(desc),
                    "web-search all-to-all load=0.70 hosts=%d flows=%d",
                    cfg.rack.num_hosts, cfg.traffic.num_flows);
      cases.push_back({lower_name(p) + "/single-rack" +
                           (quick ? "-quick" : "") + wsuffix,
                       "single-rack", desc, cfg});
    }
    {
      ScenarioConfig cfg;
      cfg.protocol = p;
      cfg.topology = ScenarioConfig::TopologyKind::kThreeTier;
      if (quick) cfg.tree.hosts_per_tor = 10;
      cfg.traffic.pattern = Pattern::kLeftRight;
      cfg.traffic.size_dist = SizeDistribution::kWebSearch;
      cfg.traffic.load = 0.6;
      cfg.traffic.num_flows = quick ? 150 : 800;
      cfg.traffic.seed = 42;
      cfg.workers = workers;
      char desc[96];
      std::snprintf(desc, sizeof(desc),
                    "web-search left-right load=0.60 hosts=%d flows=%d",
                    cfg.tree.num_tors * cfg.tree.hosts_per_tor,
                    cfg.traffic.num_flows);
      cases.push_back({lower_name(p) + "/three-tier" +
                           (quick ? "-quick" : "") + wsuffix,
                       "three-tier", desc, cfg});
    }
  }
  // Parallel scaling series: the large three-tier web-search scenario rerun
  // at 2/4/8 domains (the plain dctcp/three-tier row above is the 1-worker
  // point). Only in full sequential mode — an explicit --workers=N already
  // makes every row a parallel measurement.
  if (!quick && workers == 1) {
    for (const Case& c : cases) {
      if (c.label != "dctcp/three-tier") continue;
      for (const int w : {2, 4, 8}) {
        Case series = c;
        series.config.workers = w;
        series.label += "-w" + std::to_string(w);
        cases.push_back(std::move(series));
      }
      break;
    }
  }
  return cases;
}

struct Measurement {
  std::uint64_t sim_packets = 0;
  double wall_sec_best = 0.0;
  double packets_per_sec = 0.0;
  int workers_used = 1;
};

Measurement measure(const ScenarioConfig& cfg, int reps) {
  Measurement m;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = workload::run_scenario(cfg);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    m.sim_packets = result.data_packets_sent;
    m.workers_used = result.workers_used;
    if (r == 0 || wall < m.wall_sec_best) m.wall_sec_best = wall;
  }
  if (m.wall_sec_best > 0.0) {
    m.packets_per_sec =
        static_cast<double>(m.sim_packets) / m.wall_sec_best;
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int reps = 3;
  int workers = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
      if (reps < 1) reps = 1;
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = std::atoi(argv[i] + 10);
      if (workers < 1) workers = 1;
    }
  }
  if (quick) reps = 1;

  const std::vector<Protocol> protocols = bench::protocols_from_cli(
      argc, argv,
      {Protocol::kDctcp, Protocol::kD2tcp, Protocol::kL2dct, Protocol::kPdq,
       Protocol::kPfabric, Protocol::kPase});
  const std::vector<Case> cases = build_cases(protocols, quick, workers);

  std::printf("hot-path throughput (%s, best of %d)\n",
              quick ? "quick" : "full", reps);
  std::printf("%-26s %12s %10s %14s\n", "case", "sim pkts", "wall(s)",
              "pkts/sec");

  std::string json = "{\n  \"bench\": \"hotpath\",\n  \"mode\": \"";
  json += quick ? "quick" : "full";
  json += "\",\n  \"reps\": " + std::to_string(reps) + ",\n  \"cases\": [\n";

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const Measurement m = measure(c.config, reps);
    std::printf("%-26s %12llu %10.3f %14.0f\n", c.label.c_str(),
                static_cast<unsigned long long>(m.sim_packets),
                m.wall_sec_best, m.packets_per_sec);
    std::fflush(stdout);

    char row[512];
    std::snprintf(
        row, sizeof(row),
        "    {\"label\": \"%s\", \"protocol\": \"%s\", \"topology\": \"%s\",\n"
        "     \"workload\": \"%s\",\n"
        "     \"workers\": %d, \"workers_used\": %d,\n"
        "     \"sim_packets\": %llu, \"wall_sec_best\": %.6f,\n"
        "     \"packets_per_sec\": %.1f}%s\n",
        c.label.c_str(),
        workload::protocol_name(c.config.protocol), c.topology.c_str(),
        c.workload.c_str(), c.config.workers, m.workers_used,
        static_cast<unsigned long long>(m.sim_packets),
        m.wall_sec_best, m.packets_per_sec,
        i + 1 < cases.size() ? "," : "");
    json += row;
  }
  json += "  ]\n}\n";

  const bench::TraceOptions trace = bench::trace_from_cli(argc, argv);
  if (trace.enabled() && !cases.empty()) {
    ScenarioConfig cfg = cases[0].config;
    cfg.trace.enabled = true;
    cfg.trace.categories = trace.categories;
    const auto traced = workload::run_scenario(cfg);
    if (bench::write_trace_file(traced, trace.path)) {
      std::printf("trace for '%s' written to %s\n", cases[0].label.c_str(),
                  trace.path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write trace to %s\n",
                   trace.path.c_str());
    }
  }

  std::FILE* f = std::fopen("BENCH_hotpath.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: could not write BENCH_hotpath.json\n");
    return 0;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote BENCH_hotpath.json\n");
  return 0;
}
