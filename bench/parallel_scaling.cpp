// Parallel-engine scaling bench: wall-clock, synchronization rounds, mailbox
// traffic and barrier-wait fractions as the worker count grows, per protocol
// and per fabric. The three-tier tree runs one domain per worker; the k=8
// fat-tree runs one domain per pod (8) at every worker count, and each row
// records its domain count.
//
// Grid: workers {1, 2, 4, 8} x {three-tier web-search, k=8 fat-tree} x
// {pase, pfabric, dctcp}. Every window is the static min-cut window: the
// global next-event time plus the partition lookahead. Round counts are
// deterministic — they depend only on the event timeline and the partition,
// never on the worker count — so the k=8 fat-tree's round statistics are the
// same at every worker count (CI gates 2 against 4 workers), even on a
// 1-core container where wall-clock speedup cannot show.
//
// Results land in BENCH_parallel.json.
//
// Flags:
//   --quick    workers {1, 2, 4}, smaller workloads (CI smoke)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "workload/scenario.h"

namespace {

using namespace pase;
using workload::Pattern;
using workload::Protocol;
using workload::ScenarioConfig;
using workload::SizeDistribution;

struct CaseOut {
  std::string protocol;
  std::string topology;
  int workers = 1;
  int workers_used = 1;
  int domains = 0;  // zero for sequential rows
  std::string fallback_reason;
  std::uint64_t flows = 0;
  std::uint64_t sim_packets = 0;
  double wall_sec = 0.0;
  double packets_per_sec = 0.0;
  double afct_s = 0.0;
  double end_time_s = 0.0;
  // Engine round statistics (zero for sequential rows).
  std::uint64_t rounds = 0;
  std::uint64_t drains = 0;
  std::uint64_t quiet_rounds = 0;
  std::uint64_t cross_posts = 0;
  double horizon_width_mean_s = 0.0;
  double barrier_wait_sec = 0.0;
  double barrier_wait_frac = 0.0;
};

double metric(const workload::ScenarioResult& r, const char* name) {
  for (const auto& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

const char* lower_name(Protocol p) {
  switch (p) {
    case Protocol::kPase: return "pase";
    case Protocol::kPfabric: return "pfabric";
    default: return "dctcp";
  }
}

ScenarioConfig three_tier_config(bool quick) {
  ScenarioConfig cfg;
  cfg.topology = ScenarioConfig::TopologyKind::kThreeTier;
  cfg.tree.num_tors = quick ? 4 : 8;
  cfg.tree.hosts_per_tor = quick ? 4 : 8;
  cfg.traffic.pattern = Pattern::kLeftRight;
  cfg.traffic.size_dist = SizeDistribution::kWebSearch;
  cfg.traffic.load = 0.6;
  cfg.traffic.num_flows = quick ? 200 : 800;
  cfg.traffic.seed = 11;
  return cfg;
}

ScenarioConfig fattree_config(bool quick) {
  ScenarioConfig cfg;
  cfg.topology = ScenarioConfig::TopologyKind::kFatTree;
  cfg.fattree.k = 8;
  cfg.traffic.pattern = Pattern::kIntraRackRandom;  // any-to-any over hosts
  cfg.traffic.size_dist = SizeDistribution::kWebSearch;
  cfg.traffic.load = 0.3;
  cfg.traffic.num_background_flows = 0;
  cfg.traffic.num_flows = quick ? 300 : 1500;
  cfg.traffic.seed = 17;
  return cfg;
}

CaseOut run_case(ScenarioConfig cfg, const char* topology, Protocol proto,
                 int workers) {
  cfg.protocol = proto;
  cfg.workers = workers;
  const auto t0 = std::chrono::steady_clock::now();
  const workload::ScenarioResult r = workload::run_scenario(cfg);
  const double wall_sec = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

  CaseOut c;
  c.protocol = lower_name(proto);
  c.topology = topology;
  c.workers = workers;
  c.workers_used = r.workers_used;
  c.domains = static_cast<int>(metric(r, "parallel.domains"));
  c.fallback_reason = r.parallel_fallback_reason;
  c.flows = r.total_flows();
  c.sim_packets = r.data_packets_sent;
  c.wall_sec = wall_sec;
  c.packets_per_sec =
      wall_sec > 0.0
          ? static_cast<double>(r.data_packets_sent) / wall_sec
          : 0.0;
  c.afct_s = r.afct();
  c.end_time_s = r.end_time;
  c.rounds = static_cast<std::uint64_t>(metric(r, "parallel.rounds"));
  c.drains = static_cast<std::uint64_t>(metric(r, "parallel.drains"));
  c.quiet_rounds =
      static_cast<std::uint64_t>(metric(r, "parallel.quiet_rounds"));
  c.cross_posts =
      static_cast<std::uint64_t>(metric(r, "parallel.cross_posts"));
  c.horizon_width_mean_s = metric(r, "parallel.horizon_width_mean");
  c.barrier_wait_sec = r.parallel_barrier_wait_sec;
  // Fraction of total thread-seconds spent blocked past the spin burst.
  c.barrier_wait_frac =
      wall_sec > 0.0 && r.workers_used > 0
          ? r.parallel_barrier_wait_sec /
                (wall_sec * static_cast<double>(r.workers_used))
          : 0.0;
  return c;
}

void append_case_json(std::string& json, const CaseOut& c, bool last) {
  char row[1024];
  std::snprintf(
      row, sizeof(row),
      "    {\"protocol\": \"%s\", \"topology\": \"%s\", \"workers\": %d,\n"
      "     \"workers_used\": %d, \"domains\": %d,"
      " \"fallback_reason\": \"%s\",\n"
      "     \"flows\": %llu, \"sim_packets\": %llu, \"wall_sec\": %.6f,\n"
      "     \"packets_per_sec\": %.1f, \"afct_s\": %.9f, "
      "\"end_time_s\": %.6f,\n"
      "     \"rounds\": %llu, \"drains\": %llu, \"quiet_rounds\": %llu,\n"
      "     \"cross_posts\": %llu, \"horizon_width_mean_s\": %.9g,\n"
      "     \"barrier_wait_sec\": %.6f, \"barrier_wait_frac\": %.6f}",
      c.protocol.c_str(), c.topology.c_str(), c.workers, c.workers_used,
      c.domains, c.fallback_reason.c_str(),
      static_cast<unsigned long long>(c.flows),
      static_cast<unsigned long long>(c.sim_packets), c.wall_sec,
      c.packets_per_sec, c.afct_s, c.end_time_s,
      static_cast<unsigned long long>(c.rounds),
      static_cast<unsigned long long>(c.drains),
      static_cast<unsigned long long>(c.quiet_rounds),
      static_cast<unsigned long long>(c.cross_posts),
      c.horizon_width_mean_s, c.barrier_wait_sec, c.barrier_wait_frac);
  json += row;
  if (!last) json += ",";
  json += "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const std::vector<int> worker_counts =
      quick ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};
  const Protocol protocols[] = {Protocol::kPase, Protocol::kPfabric,
                                Protocol::kDctcp};
  struct Topo {
    const char* name;
    ScenarioConfig cfg;
  };
  const Topo topos[] = {{"three_tier", three_tier_config(quick)},
                        {"fat_tree_k8", fattree_config(quick)}};

  std::printf("parallel scaling (%s)\n", quick ? "quick" : "full");
  std::printf("%-8s %-12s %3s %4s %4s %8s %9s %9s %8s %9s %10s %7s\n",
              "proto", "topo", "w", "used", "dom", "wall(s)", "rounds",
              "drains", "quiet", "posts", "width(us)", "bwait%");

  std::string json = "{\n  \"bench\": \"parallel\",\n  \"mode\": \"";
  json += quick ? "quick" : "full";
  json += "\",\n  \"cases\": [\n";

  std::vector<CaseOut> cases;
  for (const Topo& t : topos) {
    for (const Protocol p : protocols) {
      for (const int w : worker_counts) {
        const CaseOut c = run_case(t.cfg, t.name, p, w);
        std::printf(
            "%-8s %-12s %3d %4d %4d %8.3f %9llu %9llu %8llu %9llu %10.2f "
            "%7.2f\n",
            c.protocol.c_str(), c.topology.c_str(), c.workers, c.workers_used,
            c.domains, c.wall_sec, static_cast<unsigned long long>(c.rounds),
            static_cast<unsigned long long>(c.drains),
            static_cast<unsigned long long>(c.quiet_rounds),
            static_cast<unsigned long long>(c.cross_posts),
            c.horizon_width_mean_s * 1e6, c.barrier_wait_frac * 100.0);
        std::fflush(stdout);
        cases.push_back(c);
      }
    }
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    append_case_json(json, cases[i], i + 1 == cases.size());
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen("BENCH_parallel.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: could not write BENCH_parallel.json\n");
    return 0;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote BENCH_parallel.json\n");
  return 0;
}
