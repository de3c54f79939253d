// Parallel-engine scaling bench: wall-clock, synchronization rounds, mailbox
// traffic and barrier-wait fractions as the worker count grows, per protocol
// and per fabric. The three-tier tree runs one domain per worker; the k=8
// fat-tree runs one domain per pod (8) at every worker count, and each row
// records its domain count.
//
// Grid: workers {1, 2, 4, 8} x {three-tier web-search, k=8 fat-tree} x
// {pase, pfabric, dctcp}. Every parallel run uses the conditional-lookahead
// horizon (the default); the workers=4 rows are additionally re-run with the
// static min-cut horizon so the round-count saving is visible per case. The
// round counts are deterministic — they depend only on the event timeline
// and the horizon mode — so the "rounds drop" claim holds even on a 1-core
// container where wall-clock speedup cannot.
//
// A separate "lookahead" section isolates the conditional horizon's best
// case: pod-local traffic on a k=8 fat-tree (16 hosts per pod, one pod per
// domain, 4 workers). No flow crosses a pod boundary, so every event sits
// at least an edge-agg-core store-and-forward distance from the nearest cut
// link, and the probe certifies windows that span whole ACK exchanges. CI
// gates conditional_rounds < static_rounds here, and rounds <= static rounds
// on every grid row that records both.
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

#include "net/packet.h"
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
  // Static min-cut re-run of the same case (workers == 4 rows only).
  bool has_static = false;
  std::uint64_t static_rounds = 0;
  double static_horizon_width_mean_s = 0.0;
  double static_wall_sec = 0.0;
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

struct RunOut {
  workload::ScenarioResult result;
  double wall_sec = 0.0;
};

RunOut timed_run(ScenarioConfig cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  RunOut out;
  out.result = workload::run_scenario(cfg);
  out.wall_sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  return out;
}

CaseOut run_case(ScenarioConfig cfg, const char* topology, Protocol proto,
                 int workers, bool with_static) {
  cfg.protocol = proto;
  cfg.workers = workers;
  const RunOut run = timed_run(cfg);
  const workload::ScenarioResult& r = run.result;

  CaseOut c;
  c.protocol = lower_name(proto);
  c.topology = topology;
  c.workers = workers;
  c.workers_used = r.workers_used;
  c.domains = static_cast<int>(metric(r, "parallel.domains"));
  c.fallback_reason = r.parallel_fallback_reason;
  c.flows = r.total_flows();
  c.sim_packets = r.data_packets_sent;
  c.wall_sec = run.wall_sec;
  c.packets_per_sec =
      run.wall_sec > 0.0
          ? static_cast<double>(r.data_packets_sent) / run.wall_sec
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
      run.wall_sec > 0.0 && r.workers_used > 0
          ? r.parallel_barrier_wait_sec /
                (run.wall_sec * static_cast<double>(r.workers_used))
          : 0.0;

  if (with_static && workers > 1) {
    cfg.horizon_mode = ScenarioConfig::HorizonMode::kStaticMinCut;
    const RunOut st = timed_run(cfg);
    c.has_static = true;
    c.static_rounds =
        static_cast<std::uint64_t>(metric(st.result, "parallel.rounds"));
    c.static_horizon_width_mean_s =
        metric(st.result, "parallel.horizon_width_mean");
    c.static_wall_sec = st.wall_sec;
  }
  return c;
}

// Pod-local traffic for the lookahead section — in fact rack-local: every
// flow stays under its source's edge switch, so at one-pod-per-domain
// partitioning nothing crosses a cut link AND every active link stays at
// least two store-and-forward hops (edge->agg plus the cut's own
// serialization) away from the nearest agg->core uplink. That distance is
// exactly what the conditional probe certifies; cross-edge traffic inside a
// pod would keep edge->agg links busy and pin the bound one hop from the
// cut. Deterministic LCG so the case is reproducible.
std::vector<transport::Flow> pod_local_flows(const topo::FatTreeConfig& ft,
                                             int num_flows) {
  std::vector<transport::Flow> flows;
  flows.reserve(static_cast<std::size_t>(num_flows));
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  const auto lcg = [&s]() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(s >> 33);
  };
  const int hpe = ft.hosts_per_edge();
  const int num_edges = ft.pods() * ft.edges_per_pod();
  double t = 1e-3;
  for (int i = 0; i < num_flows; ++i) {
    const int edge = i % num_edges;  // round-robin over all racks
    const int src = static_cast<int>(lcg()) % hpe;
    int dst = static_cast<int>(lcg()) % hpe;
    if (dst == src) dst = (src + 1) % hpe;
    transport::Flow f;
    f.id = static_cast<net::FlowId>(i + 1);
    f.src = static_cast<net::NodeId>(edge * hpe + src);  // host index
    f.dst = static_cast<net::NodeId>(edge * hpe + dst);
    f.size_bytes = static_cast<std::uint64_t>(1 + lcg() % 32) * net::kMss;
    f.start_time = t;
    t += 20e-6;
    flows.push_back(f);
  }
  return flows;
}

struct LookaheadOut {
  std::uint64_t conditional_rounds = 0;
  std::uint64_t static_rounds = 0;
  double conditional_width_s = 0.0;
  double static_width_s = 0.0;
  double conditional_wall_sec = 0.0;
  double static_wall_sec = 0.0;
  std::uint64_t cross_posts = 0;
  std::uint64_t flows = 0;
};

LookaheadOut run_lookahead(bool quick) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kDctcp;
  cfg.topology = ScenarioConfig::TopologyKind::kFatTree;
  cfg.fattree.k = 8;
  cfg.workers = 4;  // 8 pod domains of 16 hosts each
  const std::vector<transport::Flow> flows =
      pod_local_flows(cfg.fattree, quick ? 200 : 800);

  LookaheadOut out;
  out.flows = flows.size();

  cfg.horizon_mode = ScenarioConfig::HorizonMode::kConditional;
  {
    const auto t0 = std::chrono::steady_clock::now();
    const workload::ScenarioResult r =
        workload::run_scenario_with_flows(cfg, flows);
    out.conditional_wall_sec = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
    out.conditional_rounds =
        static_cast<std::uint64_t>(metric(r, "parallel.rounds"));
    out.conditional_width_s = metric(r, "parallel.horizon_width_mean");
    out.cross_posts =
        static_cast<std::uint64_t>(metric(r, "parallel.cross_posts"));
  }
  cfg.horizon_mode = ScenarioConfig::HorizonMode::kStaticMinCut;
  {
    const auto t0 = std::chrono::steady_clock::now();
    const workload::ScenarioResult r =
        workload::run_scenario_with_flows(cfg, flows);
    out.static_wall_sec = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    out.static_rounds =
        static_cast<std::uint64_t>(metric(r, "parallel.rounds"));
    out.static_width_s = metric(r, "parallel.horizon_width_mean");
  }
  return out;
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
      "     \"barrier_wait_sec\": %.6f, \"barrier_wait_frac\": %.6f",
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
  if (c.has_static) {
    std::snprintf(row, sizeof(row),
                  ",\n     \"static_rounds\": %llu,"
                  " \"static_horizon_width_mean_s\": %.9g,\n"
                  "     \"static_wall_sec\": %.6f",
                  static_cast<unsigned long long>(c.static_rounds),
                  c.static_horizon_width_mean_s, c.static_wall_sec);
    json += row;
  }
  json += "}";
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

  std::printf("parallel scaling (%s): conditional lookahead, static min-cut "
              "re-run at workers=4\n",
              quick ? "quick" : "full");
  std::printf("%-8s %-12s %3s %4s %4s %8s %9s %9s %8s %9s %10s %7s %10s\n",
              "proto", "topo", "w", "used", "dom", "wall(s)", "rounds",
              "drains", "quiet", "posts", "width(us)", "bwait%",
              "static_rds");

  std::string json = "{\n  \"bench\": \"parallel\",\n  \"mode\": \"";
  json += quick ? "quick" : "full";
  json += "\",\n  \"cases\": [\n";

  std::vector<CaseOut> cases;
  for (const Topo& t : topos) {
    for (const Protocol p : protocols) {
      for (const int w : worker_counts) {
        const CaseOut c = run_case(t.cfg, t.name, p, w, /*with_static=*/w == 4);
        std::printf(
            "%-8s %-12s %3d %4d %4d %8.3f %9llu %9llu %8llu %9llu %10.2f "
            "%7.2f",
            c.protocol.c_str(), c.topology.c_str(), c.workers, c.workers_used,
            c.domains, c.wall_sec, static_cast<unsigned long long>(c.rounds),
            static_cast<unsigned long long>(c.drains),
            static_cast<unsigned long long>(c.quiet_rounds),
            static_cast<unsigned long long>(c.cross_posts),
            c.horizon_width_mean_s * 1e6, c.barrier_wait_frac * 100.0);
        if (c.has_static) {
          std::printf(" %10llu",
                      static_cast<unsigned long long>(c.static_rounds));
        }
        std::printf("\n");
        std::fflush(stdout);
        cases.push_back(c);
      }
    }
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    append_case_json(json, cases[i], i + 1 == cases.size());
  }

  const LookaheadOut la = run_lookahead(quick);
  std::printf("\nlookahead (pod-local k=8 fat-tree, dctcp, workers=4): "
              "conditional %llu rounds (width %.2f us) vs static %llu rounds "
              "(width %.2f us), %llu cross posts\n",
              static_cast<unsigned long long>(la.conditional_rounds),
              la.conditional_width_s * 1e6,
              static_cast<unsigned long long>(la.static_rounds),
              la.static_width_s * 1e6,
              static_cast<unsigned long long>(la.cross_posts));

  char block[640];
  std::snprintf(
      block, sizeof(block),
      "  ],\n  \"lookahead\": {\n"
      "    \"topology\": \"fat_tree_k8_pod_local\", \"protocol\": \"dctcp\","
      " \"workers\": 4,\n"
      "    \"flows\": %llu, \"cross_posts\": %llu,\n"
      "    \"conditional_rounds\": %llu, \"static_rounds\": %llu,\n"
      "    \"conditional_width_s\": %.9g, \"static_width_s\": %.9g,\n"
      "    \"conditional_wall_sec\": %.6f, \"static_wall_sec\": %.6f\n"
      "  }\n}\n",
      static_cast<unsigned long long>(la.flows),
      static_cast<unsigned long long>(la.cross_posts),
      static_cast<unsigned long long>(la.conditional_rounds),
      static_cast<unsigned long long>(la.static_rounds),
      la.conditional_width_s, la.static_width_s, la.conditional_wall_sec,
      la.static_wall_sec);
  json += block;

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
