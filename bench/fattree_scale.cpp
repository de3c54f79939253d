// Fat-tree scale bench: packets per wall-clock second, peak RSS, route-table
// memory, setup time and core-link load balance as the fabric grows from k=4
// (16 hosts) through k=32 (8,192 hosts).
//
// The workload is DCTCP with the web-search flow-size distribution and
// random any-to-any traffic, so a large fraction of flows cross pods and
// every core link carries ECMP-hashed load. Three things are under test:
//   1. capacity — an 8k-host fabric simulates inside a tight RSS ceiling
//      (streaming stats + endpoint recycling keep harness state proportional
//      to concurrency, not flow count) and sets up in well under a second
//      (structural route synthesis, no per-destination BFS);
//   2. scale-invariant forwarding — route_table_bytes/switch is O(pod),
//      sublinear in host count, and ns/packet stays flat as the fabric
//      grows (compressed tables + the per-flow path memo);
//   3. hash quality — max/mean bytes over the core-facing links
//      (core_link_imbalance) stays near 1.0 when the per-flow hash spreads
//      flows evenly; CI fails the quick leg if k=4 exceeds 2.0.
//
// Each scale runs in a forked child so getrusage(RUSAGE_SELF).ru_maxrss is
// that scale's own high-water mark. Results land in BENCH_fattree.json.
//
// Flags:
//   --quick            k = {4, 8, 16} (CI smoke; CI gates route memory
//                      sublinearity and k=16 throughput against the
//                      pre-compression baseline)
//   --telemetry=BASE   enable the telemetry plane; each scale's child writes
//                      its summary to BASE.k<k>.jsonl ("pase-telemetry"
//                      schema). CI gates the telemetry-on overhead <= 5%.
//   --profile          enable the engine self-profiler; dispatch mix, scan
//                      stats and path-cache hit rate land in the JSON rows
//   --workers=N        run each scale on N parallel-engine workers (default
//                      1; the fabric is split into one domain per pod, which
//                      the workers claim dynamically). The simulated results
//                      must not move; CI compares each row's peak RSS and
//                      loop time against a sequential run, and gates the
//                      largest domain's event share (max_domain_event_share
//                      x workers) as a deterministic balance proxy.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workload/scenario.h"

namespace {

using namespace pase;
using workload::Pattern;
using workload::Protocol;
using workload::ScenarioConfig;
using workload::SizeDistribution;

// Fixed-layout result a child ships to the parent over a pipe.
struct ScaleOut {
  std::uint64_t k = 0;
  std::uint64_t workers = 0;
  std::uint64_t workers_used = 0;
  std::uint64_t domains = 0;
  std::uint64_t hosts = 0;
  std::uint64_t switches = 0;
  std::uint64_t flows = 0;
  std::uint64_t completed = 0;
  std::uint64_t unfinished = 0;
  std::uint64_t sim_packets = 0;
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t core_links = 0;
  std::uint64_t route_table_bytes = 0;
  double route_bytes_per_switch = 0.0;
  double core_link_imbalance = 0.0;
  double setup_sec = 0.0;
  double wall_sec = 0.0;
  double loop_sec = 0.0;  // wall_sec minus setup_sec
  double max_domain_event_share = 0.0;
  double packets_per_sec = 0.0;
  double ns_per_packet = 0.0;
  double afct_s = 0.0;
  double end_time_s = 0.0;
  // Self-profiler fields (zero unless --profile).
  std::uint64_t profile_dispatch_raw = 0;
  std::uint64_t profile_scan_max = 0;
  std::uint64_t profile_peak_pending = 0;
  double profile_scan_mean = 0.0;
  double path_cache_hit_rate = 0.0;
  // Telemetry fields (zero unless --telemetry).
  std::uint64_t telemetry_samples = 0;
};

// Per-run knobs, forwarded into each forked child.
struct RunFlags {
  bool profile = false;
  std::string telemetry_base;  // empty = telemetry off
  int workers = 1;
};

ScenarioConfig fattree_config(int k, int num_flows) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kDctcp;
  cfg.topology = ScenarioConfig::TopologyKind::kFatTree;
  cfg.fattree.k = k;
  cfg.traffic.pattern = Pattern::kIntraRackRandom;  // any-to-any over hosts
  cfg.traffic.size_dist = SizeDistribution::kWebSearch;
  cfg.traffic.load = 0.3;
  cfg.traffic.num_flows = num_flows;
  // No long-lived background elephants: each would pin one ECMP path for
  // the whole run and swamp the byte-balance signal this bench watches.
  cfg.traffic.num_background_flows = 0;
  cfg.traffic.seed = 29;
  cfg.max_duration = 60.0;
  cfg.stats_mode = ScenarioConfig::StatsMode::kStreaming;
  cfg.recycle_endpoints = true;
  return cfg;
}

double metric(const workload::ScenarioResult& r, const char* name) {
  for (const auto& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

ScaleOut run_scale(int k, int num_flows, const RunFlags& obs) {
  ScenarioConfig cfg = fattree_config(k, num_flows);
  cfg.profile = obs.profile;
  if (!obs.telemetry_base.empty()) cfg.telemetry.enabled = true;
  cfg.workers = obs.workers;
  const auto t0 = std::chrono::steady_clock::now();
  const workload::ScenarioResult r = workload::run_scenario(cfg);
  const auto t1 = std::chrono::steady_clock::now();

  ScaleOut out;
  out.k = static_cast<std::uint64_t>(k);
  out.workers = static_cast<std::uint64_t>(obs.workers);
  out.workers_used = static_cast<std::uint64_t>(r.workers_used);
  out.domains = static_cast<std::uint64_t>(metric(r, "parallel.domains"));
  out.max_domain_event_share = metric(r, "parallel.max_domain_event_share");
  out.hosts = static_cast<std::uint64_t>(cfg.fattree.num_hosts());
  out.switches = static_cast<std::uint64_t>(cfg.fattree.num_switches());
  out.flows = r.total_flows();
  out.unfinished = r.unfinished();
  out.completed = out.flows - out.unfinished;
  out.sim_packets = r.data_packets_sent;
  out.core_links = static_cast<std::uint64_t>(metric(r, "fabric.core_links"));
  out.route_table_bytes =
      static_cast<std::uint64_t>(metric(r, "fabric.route_table_bytes"));
  out.route_bytes_per_switch =
      out.switches > 0
          ? static_cast<double>(out.route_table_bytes) /
                static_cast<double>(out.switches)
          : 0.0;
  out.core_link_imbalance = metric(r, "fabric.core_link_imbalance");
  out.setup_sec = r.setup_wall_sec;
  out.wall_sec = std::chrono::duration<double>(t1 - t0).count();
  out.loop_sec = out.wall_sec - out.setup_sec;
  out.packets_per_sec =
      out.wall_sec > 0.0
          ? static_cast<double>(out.sim_packets) / out.wall_sec
          : 0.0;
  out.ns_per_packet = out.sim_packets > 0
                          ? out.wall_sec * 1e9 /
                                static_cast<double>(out.sim_packets)
                          : 0.0;
  out.afct_s = r.afct();
  out.end_time_s = r.end_time;

  if (obs.profile) {
    out.profile_dispatch_raw =
        static_cast<std::uint64_t>(metric(r, "profile.engine.dispatch.raw"));
    out.profile_scan_max =
        static_cast<std::uint64_t>(metric(r, "profile.engine.scan_max"));
    out.profile_peak_pending =
        static_cast<std::uint64_t>(metric(r, "profile.engine.peak_pending"));
    out.profile_scan_mean = metric(r, "profile.engine.scan_mean");
    out.path_cache_hit_rate = metric(r, "profile.switch.path_cache_hit_rate");
  }
  if (r.telemetry) {
    out.telemetry_samples = r.telemetry->samples;
    const std::string path =
        obs.telemetry_base + ".k" + std::to_string(k) + ".jsonl";
    if (!r.telemetry->write_jsonl(path)) {
      std::fprintf(stderr, "warning: could not write telemetry to %s\n",
                   path.c_str());
    }
  }

  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  out.peak_rss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
  return out;
}

// Forks, runs one scale in the child, and reads the result back. Returns
// false if the child failed.
bool run_scale_isolated(int k, int num_flows, const RunFlags& obs,
                        ScaleOut* out) {
  int fd[2];
  if (pipe(fd) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fd[0]);
    close(fd[1]);
    return false;
  }
  if (pid == 0) {
    close(fd[0]);
    const ScaleOut r = run_scale(k, num_flows, obs);
    ssize_t n = write(fd[1], &r, sizeof(r));
    close(fd[1]);
    _exit(n == static_cast<ssize_t>(sizeof(r)) ? 0 : 1);
  }
  close(fd[1]);
  std::size_t got = 0;
  auto* dst = reinterpret_cast<unsigned char*>(out);
  while (got < sizeof(*out)) {
    const ssize_t n = read(fd[0], dst + got, sizeof(*out) - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fd[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return got == sizeof(*out) && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  RunFlags obs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      obs.profile = true;
    } else if (std::strncmp(argv[i], "--telemetry=", 12) == 0) {
      obs.telemetry_base = argv[i] + 12;
    }
  }
  obs.workers = pase::bench::parse_workers(argc, argv);
  if (obs.workers == 0) return 1;

  // Flow counts grow with the host population so per-host load is comparable
  // across the quick rows; the k=24/32 rows cap total flows (the scale
  // questions there — setup time, route memory, per-packet cost — do not
  // need proportional load, and proportional load would push the full run
  // past several minutes).
  struct Scale {
    int k;
    int flows;
  };
  std::vector<Scale> scales = {{4, 2000}, {8, 8000}, {16, 40000}};
  if (!quick) {
    scales.push_back({24, 60000});
    scales.push_back({32, 100000});
  }

  std::printf("fat-tree scaling (%s): DCTCP web-search any-to-any, ECMP "
              "multipath, streaming stats, %d worker(s)\n",
              quick ? "quick" : "full", obs.workers);
  std::printf("%-4s %7s %9s %9s %12s %11s %10s %10s %14s %8s %10s %10s\n",
              "k", "hosts", "switches", "flows", "peak RSS", "route B/sw",
              "setup(s)", "wall(s)", "pkts/sec", "ns/pkt", "imbalance",
              "afct(ms)");

  std::string json = "{\n  \"bench\": \"fattree\",\n  \"mode\": \"";
  json += quick ? "quick" : "full";
  json += "\",\n  \"cases\": [\n";

  bool ok = true;
  for (std::size_t i = 0; i < scales.size(); ++i) {
    ScaleOut r;
    if (!run_scale_isolated(scales[i].k, scales[i].flows, obs, &r)) {
      std::fprintf(stderr, "error: k=%d failed\n", scales[i].k);
      ok = false;
      break;
    }
    std::printf(
        "%-4llu %7llu %9llu %9llu %9.1f MB %11.0f %10.3f %10.3f %14.0f "
        "%8.0f %10.3f %10.3f\n",
        static_cast<unsigned long long>(r.k),
        static_cast<unsigned long long>(r.hosts),
        static_cast<unsigned long long>(r.switches),
        static_cast<unsigned long long>(r.flows),
        static_cast<double>(r.peak_rss_bytes) / (1024.0 * 1024.0),
        r.route_bytes_per_switch, r.setup_sec, r.wall_sec, r.packets_per_sec,
        r.ns_per_packet, r.core_link_imbalance, r.afct_s * 1e3);
    std::fflush(stdout);

    char row[1536];
    std::snprintf(
        row, sizeof(row),
        "    {\"k\": %llu, \"workers\": %llu, \"workers_used\": %llu,\n"
        "     \"domains\": %llu, \"max_domain_event_share\": %.6f,\n"
        "     \"hosts\": %llu, \"switches\": %llu,\n"
        "     \"flows\": %llu, \"completed\": %llu, \"unfinished\": %llu,\n"
        "     \"peak_rss_bytes\": %llu, \"setup_sec\": %.6f,\n"
        "     \"route_table_bytes\": %llu, \"route_bytes_per_switch\": %.1f,\n"
        "     \"wall_sec\": %.6f, \"loop_sec\": %.6f, \"sim_packets\": %llu,\n"
        "     \"packets_per_sec\": %.1f, \"ns_per_packet\": %.1f,\n"
        "     \"core_links\": %llu,\n"
        "     \"core_link_imbalance\": %.6f, \"afct_s\": %.9f,\n"
        "     \"end_time_s\": %.6f,\n"
        "     \"profile_dispatch_raw\": %llu, \"profile_scan_mean\": %.3f,\n"
        "     \"profile_scan_max\": %llu, \"profile_peak_pending\": %llu,\n"
        "     \"path_cache_hit_rate\": %.6f,\n"
        "     \"telemetry_samples\": %llu}%s\n",
        static_cast<unsigned long long>(r.k),
        static_cast<unsigned long long>(r.workers),
        static_cast<unsigned long long>(r.workers_used),
        static_cast<unsigned long long>(r.domains), r.max_domain_event_share,
        static_cast<unsigned long long>(r.hosts),
        static_cast<unsigned long long>(r.switches),
        static_cast<unsigned long long>(r.flows),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.unfinished),
        static_cast<unsigned long long>(r.peak_rss_bytes), r.setup_sec,
        static_cast<unsigned long long>(r.route_table_bytes),
        r.route_bytes_per_switch, r.wall_sec, r.loop_sec,
        static_cast<unsigned long long>(r.sim_packets), r.packets_per_sec,
        r.ns_per_packet, static_cast<unsigned long long>(r.core_links),
        r.core_link_imbalance, r.afct_s, r.end_time_s,
        static_cast<unsigned long long>(r.profile_dispatch_raw),
        r.profile_scan_mean,
        static_cast<unsigned long long>(r.profile_scan_max),
        static_cast<unsigned long long>(r.profile_peak_pending),
        r.path_cache_hit_rate,
        static_cast<unsigned long long>(r.telemetry_samples),
        i + 1 < scales.size() ? "," : "");
    json += row;
  }
  json += "  ]\n}\n";

  if (!ok) return 1;
  std::FILE* f = std::fopen("BENCH_fattree.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: could not write BENCH_fattree.json\n");
    return 0;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote BENCH_fattree.json\n");
  return 0;
}
