// Million-flow capacity scaling: peak RSS, setup time and simulated
// packets per wall-clock second as the workload grows from 10^3 to 10^6
// flows on one rack.
//
// This is the memory-capacity counterpart to hotpath_throughput: the
// scenario is deliberately cheap per flow (small uniform sizes, moderate
// load) so the series isolates how harness state — endpoint slabs, pending
// descriptors, statistics — scales with flow count. Streaming statistics
// and endpoint recycling are on, so per-flow state is transient: live
// endpoint memory tracks concurrency (peak_live_flows), not total flows,
// and the run keeps no per-flow records at all. Setup is O(pending
// descriptors): endpoints materialize lazily at flow start.
//
// Each scale runs in a forked child so getrusage(RUSAGE_SELF).ru_maxrss is
// that scale's own high-water mark (RSS is process-monotone; measuring all
// scales in one process would report the largest for every row). Results
// land in BENCH_capacity.json.
//
// Flags:
//   --quick      stop at 10^5 flows (CI smoke; keeps the leg under ~2 s)
//   --workers=N  run each scale on N parallel-engine workers (default 1).
//                The rack splits into one domain per worker; the simulated
//                results must equal the 1-worker rows, and CI gates the
//                partitioned run's peak RSS against them.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
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

// Fixed-layout result a child ships to the parent over a pipe.
struct ScaleOut {
  std::uint64_t flows = 0;
  std::uint64_t completed = 0;
  std::uint64_t unfinished = 0;
  std::uint64_t sim_packets = 0;
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t peak_live_flows = 0;
  std::uint64_t slab_grow_events = 0;
  std::uint64_t workers_used = 0;
  double setup_sec = 0.0;
  double wall_sec = 0.0;
  double packets_per_sec = 0.0;
  double afct_s = 0.0;
  double fct_p99_s = 0.0;
  double end_time_s = 0.0;
};

ScenarioConfig capacity_config(int num_flows, int workers) {
  ScenarioConfig cfg;
  cfg.workers = workers;
  cfg.protocol = Protocol::kDctcp;
  cfg.topology = ScenarioConfig::TopologyKind::kSingleRack;
  cfg.rack.num_hosts = 32;
  cfg.traffic.pattern = Pattern::kIntraRackRandom;
  cfg.traffic.load = 0.6;
  cfg.traffic.num_flows = num_flows;
  // Small fixed-size flows: per-flow harness cost dominates packet cost, so
  // the series measures capacity, not congestion dynamics.
  cfg.traffic.size_min_bytes = 4380;  // 3 MSS
  cfg.traffic.size_max_bytes = 4380;
  cfg.traffic.seed = 17;
  cfg.max_duration = 120.0;  // arrivals finish long before this
  // The point of the exercise: O(1)-memory statistics and recycled
  // endpoint slots.
  cfg.stats_mode = ScenarioConfig::StatsMode::kStreaming;
  cfg.recycle_endpoints = true;
  return cfg;
}

ScaleOut run_scale(int num_flows, int workers) {
  const ScenarioConfig cfg = capacity_config(num_flows, workers);
  const auto t0 = std::chrono::steady_clock::now();
  const workload::ScenarioResult r = workload::run_scenario(cfg);
  const auto t1 = std::chrono::steady_clock::now();

  ScaleOut out;
  out.flows = r.total_flows();
  out.unfinished = r.unfinished();
  out.completed = out.flows - out.unfinished;
  out.sim_packets = r.data_packets_sent;
  out.peak_live_flows = r.peak_live_flows;
  out.slab_grow_events = r.slab_grow_events;
  out.workers_used = static_cast<std::uint64_t>(r.workers_used);
  out.setup_sec = r.setup_wall_sec;
  out.wall_sec = std::chrono::duration<double>(t1 - t0).count();
  out.packets_per_sec =
      out.wall_sec > 0.0
          ? static_cast<double>(out.sim_packets) / out.wall_sec
          : 0.0;
  out.afct_s = r.afct();
  out.fct_p99_s = r.fct_p99();
  out.end_time_s = r.end_time;

  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  out.peak_rss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
  return out;
}

// Forks, runs one scale in the child, and reads the result back. Returns
// false if the child failed.
bool run_scale_isolated(int num_flows, int workers, ScaleOut* out) {
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
    const ScaleOut r = run_scale(num_flows, workers);
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
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int workers = pase::bench::parse_workers(argc, argv);
  if (workers == 0) return 1;

  std::vector<int> scales = {1000, 10000, 100000};
  if (!quick) scales.push_back(1000000);

  std::printf("capacity scaling (%s, %d worker%s): DCTCP single-rack, "
              "3-MSS flows, streaming stats, recycled endpoints\n",
              quick ? "quick" : "full", workers, workers == 1 ? "" : "s");
  std::printf("%-10s %12s %10s %10s %14s %12s %12s %10s\n", "flows",
              "peak RSS", "setup(s)", "wall(s)", "pkts/sec", "peak live",
              "slab grows", "afct(ms)");

  std::string json = "{\n  \"bench\": \"capacity\",\n  \"mode\": \"";
  json += quick ? "quick" : "full";
  json += "\",\n  \"workers\": " + std::to_string(workers);
  json += ",\n  \"cases\": [\n";

  bool ok = true;
  for (std::size_t i = 0; i < scales.size(); ++i) {
    ScaleOut r;
    if (!run_scale_isolated(scales[i], workers, &r)) {
      std::fprintf(stderr, "error: scale %d failed\n", scales[i]);
      ok = false;
      break;
    }
    std::printf("%-10llu %9.1f MB %10.3f %10.3f %14.0f %12llu %12llu %10.3f\n",
                static_cast<unsigned long long>(r.flows),
                static_cast<double>(r.peak_rss_bytes) / (1024.0 * 1024.0),
                r.setup_sec, r.wall_sec, r.packets_per_sec,
                static_cast<unsigned long long>(r.peak_live_flows),
                static_cast<unsigned long long>(r.slab_grow_events),
                r.afct_s * 1e3);
    std::fflush(stdout);

    char row[768];
    std::snprintf(
        row, sizeof(row),
        "    {\"flows\": %llu, \"completed\": %llu, \"unfinished\": %llu,\n"
        "     \"peak_rss_bytes\": %llu, \"setup_sec\": %.6f,\n"
        "     \"wall_sec\": %.6f, \"sim_packets\": %llu,\n"
        "     \"packets_per_sec\": %.1f, \"peak_live_flows\": %llu,\n"
        "     \"slab_grow_events\": %llu, \"afct_s\": %.9f,\n"
        "     \"fct_p99_s\": %.9f, \"end_time_s\": %.6f,\n"
        "     \"workers_used\": %llu}%s\n",
        static_cast<unsigned long long>(r.flows),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.unfinished),
        static_cast<unsigned long long>(r.peak_rss_bytes), r.setup_sec,
        r.wall_sec, static_cast<unsigned long long>(r.sim_packets),
        r.packets_per_sec, static_cast<unsigned long long>(r.peak_live_flows),
        static_cast<unsigned long long>(r.slab_grow_events), r.afct_s,
        r.fct_p99_s, r.end_time_s,
        static_cast<unsigned long long>(r.workers_used),
        i + 1 < scales.size() ? "," : "");
    json += row;
  }
  json += "  ]\n}\n";

  if (!ok) return 1;
  std::FILE* f = std::fopen("BENCH_capacity.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: could not write BENCH_capacity.json\n");
    return 0;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote BENCH_capacity.json\n");
  return 0;
}
