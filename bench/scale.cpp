// Scale bench: the engine's throughput, memory and parallel behaviour at
// scale, as named grids of cells.
//
//   hotpath   per protocol, a 40-host rack and the three-tier tree under
//             web-search traffic: the steady-state packet path (dispatch,
//             link hop, queue discipline, host demux)
//   capacity  a 32-host DCTCP rack at 10^3..10^6 fixed 3-MSS flows with
//             streaming stats and recycled endpoints: harness state (slabs,
//             descriptors, statistics) against flow count, not congestion
//   fattree   DCTCP web-search any-to-any on k = 4..32 fat-trees: route
//             memory, setup time, ECMP balance and per-packet cost; no
//             background elephants, which would pin one ECMP path each and
//             swamp the byte-balance signal
//   parallel  {three-tier, k=8 fat-tree} x {pase, pfabric, dctcp}: rounds,
//             drains, cross posts and barrier wait as workers grow
//
// Every cell is crossed with a worker list, the worker loop innermost, so the
// two sides of a same-job ratio run back to back. Each cell runs in its own
// forked child: ru_maxrss only grows within a process, so that is how a
// row's peak RSS stays the cell's own. A row is the scenario record the
// figure benches write (exp::scenario_record) followed by the cell's grid
// coordinates (hosts, k on a fat-tree, workers requested) and a host block:
// wall_s, setup_s, loop_s, peak_rss_bytes and barrier_wait_s. Rows land in
// BENCH_<grid>.json; tools/check_scale.py holds the gates.
//
// Flags, each in its --flag=value form only (any other argument is rejected):
//   --grid=NAME         hotpath | capacity | fattree | parallel (required)
//   --quick             the CI-sized cells
//   --workers=N[,N...]  replaces the grid's worker list (default 1; parallel
//                       1,2,4, and full mode adds 8)
//   --protocols=a,b     replaces the grid's protocol list
//   --profile           engine self-profiler in every cell (profile.* metrics)
//   --telemetry=BASE    telemetry plane in every cell, sampled every 1 ms;
//                       each writes BASE.<label with '/' as '.'>.jsonl
//   --trace=PATH        after the grid, rerun the first cell traced in its own
//                       child (JSONL, or Chrome trace_event for *.chrome.json);
//                       timed cells always run untraced
//   --trace-filter=CATS comma list of trace categories (default all)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace {

using namespace pase;
using workload::Pattern;
using workload::Protocol;
using workload::ScenarioConfig;
using workload::SizeDistribution;

// A grid's cell before the protocol and worker axes are applied.
struct Point {
  std::string name;
  ScenarioConfig config;
};

std::vector<Point> hotpath_points(bool quick) {
  ScenarioConfig rack;
  rack.topology = ScenarioConfig::TopologyKind::kSingleRack;
  rack.rack.num_hosts = quick ? 20 : 40;
  rack.traffic.pattern = Pattern::kIntraRackRandom;
  rack.traffic.size_dist = SizeDistribution::kWebSearch;
  rack.traffic.load = 0.7;
  rack.traffic.num_flows = quick ? 200 : 1200;
  rack.traffic.seed = 42;

  ScenarioConfig tree;
  tree.topology = ScenarioConfig::TopologyKind::kThreeTier;
  if (quick) tree.tree.hosts_per_tor = 10;
  tree.traffic.pattern = Pattern::kLeftRight;
  tree.traffic.size_dist = SizeDistribution::kWebSearch;
  tree.traffic.load = 0.6;
  tree.traffic.num_flows = quick ? 150 : 800;
  tree.traffic.seed = 42;
  return {{"single-rack", rack}, {"three-tier", tree}};
}

std::vector<Point> capacity_points(bool quick) {
  std::vector<int> scales = {1000, 10000, 100000};
  if (!quick) scales.push_back(1000000);
  std::vector<Point> points;
  for (const int n : scales) {
    ScenarioConfig cfg;
    cfg.topology = ScenarioConfig::TopologyKind::kSingleRack;
    cfg.rack.num_hosts = 32;
    cfg.traffic.pattern = Pattern::kIntraRackRandom;
    cfg.traffic.load = 0.6;
    cfg.traffic.num_flows = n;
    cfg.traffic.size_min_bytes = 4380;  // 3 MSS
    cfg.traffic.size_max_bytes = 4380;
    cfg.traffic.seed = 17;
    cfg.max_duration = 120.0;  // arrivals finish long before this
    cfg.stats_mode = ScenarioConfig::StatsMode::kStreaming;
    cfg.recycle_endpoints = true;
    points.push_back({std::to_string(n) + "-flows", cfg});
  }
  return points;
}

std::vector<Point> fattree_points(bool quick) {
  // Flow counts grow with the host population through k=16, so per-host load
  // is comparable across the quick cells; k=24/32 cap total flows, because
  // setup time, route memory and per-packet cost do not need proportional
  // load there.
  std::vector<std::pair<int, int>> scales = {{4, 2000}, {8, 8000}, {16, 40000}};
  if (!quick) {
    scales.push_back({24, 60000});
    scales.push_back({32, 100000});
  }
  std::vector<Point> points;
  for (const auto& [k, flows] : scales) {
    ScenarioConfig cfg;
    cfg.topology = ScenarioConfig::TopologyKind::kFatTree;
    cfg.fattree.k = k;
    cfg.traffic.pattern = Pattern::kIntraRackRandom;  // any-to-any over hosts
    cfg.traffic.size_dist = SizeDistribution::kWebSearch;
    cfg.traffic.load = 0.3;
    cfg.traffic.num_flows = flows;
    cfg.traffic.num_background_flows = 0;
    cfg.traffic.seed = 29;
    cfg.max_duration = 60.0;
    cfg.stats_mode = ScenarioConfig::StatsMode::kStreaming;
    cfg.recycle_endpoints = true;
    points.push_back({"k" + std::to_string(k), cfg});
  }
  return points;
}

// Its own two configs, apart from the hotpath and fattree cells: the
// EXPERIMENTS.md round tables and the CI round-identity gate are recorded on
// them.
std::vector<Point> parallel_points(bool quick) {
  ScenarioConfig tree;
  tree.topology = ScenarioConfig::TopologyKind::kThreeTier;
  tree.tree.num_tors = quick ? 4 : 8;
  tree.tree.hosts_per_tor = quick ? 4 : 8;
  tree.traffic.pattern = Pattern::kLeftRight;
  tree.traffic.size_dist = SizeDistribution::kWebSearch;
  tree.traffic.load = 0.6;
  tree.traffic.num_flows = quick ? 200 : 800;
  tree.traffic.seed = 11;

  ScenarioConfig ft;
  ft.topology = ScenarioConfig::TopologyKind::kFatTree;
  ft.fattree.k = 8;
  ft.traffic.pattern = Pattern::kIntraRackRandom;  // any-to-any over hosts
  ft.traffic.size_dist = SizeDistribution::kWebSearch;
  ft.traffic.load = 0.3;
  ft.traffic.num_background_flows = 0;
  ft.traffic.num_flows = quick ? 300 : 1500;
  ft.traffic.seed = 17;
  return {{"three-tier", tree}, {"fat-tree-k8", ft}};
}

struct Grid {
  const char* name;
  std::vector<Point> (*points)(bool quick);
  std::vector<Protocol> protocols;
};

const std::vector<Grid>& grids() {
  static const std::vector<Grid> all = {
      {"hotpath", hotpath_points,
       {Protocol::kDctcp, Protocol::kD2tcp, Protocol::kL2dct, Protocol::kPdq,
        Protocol::kPfabric, Protocol::kPase}},
      {"capacity", capacity_points, {Protocol::kDctcp}},
      {"fattree", fattree_points, {Protocol::kDctcp}},
      {"parallel", parallel_points,
       {Protocol::kPase, Protocol::kPfabric, Protocol::kDctcp}},
  };
  return all;
}

std::string lower_name(Protocol p) {
  std::string s = workload::protocol_name(p);
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

int host_count(const ScenarioConfig& cfg) {
  switch (cfg.topology) {
    case ScenarioConfig::TopologyKind::kSingleRack:
      return cfg.rack.num_hosts;
    case ScenarioConfig::TopologyKind::kThreeTier:
      return cfg.tree.num_tors * cfg.tree.hosts_per_tor;
    case ScenarioConfig::TopologyKind::kFatTree:
      return cfg.fattree.num_hosts();
  }
  return 0;
}

// Parses "N[,N...]" of positive worker counts; empty on malformed input.
std::vector<int> parse_worker_list(const char* s) {
  std::vector<int> out;
  while (*s != '\0') {
    char* end = nullptr;
    const long n = std::strtol(s, &end, 10);
    if (end == s || n < 1 || n > 1024 || (*end != ',' && *end != '\0')) {
      return {};
    }
    out.push_back(static_cast<int>(n));
    s = *end == ',' ? end + 1 : end;
  }
  return out;
}

// Runs `body` in a forked child and returns the text it produced, or nullopt
// if the child failed. The parent builds no scenario state, and stdout is
// flushed before the fork so that buffered text is not written twice.
std::optional<std::string> in_child(const std::function<std::string()>& body) {
  std::fflush(stdout);
  int fd[2];
  if (pipe(fd) != 0) return std::nullopt;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fd[0]);
    close(fd[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fd[0]);
    bool ok = true;
    std::string text;
    try {
      text = body();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      ok = false;
    }
    for (std::size_t sent = 0; ok && sent < text.size();) {
      const ssize_t n = write(fd[1], text.data() + sent, text.size() - sent);
      ok = n > 0;
      if (ok) sent += static_cast<std::size_t>(n);
    }
    close(fd[1]);
    std::fflush(stdout);  // _exit skips stdio's flush
    _exit(ok ? 0 : 1);
  }
  close(fd[1]);
  std::string text;
  char buf[4096];
  for (ssize_t n; (n = read(fd[0], buf, sizeof(buf))) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fd[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return text;
}

// Runs one cell (in the child) and renders its row.
std::string run_cell(const exp::SweepCase& cell,
                     const std::string& telemetry_base) {
  const auto t0 = std::chrono::steady_clock::now();
  const workload::ScenarioResult r = workload::run_scenario(cell.config);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  const long long rss = static_cast<long long>(ru.ru_maxrss) * 1024;

  if (r.telemetry) {
    std::string name = cell.label;
    std::replace(name.begin(), name.end(), '/', '.');
    const std::string path = telemetry_base + "." + name + ".jsonl";
    if (!r.telemetry->write_jsonl(path)) {
      throw std::runtime_error("could not write telemetry to " + path);
    }
  }

  std::printf("%-28s %4d %12llu %9.3f %9.3f %12.0f %9.1f %10.4f\n",
              cell.label.c_str(), r.workers_used,
              static_cast<unsigned long long>(r.data_packets_sent),
              r.setup_wall_sec, wall,
              wall > 0.0 ? static_cast<double>(r.data_packets_sent) / wall
                         : 0.0,
              static_cast<double>(rss) / (1024.0 * 1024.0), r.afct() * 1e3);

  std::vector<std::pair<std::string, long long>> counts;
  if (cell.config.topology == ScenarioConfig::TopologyKind::kFatTree) {
    counts.emplace_back("k", cell.config.fattree.k);
  }
  counts.emplace_back("hosts", host_count(cell.config));
  counts.emplace_back("workers", cell.config.workers);
  counts.emplace_back("peak_rss_bytes", rss);
  return exp::scenario_record(cell, r, counts,
                              {{"wall_s", wall},
                               {"setup_s", r.setup_wall_sec},
                               {"loop_s", wall - r.setup_wall_sec},
                               {"barrier_wait_s", r.parallel_barrier_wait_sec}});
}

}  // namespace

int main(int argc, char** argv) {
  const Grid* grid = nullptr;
  bool quick = false;
  std::vector<int> workers;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--grid=", 7) == 0) {
      for (const Grid& g : grids()) {
        if (std::strcmp(a + 7, g.name) == 0) grid = &g;
      }
      if (grid == nullptr) {
        std::fprintf(stderr, "unknown grid '%s'\n", a + 7);
        return 1;
      }
    } else if (std::strcmp(a, "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(a, "--workers=", 10) == 0) {
      workers = parse_worker_list(a + 10);
      if (workers.empty()) {
        std::fprintf(stderr,
                     "--workers takes a comma list of counts in 1..1024\n");
        return 1;
      }
    } else if (std::strcmp(a, "--profile") != 0 &&
               std::strncmp(a, "--protocols=", 12) != 0 &&
               std::strncmp(a, "--telemetry=", 12) != 0 &&
               std::strncmp(a, "--trace=", 8) != 0 &&
               std::strncmp(a, "--trace-filter=", 15) != 0) {
      std::fprintf(stderr, "unknown argument '%s'\n", a);
      return 1;
    }
  }
  if (grid == nullptr) {
    std::fprintf(stderr,
                 "usage: scale --grid=hotpath|capacity|fattree|parallel "
                 "[--quick] [--workers=N[,N...]] [--protocols=a,b] "
                 "[--profile] [--telemetry=BASE] [--trace=PATH]\n");
    return 1;
  }
  if (workers.empty()) {
    workers = {1};
    if (std::strcmp(grid->name, "parallel") == 0) {
      workers = quick ? std::vector<int>{1, 2, 4}
                      : std::vector<int>{1, 2, 4, 8};
    }
  }
  const std::vector<Protocol> protocols =
      bench::protocols_from_cli(argc, argv, grid->protocols);
  const bool profile = bench::profile_from_cli(argc, argv);
  const bench::TelemetryOptions telemetry =
      bench::telemetry_from_cli(argc, argv);
  const bench::TraceOptions trace = bench::trace_from_cli(argc, argv);

  std::vector<exp::SweepCase> cells;
  for (const Protocol p : protocols) {
    for (const Point& point : grid->points(quick)) {
      for (const int w : workers) {
        ScenarioConfig cfg = point.config;
        cfg.protocol = p;
        cfg.workers = w;
        cfg.profile = profile;
        cfg.telemetry.enabled = telemetry.enabled();
        cells.push_back({lower_name(p) + "/" + point.name + "/w" +
                             std::to_string(w),
                         cfg});
      }
    }
  }

  std::printf("scale --grid=%s (%s), %zu cells\n", grid->name,
              quick ? "quick" : "full", cells.size());
  std::printf("%-28s %4s %12s %9s %9s %12s %9s %10s\n", "cell", "used",
              "sim pkts", "setup(s)", "wall(s)", "pkts/sec", "RSS(MB)",
              "afct(ms)");
  std::vector<std::string> rows;
  for (const exp::SweepCase& cell : cells) {
    const std::optional<std::string> row =
        in_child([&] { return run_cell(cell, telemetry.path); });
    if (!row) {
      std::fprintf(stderr, "error: cell %s failed\n", cell.label.c_str());
      return 1;
    }
    rows.push_back(*row);
  }

  const std::string path = std::string("BENCH_") + grid->name + ".json";
  const std::string doc = exp::sweep_document(grid->name, rows);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr || std::fwrite(doc.data(), 1, doc.size(), f) != doc.size()) {
    std::fprintf(stderr, "error: could not write %s\n", path.c_str());
    if (f != nullptr) std::fclose(f);
    return 1;
  }
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());

  if (trace.enabled() && !cells.empty()) {
    const std::optional<std::string> traced = in_child([&] {
      ScenarioConfig cfg = cells[0].config;
      cfg.trace.enabled = true;
      cfg.trace.categories = trace.categories;
      if (!bench::write_trace_file(workload::run_scenario(cfg), trace.path)) {
        throw std::runtime_error("could not write trace to " + trace.path);
      }
      return std::string();
    });
    if (!traced) return 1;
    std::printf("trace for '%s' written to %s\n", cells[0].label.c_str(),
                trace.path.c_str());
  }
  return 0;
}
