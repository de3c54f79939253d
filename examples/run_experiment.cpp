// Example: a command-line experiment runner with fabric telemetry.
//
// Exposes the scenario harness as a small CLI, ns-2-script style, and uses
// the obs::TelemetryPlane to report where the backlog lived — handy for
// exploring parameter spaces without writing code.
//
//   ./build/examples/run_experiment --protocol pase --topology tree
//       --pattern leftright --load 0.8 --flows 500 --seed 7
//       --telemetry run.jsonl                        (one command line)
//
// Flags: --protocol NAME (any registered transport profile; the built-ins
//                         are dctcp,d2tcp,l2dct,pdq,pfabric,pase)
//        --topology {rack,tree}      --hosts N (rack size)
//        --pattern  {random,leftright,workeragg,incast}
//        --load X   --flows N  --seed S
//        --sizes  {uniform,websearch,datamining}
//        --deadlines LO_MS,HI_MS
//        --telemetry PATH (write a pase-telemetry JSONL summary; render it
//                          with tools/telemetry_report)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "workload/scenario.h"

namespace {

using namespace pase;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "error: %s (see header comment for flags)\n", msg);
  std::exit(1);
}

workload::Pattern parse_pattern(const std::string& s) {
  if (s == "random") return workload::Pattern::kIntraRackRandom;
  if (s == "leftright") return workload::Pattern::kLeftRight;
  if (s == "workeragg") return workload::Pattern::kWorkerAggregator;
  if (s == "incast") return workload::Pattern::kIncast;
  usage("unknown pattern");
}

workload::SizeDistribution parse_sizes(const std::string& s) {
  if (s == "uniform") return workload::SizeDistribution::kUniform;
  if (s == "websearch") return workload::SizeDistribution::kWebSearch;
  if (s == "datamining") return workload::SizeDistribution::kDataMining;
  usage("unknown size distribution");
}

}  // namespace

int main(int argc, char** argv) {
  workload::ScenarioConfig cfg;
  std::string telemetry_path;
  cfg.protocol = workload::Protocol::kPase;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kSingleRack;
  cfg.rack.num_hosts = 20;
  cfg.traffic.load = 0.6;
  cfg.traffic.num_flows = 300;

  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--protocol") {
      // The registry resolves any profile name, built-in or registered
      // later; an unknown spelling is rejected by validate_config below.
      cfg.profile_name = val;
    } else if (flag == "--topology") {
      cfg.topology = val == "tree"
                         ? workload::ScenarioConfig::TopologyKind::kThreeTier
                         : workload::ScenarioConfig::TopologyKind::kSingleRack;
    } else if (flag == "--hosts") {
      cfg.rack.num_hosts = std::atoi(val.c_str());
    } else if (flag == "--pattern") {
      cfg.traffic.pattern = parse_pattern(val);
    } else if (flag == "--load") {
      cfg.traffic.load = std::atof(val.c_str());
    } else if (flag == "--flows") {
      cfg.traffic.num_flows = std::atoi(val.c_str());
    } else if (flag == "--seed") {
      cfg.traffic.seed = static_cast<std::uint64_t>(std::atoll(val.c_str()));
    } else if (flag == "--sizes") {
      cfg.traffic.size_dist = parse_sizes(val);
    } else if (flag == "--deadlines") {
      double lo = 0, hi = 0;
      if (std::sscanf(val.c_str(), "%lf,%lf", &lo, &hi) != 2) {
        usage("--deadlines expects LO_MS,HI_MS");
      }
      cfg.traffic.deadline_min = lo * 1e-3;
      cfg.traffic.deadline_max = hi * 1e-3;
    } else if (flag == "--telemetry") {
      telemetry_path = val;
      cfg.telemetry.enabled = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  try {
    workload::validate_config(cfg);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }

  auto res = workload::run_scenario(cfg);

  std::printf("protocol        : %s\n",
              cfg.profile_name.empty()
                  ? workload::protocol_name(cfg.protocol)
                  : cfg.profile_name.c_str());
  std::printf("load            : %.0f%%  (%d flows, seed %llu)\n",
              cfg.traffic.load * 100, cfg.traffic.num_flows,
              static_cast<unsigned long long>(cfg.traffic.seed));
  std::printf("AFCT            : %.3f ms\n", res.afct() * 1e3);
  std::printf("median FCT      : %.3f ms\n",
              stats::fct_percentile(res.records, 50) * 1e3);
  std::printf("99th pct FCT    : %.3f ms\n", res.fct_p99() * 1e3);
  if (cfg.traffic.deadline_max > 0) {
    std::printf("deadlines met   : %.1f%%\n", res.app_throughput() * 100);
  }
  std::printf("fabric loss     : %.2f%% (%llu drops / %llu data pkts)\n",
              res.loss_rate() * 100,
              static_cast<unsigned long long>(res.fabric_drops),
              static_cast<unsigned long long>(res.data_packets_sent));
  std::printf("unfinished      : %zu\n", res.unfinished());
  if (res.control.messages_sent > 0) {
    std::printf("control msgs    : %llu (%.0f/s), %llu arbitrations, "
                "%llu pruned\n",
                static_cast<unsigned long long>(res.control.messages_sent),
                res.control_msgs_per_sec(),
                static_cast<unsigned long long>(res.control.arbitrations),
                static_cast<unsigned long long>(res.control.pruned_requests));
  }
  if (res.telemetry) {
    if (!res.telemetry->hot_links.empty()) {
      const auto& hot = res.telemetry->hot_links.front();
      std::printf("hottest link    : %s (%.1f MB)\n", hot.name.c_str(),
                  static_cast<double>(hot.bytes) / (1 << 20));
    }
    if (res.telemetry->write_jsonl(telemetry_path)) {
      std::printf("telemetry       : wrote %s (%llu samples, %zu groups)\n",
                  telemetry_path.c_str(),
                  static_cast<unsigned long long>(res.telemetry->samples),
                  res.telemetry->group_names.size());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n",
                   telemetry_path.c_str());
    }
  }
  return 0;
}
