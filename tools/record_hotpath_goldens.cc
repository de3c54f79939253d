// Regenerates the golden fingerprint table for tests/hotpath_golden_test.cc.
//
// Prints the table; paste it over kGoldenFingerprints when a change alters
// traces on purpose, and say so in the commit message.
//
//   record_hotpath_goldens [--seeds=N]
//
// --seeds=N also prints, for every battery case and N traffic seeds (the
// case's own seed, then the next N - 1), the metrics a re-record must keep:
// AFCT, p99 FCT and the deadline-met fraction, one tab-separated row each.
// Run it at the commit before a re-record and at the re-record itself, and
// compare the two tables to bound the change.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "../tests/trace_fingerprint.h"

int main(int argc, char** argv) {
  int seeds = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seeds=", 8) == 0) {
      seeds = std::atoi(argv[i] + 8);
    }
    if (seeds < 0 || std::strncmp(argv[i], "--seeds=", 8) != 0) {
      std::fprintf(stderr, "usage: %s [--seeds=N]\n", argv[0]);
      return 2;
    }
  }
  const auto battery = pase::fingerprint_battery();
  std::printf("constexpr GoldenFingerprint kGoldenFingerprints[] = {\n");
  for (const auto& c : battery) {
    const auto result = pase::workload::run_scenario(c.config);
    std::printf("    {\"%s\", 0x%016llxull},\n", c.label.c_str(),
                static_cast<unsigned long long>(pase::trace_fingerprint(result)));
  }
  std::printf("};\n");
  if (seeds > 0) std::printf("case\tseed\tafct_s\tp99_s\tdeadline_met\n");
  for (const auto& c : battery) {
    for (int i = 0; i < seeds; ++i) {
      pase::workload::ScenarioConfig cfg = c.config;
      cfg.traffic.seed = c.config.traffic.seed + static_cast<std::uint64_t>(i);
      const auto r = pase::workload::run_scenario(cfg);
      std::printf("%s\t%llu\t%.9g\t%.9g\t%.6f\n", c.label.c_str(),
                  static_cast<unsigned long long>(cfg.traffic.seed), r.afct(),
                  r.fct_p99(), r.app_throughput());
    }
  }
  return 0;
}
