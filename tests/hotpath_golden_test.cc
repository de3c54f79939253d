// End-to-end golden fingerprints for the 18-case battery.
//
// The table pins every protocol's end-to-end output bit for bit: any
// fingerprint drift means event ordering (or arithmetic) changed somewhere.
// It was last re-recorded, on purpose, when same-instant events switched
// from global scheduling (FIFO) order to the fixed order key of
// sim/simulator.h. That re-record moved 16 of the 18 fingerprints and was
// bounded by a metric-equivalence check: AFCT, p99 and deadline-met
// fraction over 5 seeds per case, before and after (EXPERIMENTS.md).
//
// Re-record only for a change that alters traces on purpose (a new protocol
// feature, a model or ordering fix): run tools/record_hotpath_goldens
// --seeds=N at the commit before and after, compare the metric tables, and
// say so in the commit message — never re-record to make a performance
// change pass.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "trace_fingerprint.h"

namespace pase {
namespace {

struct GoldenFingerprint {
  const char* label;
  std::uint64_t fingerprint;
};

constexpr GoldenFingerprint kGoldenFingerprints[] = {
    {"DCTCP/rack-random", 0xd0cc2400fee792d9ull},
    {"DCTCP/incast-deadline", 0x4e808f61c6848aaaull},
    {"DCTCP/tree-leftright", 0x5c308b2ecab19134ull},
    {"D2TCP/rack-random", 0xd0cc2400fee792d9ull},
    {"D2TCP/incast-deadline", 0x082ebcb46374cf3bull},
    {"D2TCP/tree-leftright", 0x5c308b2ecab19134ull},
    {"L2DCT/rack-random", 0x6f05a2b868433d82ull},
    {"L2DCT/incast-deadline", 0x177ad2856059ba02ull},
    {"L2DCT/tree-leftright", 0xe4c65103e89bc269ull},
    {"PDQ/rack-random", 0x2748254a22cbd322ull},
    {"PDQ/incast-deadline", 0x616c3f9a907ea297ull},
    {"PDQ/tree-leftright", 0x05a1d630790a511cull},
    {"pFabric/rack-random", 0x46b34f6a647c3cc6ull},
    {"pFabric/incast-deadline", 0x9011ae714bec3e90ull},
    {"pFabric/tree-leftright", 0x64bf48f64c33b565ull},
    {"PASE/rack-random", 0x0ee0f2de8d2216e8ull},
    {"PASE/incast-deadline", 0x54f71e1d098e4245ull},
    {"PASE/tree-leftright", 0x063b5a9eda70d06dull},
};
// DCTCP and D2TCP intentionally share fingerprints on the non-deadline
// cases: with no deadlines, D2TCP's gamma-correction exponent is 1 and the
// two senders are algorithmically identical.

TEST(HotpathGolden, TracesMatchPreRefactorEngine) {
  const auto cases = fingerprint_battery();
  ASSERT_EQ(cases.size(), std::size(kGoldenFingerprints));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_EQ(cases[i].label, kGoldenFingerprints[i].label)
        << "battery order drifted from the recorded table at index " << i;
    const workload::ScenarioResult r = workload::run_scenario(cases[i].config);
    EXPECT_EQ(trace_fingerprint(r), kGoldenFingerprints[i].fingerprint)
        << "trace drift in " << cases[i].label
        << " — the engine no longer reproduces the recorded schedule";
  }
}

}  // namespace
}  // namespace pase
