// Slab-backed endpoint storage: arena mechanics and recycling equivalence.
//
// The EndpointArena builds objects into fixed-size slots from chunks that
// never move, so endpoint pointers stay stable while memory tracks peak
// concurrency. The scenario-level contract — recycling retired endpoints
// must be invisible to the event path — is pinned two ways: a recycle-on run
// reproduces a recycle-off run record for record, and growing the workload
// at fixed concurrency does not grow the slabs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "proto/endpoint_arena.h"
#include "workload/endpoint_table.h"
#include "workload/scenario.h"

namespace pase {
namespace {

// --- EndpointArena unit tests ------------------------------------------------

struct alignas(16) Blob48 {
  char b[48];
};
struct alignas(16) Blob64 {
  char b[64];
};
struct alignas(32) Blob32 {
  char b[32];
};

// A polymorphic type whose second base sits past the object's start, as a
// sender's Sender base may sit past its slot's: destroying through that base
// must still free the slot emplace() handed out.
struct Front {
  virtual ~Front() = default;
  char pad[24] = {};
};
struct Back {
  virtual ~Back() = default;
};
struct TwoBases final : Front, Back {
  explicit TwoBases(int* dtors) : dtors(dtors) {}
  ~TwoBases() override { ++*dtors; }
  int* dtors;
};

TEST(EndpointArena, AcquireHandsOutDistinctAlignedSlots) {
  proto::EndpointArena arena;
  // One slot past a full chunk, so the second chunk is allocated too.
  constexpr std::size_t n = proto::EndpointArena::kSlotsPerChunk + 1;
  std::vector<Blob48*> blobs;
  for (std::size_t i = 0; i < n; ++i) {
    Blob48* p = arena.emplace<Blob48>();
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
    std::memset(p->b, static_cast<int>(i % 251), sizeof(p->b));
    blobs.push_back(p);
  }
  // Every object kept its bytes: no two slots overlap.
  for (std::size_t i = 0; i < n; ++i) {
    for (const char c : blobs[i]->b) {
      ASSERT_EQ(c, static_cast<char>(i % 251)) << "slot " << i << " overlaps";
    }
  }
  EXPECT_EQ(arena.live(), n);
  EXPECT_EQ(arena.grow_events(), 2u);
}

TEST(EndpointArena, ReleaseRecyclesBeforeGrowing) {
  proto::EndpointArena arena;
  int dtors = 0;
  std::vector<void*> slots;
  std::vector<Back*> live;
  for (int i = 0; i < 8; ++i) {
    TwoBases* t = arena.emplace<TwoBases>(&dtors);
    slots.push_back(t);
    live.push_back(t);
  }
  ASSERT_NE(static_cast<void*>(live[0]), slots[0])
      << "the second base must sit past the slot start";
  ASSERT_EQ(arena.grow_events(), 1u);
  // A full destroy/emplace cycle at the same concurrency reuses the chunk.
  for (Back* b : live) arena.destroy(b);
  EXPECT_EQ(arena.live(), 0u);
  for (int round = 0; round < 50; ++round) {
    live.clear();
    for (int i = 0; i < 8; ++i) {
      TwoBases* t = arena.emplace<TwoBases>(&dtors);
      EXPECT_EQ(std::count(slots.begin(), slots.end(), static_cast<void*>(t)),
                1)
          << "recycled emplace returned a pointer outside the first chunk";
      live.push_back(t);
    }
    for (Back* b : live) arena.destroy(b);
  }
  EXPECT_EQ(arena.grow_events(), 1u) << "steady-state churn grew the arena";
  EXPECT_EQ(dtors, 8 * 51);
}

// --- slab guards abort in every build -----------------------------------------
//
// Each guarded state would let the arena or the table hand one slot to two
// flows, or overrun a slot, so the guards are PASE_CHECKs, not debug-only
// DCHECKs.

TEST(EndpointArenaDeathTest, ReleaseWithNoLiveSlotAborts) {
  EXPECT_DEATH(
      {
        proto::EndpointArena arena;
        Blob48* p = arena.emplace<Blob48>();
        arena.release(p);
        arena.release(p);
      },
      "live_ > 0");
}

// The first type fixes the slot geometry; a later, larger or more strictly
// aligned type would overrun its slot.
TEST(EndpointArenaDeathTest, EmplaceOfALargerTypeAborts) {
  EXPECT_DEATH(
      {
        proto::EndpointArena arena;
        arena.emplace<Blob48>();
        arena.emplace<Blob64>();
      },
      "sizeof\\(T\\) <= slot_size_");
  EXPECT_DEATH(
      {
        proto::EndpointArena arena;
        arena.emplace<Blob48>();
        arena.emplace<Blob32>();
      },
      "alignof\\(T\\) <= align_");
}

TEST(EndpointTableDeathTest, DoubleReleaseAborts) {
  EXPECT_DEATH(
      {
        workload::EndpointTable table;
        const std::uint32_t s = table.acquire();
        table.release(s);
        table.release(s);
      },
      "in_use");
}

// --- recycling is event-path invisible ---------------------------------------

workload::ScenarioConfig churn_config(workload::Protocol p, int num_flows) {
  using workload::Pattern;
  using workload::ScenarioConfig;
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.topology = ScenarioConfig::TopologyKind::kSingleRack;
  cfg.rack.num_hosts = 16;
  cfg.traffic.pattern = Pattern::kIntraRackRandom;
  cfg.traffic.load = 0.6;
  cfg.traffic.num_flows = num_flows;
  cfg.traffic.seed = 29;
  return cfg;
}

void expect_identical_records(const workload::ScenarioResult& a,
                              const workload::ScenarioResult& b) {
  EXPECT_EQ(a.data_packets_sent, b.data_packets_sent);
  EXPECT_EQ(a.probes_sent, b.probes_sent);
  EXPECT_EQ(a.fabric_drops, b.fabric_drops);
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const stats::FlowRecord& ra = a.records[i];
    const stats::FlowRecord& rb = b.records[i];
    EXPECT_EQ(ra.id, rb.id);
    EXPECT_DOUBLE_EQ(ra.start, rb.start);
    EXPECT_DOUBLE_EQ(ra.finish, rb.finish);
    EXPECT_EQ(ra.terminated, rb.terminated);
  }
}

TEST(EndpointRecycling, RecycleOnReproducesRecycleOffBitForBit) {
  for (const workload::Protocol p :
       {workload::Protocol::kDctcp, workload::Protocol::kPdq,
        workload::Protocol::kPfabric}) {
    workload::ScenarioConfig on = churn_config(p, 150);
    on.recycle_endpoints = true;
    workload::ScenarioConfig off = churn_config(p, 150);
    off.recycle_endpoints = false;
    const workload::ScenarioResult ron = workload::run_scenario(on);
    const workload::ScenarioResult roff = workload::run_scenario(off);
    expect_identical_records(ron, roff);
  }
}

TEST(EndpointRecycling, LiveEndpointsTrackConcurrencyNotFlowCount) {
  workload::ScenarioConfig cfg = churn_config(workload::Protocol::kDctcp, 600);
  cfg.recycle_endpoints = true;
  const workload::ScenarioResult r = workload::run_scenario(cfg);
  EXPECT_GT(r.peak_live_flows, 0u);
  EXPECT_LT(r.peak_live_flows, 600u)
      << "recycling never reclaimed a slot: peak live == total flows";
}

TEST(EndpointRecycling, SlabGrowthIsConstantInFlowCount) {
  // Same arrival process (load, pattern, sizes, seed) at 1x and 4x the flow
  // count, both long enough to pass the warmup transient (live population =
  // active flows + one retire quarantine's worth of arrivals): concurrency
  // is stationary, so the slab high-water mark — and with it the
  // chunk-allocation count — must not scale with total flows.
  workload::ScenarioConfig small =
      churn_config(workload::Protocol::kDctcp, 2000);
  workload::ScenarioConfig big =
      churn_config(workload::Protocol::kDctcp, 8000);
  const workload::ScenarioResult rs = workload::run_scenario(small);
  const workload::ScenarioResult rb = workload::run_scenario(big);
  EXPECT_EQ(rs.slab_grow_events, rb.slab_grow_events)
      << "4x the flows grew the endpoint slabs: recycling is leaking slots "
         "(peak live "
      << rs.peak_live_flows << " vs " << rb.peak_live_flows << ")";
}

TEST(EndpointRecycling, ComposesWithStreamingStats) {
  workload::ScenarioConfig cfg = churn_config(workload::Protocol::kD2tcp, 300);
  cfg.recycle_endpoints = true;
  cfg.stats_mode = workload::ScenarioConfig::StatsMode::kStreaming;
  workload::ScenarioConfig exact_cfg =
      churn_config(workload::Protocol::kD2tcp, 300);
  exact_cfg.recycle_endpoints = false;
  exact_cfg.stats_mode = workload::ScenarioConfig::StatsMode::kExact;
  const workload::ScenarioResult stream = workload::run_scenario(cfg);
  const workload::ScenarioResult exact = workload::run_scenario(exact_cfg);
  // Fully decoupled storage/aggregation choices, same simulation underneath.
  EXPECT_EQ(stream.data_packets_sent, exact.data_packets_sent);
  EXPECT_EQ(stream.total_flows(), exact.total_flows());
  EXPECT_EQ(stream.unfinished(), exact.unfinished());
  EXPECT_NEAR(stream.afct() / exact.afct(), 1.0, 1e-3);
}

TEST(EndpointRecycling, ParallelRunRecyclesWithIdenticalRecords) {
  // The parallel engine retires slots at chunk barriers; records must still
  // match the sequential run exactly (the full 18-case battery lives in
  // parallel_engine_test.cc — this is the recycling-focused smoke).
  workload::ScenarioConfig seq = churn_config(workload::Protocol::kDctcp, 600);
  seq.recycle_endpoints = true;
  seq.workers = 1;
  workload::ScenarioConfig par = churn_config(workload::Protocol::kDctcp, 600);
  par.recycle_endpoints = true;
  par.workers = 4;
  const workload::ScenarioResult rs = workload::run_scenario(seq);
  const workload::ScenarioResult rp = workload::run_scenario(par);
  EXPECT_GT(rp.workers_used, 1);
  expect_identical_records(rs, rp);
  // Fewer live endpoints than total flows (records include background flows,
  // which never retire): some slot was reclaimed mid-run.
  EXPECT_LT(rp.peak_live_flows, rs.records.size());
}

}  // namespace
}  // namespace pase
