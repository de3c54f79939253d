// Zero-allocation steady state.
//
// The tentpole claim of the typed-event engine is that a warmed simulation
// schedules, fires, and forwards packets without touching the allocator.
// This test drives the real per-hop machinery — Host -> Queue -> Link raw
// events -> Host demux -> sink, with an ACK-clocked echo keeping packets in
// flight — and asserts that after a warmup segment every allocation
// telemetry counter stays frozen:
//   - Simulator::heap_closure_events(): no closure ever spills to the heap,
//   - Simulator::slot_chunks_allocated(): the slot arena never grows,
//   - Simulator::calendar_rebuilds(): the calendar never restructures,
//   - Simulator::run_reallocations(): the sorted run never reallocates,
//   - PacketPool::misses(): no packet acquire falls through to `new`.
#include <gtest/gtest.h>

#include <memory>

#include "net/droptail_queue.h"
#include "net/host.h"
#include "net/link.h"
#include "obs/trace_sink.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

namespace pase::net {
namespace {

// Echoes every delivered packet back to the peer host until `remaining`
// exchanges are used up — a two-node stand-in for ACK clocking.
struct EchoSink : PacketSink {
  Host* replier = nullptr;
  NodeId peer = kInvalidNode;
  FlowId flow = 0;
  int remaining = 0;
  std::uint64_t delivered = 0;

  void deliver(PacketPtr p) override {
    ++delivered;
    (void)p;  // recycled into the pool here
    if (remaining > 0) {
      --remaining;
      replier->send(make_data_packet(flow, replier->id(), peer, 0));
    }
  }
};

TEST(AllocFreeSteadyState, WarmedPingPongAllocatesNothing) {
  sim::Simulator sim;
  PacketPool& pool = PacketPool::local();
  pool.drain();

  Host a(0, "a");
  Host b(1, "b");
  // 10 Gbps links, 5 us propagation, directly wired host-to-host.
  a.attach_uplink(std::make_unique<DropTailQueue>(64),
                  std::make_unique<Link>(sim, 10e9, 5e-6, "a->b"), &b);
  b.attach_uplink(std::make_unique<DropTailQueue>(64),
                  std::make_unique<Link>(sim, 10e9, 5e-6, "b->a"), &a);

  constexpr int kExchanges = 20000;
  EchoSink on_b;  // receives on b, replies toward a
  on_b.replier = &b;
  on_b.peer = 0;
  on_b.flow = 1;
  on_b.remaining = kExchanges;
  EchoSink on_a;  // receives on a, replies toward b
  on_a.replier = &a;
  on_a.peer = 1;
  on_a.flow = 1;
  on_a.remaining = kExchanges;
  b.register_flow(1, &on_b);
  a.register_flow(1, &on_a);

  // Pre-size exactly as scenario setup does, then kick off the exchange.
  sim.reserve(256);
  pool.prewarm(64);
  const std::uint64_t cold_misses = pool.misses();
  a.send(make_data_packet(1, 0, 1, 0));

  // Warmup: let width adaptation, pool filling, and slot-arena growth
  // happen; the steady state begins after a few thousand events.
  for (int i = 0; i < 4000 && sim.step(); ++i) {
  }
  ASSERT_GT(sim.executed_events(), 0u);

  const std::uint64_t heap_closures = sim.heap_closure_events();
  const std::uint64_t rebuilds = sim.calendar_rebuilds();
  const std::uint64_t run_reallocations = sim.run_reallocations();
  const std::size_t chunks = sim.slot_chunks_allocated();
  const std::uint64_t misses = pool.misses();

  sim.run();  // drain the remaining tens of thousands of exchanges

  EXPECT_GT(on_a.delivered + on_b.delivered, 30000u);
  EXPECT_EQ(sim.heap_closure_events(), heap_closures)
      << "a hot-path event spilled a closure to the heap";
  EXPECT_EQ(sim.calendar_rebuilds(), rebuilds)
      << "the calendar restructured mid-steady-state";
  EXPECT_EQ(sim.run_reallocations(), run_reallocations)
      << "the sorted run reallocated mid-steady-state";
  EXPECT_EQ(sim.slot_chunks_allocated(), chunks)
      << "the slot arena grew mid-steady-state";
  EXPECT_EQ(pool.misses(), misses)
      << "a packet acquire fell through to the allocator";
  // The raw-event hot path never allocates closures at all in this harness.
  EXPECT_EQ(sim.heap_closure_events(), 0u);
  // Sanity: the pool did have to allocate during the cold start.
  EXPECT_GE(misses, cold_misses);
}

// The ping-pong harness above pins the engine; this pins the protocols. A
// full scenario run — setup, flow launches, sender/receiver timers, control
// plane, teardown — must never spill a closure to the heap, for every one of
// the six profiles. ScenarioResult::heap_closure_events surfaces the engine
// counter so the assertion needs no access to simulator internals.
TEST(AllocFreeSteadyState, EveryProtocolProfileRunsWithoutHeapClosures) {
  const proto::Protocol protocols[] = {
      proto::Protocol::kDctcp,   proto::Protocol::kD2tcp,
      proto::Protocol::kL2dct,   proto::Protocol::kPdq,
      proto::Protocol::kPfabric, proto::Protocol::kPase};
  for (const proto::Protocol p : protocols) {
    workload::ScenarioConfig cfg;
    cfg.protocol = p;
    cfg.topology = workload::ScenarioConfig::TopologyKind::kSingleRack;
    cfg.rack.num_hosts = 12;
    cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
    cfg.traffic.load = 0.6;
    cfg.traffic.num_flows = 60;
    cfg.traffic.seed = 7;
    const workload::ScenarioResult r = workload::run_scenario(cfg);
    EXPECT_EQ(r.heap_closure_events, 0u)
        << "profile " << static_cast<int>(p)
        << " scheduled a heap-allocated closure";
    EXPECT_GT(r.records.size(), 0u);
  }
}

// Lazy activation's allocation story: endpoints materialize at flow start
// from slab slots and retire back into them, so once the slabs reach the
// workload's stationary concurrency they stop growing — running 4x as many
// flows through the same arrival process allocates not one more chunk. The
// closure side must stay at zero too: launch events and recycle bookkeeping
// ride the inline path.
TEST(AllocFreeSteadyState, LazyActivationChurnKeepsSlabsAndClosuresFrozen) {
  auto config = [](int num_flows) {
    workload::ScenarioConfig cfg;
    cfg.protocol = proto::Protocol::kDctcp;
    cfg.topology = workload::ScenarioConfig::TopologyKind::kSingleRack;
    cfg.rack.num_hosts = 16;
    cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
    cfg.traffic.load = 0.6;
    cfg.traffic.num_flows = num_flows;
    cfg.traffic.seed = 13;
    cfg.recycle_endpoints = true;
    cfg.stats_mode = workload::ScenarioConfig::StatsMode::kStreaming;
    return cfg;
  };
  const workload::ScenarioResult warm = workload::run_scenario(config(2000));
  const workload::ScenarioResult churn = workload::run_scenario(config(8000));
  ASSERT_GT(warm.slab_grow_events, 0u);  // the slabs are actually in play
  EXPECT_EQ(churn.slab_grow_events, warm.slab_grow_events)
      << "slabs grew with total flow count: an arrival allocated instead of "
         "reusing a retired slot";
  EXPECT_EQ(churn.heap_closure_events, 0u)
      << "a launch or recycle event spilled a closure to the heap";
  EXPECT_LT(churn.peak_live_flows, 8000u);
}

// Tracing must preserve the allocation story: the ring is preallocated at
// install time and every emit writes in place, so a traced run's steady
// state stays as heap-closure-free as an untraced one.
TEST(AllocFreeSteadyState, TracingEnabledKeepsHeapClosuresAtZero) {
  workload::ScenarioConfig cfg;
  cfg.protocol = proto::Protocol::kPase;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kSingleRack;
  cfg.rack.num_hosts = 12;
  cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
  cfg.traffic.load = 0.6;
  cfg.traffic.num_flows = 60;
  cfg.traffic.seed = 7;
  cfg.trace.enabled = true;
  const workload::ScenarioResult r = workload::run_scenario(cfg);
  EXPECT_EQ(r.heap_closure_events, 0u)
      << "a trace emit site scheduled a heap-allocated closure";
  ASSERT_NE(r.trace, nullptr);
  EXPECT_GT(r.trace->events.size(), 0u);
}

}  // namespace
}  // namespace pase::net
