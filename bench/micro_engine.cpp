// google-benchmark micro-benchmarks for the simulation substrate: event
// queue throughput, queue disciplines, Algorithm 1, and whole-scenario
// simulation rate.
#include <benchmark/benchmark.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/arbitration_algorithm.h"
#include "exp/sweep.h"
#include "net/droptail_queue.h"
#include "net/flow_demux.h"
#include "net/host.h"
#include "net/pfabric_queue.h"
#include "net/priority_queue_bank.h"
#include "net/red_ecn_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "workload/scenario.h"

namespace {

using namespace pase;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    sim::Rng rng(1);
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      s.schedule(rng.uniform(0, 1.0), [&fired] { ++fired; });
    }
    s.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

// Hold model shaped like a packet hop: state.range(0) events stay pending;
// each pop schedules one event U[1, 3] us ahead, and 1 in 16 pops cancels a
// pending event and reschedules it (the retransmission-timer pattern).
// BM_EventQueueScheduleRun bursts into an empty queue, which the staging
// path serves; this one keeps the calendar's steady state busy: days
// detached into the sorted run, events landing in later buckets, cancels.
// Delays come from a precomputed table so the engine dominates. Reported
// time is ns per popped event.
struct HoldModel {
  sim::Simulator s;
  std::vector<double> delays;       // U[1, 3] us, cycled
  std::vector<sim::EventId> ids;    // handle of each of the last n schedules
  std::size_t next_delay = 0;
  std::uint64_t pops = 0;

  explicit HoldModel(int pending) : ids(static_cast<std::size_t>(pending)) {
    sim::Rng rng(11);
    delays.resize(4096);
    for (double& d : delays) d = rng.uniform(1e-6, 3e-6);
    s.reserve(static_cast<std::size_t>(pending));
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ids[i] = s.schedule_raw(rng.uniform(0.0, 3e-6), &hop, this);
    }
  }

  double delay() {
    next_delay = (next_delay + 1) & (delays.size() - 1);
    return delays[next_delay];
  }

  static void hop(void* ctx, void*) {
    auto* m = static_cast<HoldModel*>(ctx);
    const std::size_t n = m->ids.size();
    const std::uint64_t i = m->pops++;
    m->ids[i % n] = m->s.schedule_raw(m->delay(), &hop, m);
    if (i % 16 == 0) {
      // The handle scheduled n/2 pops ago is usually still pending.
      sim::EventId& old = m->ids[(i + n / 2) % n];
      if (m->s.cancel(old)) old = m->s.schedule_raw(m->delay(), &hop, m);
    }
  }
};

void BM_EventQueueHold(benchmark::State& state) {
  HoldModel m(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.s.step());
  }
  benchmark::DoNotOptimize(m.pops);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHold)->Arg(400)->Arg(10000);

void BM_TimerRestartChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    sim::Timer t(s, [] {});
    for (int i = 0; i < 1000; ++i) t.restart(1e-3);
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TimerRestartChurn);

// Schedule/cancel churn: every scheduled event is cancelled via its
// generation-stamped handle before it can fire (the retransmission-timer
// pattern that dominates real transport runs).
void BM_EventCancelChurn(benchmark::State& state) {
  const int n = 1000;
  for (auto _ : state) {
    sim::Simulator s;
    sim::Rng rng(8);
    for (int i = 0; i < n; ++i) {
      sim::EventId id = s.schedule(rng.uniform(1e-3, 1.0), [] {});
      benchmark::DoNotOptimize(s.cancel(id));
    }
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventCancelChurn);

void BM_PacketPoolAcquire(benchmark::State& state) {
  for (auto _ : state) {
    auto p = net::make_data_packet(1, 0, 1, 0);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketPoolAcquire);

void BM_PacketMakeUnique(benchmark::State& state) {
  // Baseline: heap-allocate a fresh Packet each time, bypassing the pool.
  for (auto _ : state) {
    auto p = std::make_unique<net::Packet>();
    p->flow = 1;
    p->seq = 0;
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketMakeUnique);

template <typename Q>
void queue_churn(Q& q, int n, sim::Rng& rng) {
  struct Shim : net::Queue {
    using net::Queue::do_dequeue;
    using net::Queue::do_enqueue;
  };
  for (int i = 0; i < n; ++i) {
    auto p = net::make_data_packet(
        static_cast<net::FlowId>(rng.uniform_int(1, 64)), 0, 1,
        static_cast<std::uint32_t>(i));
    p->remaining_size = rng.uniform(1e3, 1e6);
    p->priority = static_cast<int>(rng.uniform_int(0, 7));
    (q.*(&Shim::do_enqueue))(std::move(p));
    if (i % 2 == 1) {
      auto out = (q.*(&Shim::do_dequeue))();
      benchmark::DoNotOptimize(out);
    }
  }
  while (!q.empty()) {
    auto out = (q.*(&Shim::do_dequeue))();
    benchmark::DoNotOptimize(out);
  }
}

void BM_RedEcnQueue(benchmark::State& state) {
  sim::Rng rng(2);
  for (auto _ : state) {
    net::RedEcnQueue q(225, 65);
    queue_churn(q, 1000, rng);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_RedEcnQueue);

void BM_PriorityQueueBank(benchmark::State& state) {
  sim::Rng rng(3);
  for (auto _ : state) {
    net::PriorityQueueBank q(8, 500, 65);
    queue_churn(q, 1000, rng);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PriorityQueueBank);

void BM_PfabricQueue(benchmark::State& state) {
  sim::Rng rng(4);
  for (auto _ : state) {
    net::PfabricQueue q(76);
    queue_churn(q, 1000, rng);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PfabricQueue);

void BM_Algorithm1Arbitration(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  core::FlowTable table(10e9, 7, 40e6, 1.0);
  sim::Rng rng(5);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto id = static_cast<net::FlowId>(i++ % flows + 1);
    auto r = table.update_and_arbitrate(id, rng.uniform(2e3, 198e3), 1e9,
                                        0.0);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Algorithm1Arbitration)->Arg(16)->Arg(128)->Arg(1024);

void BM_FullScenarioPase(benchmark::State& state) {
  for (auto _ : state) {
    workload::ScenarioConfig cfg;
    cfg.protocol = workload::Protocol::kPase;
    cfg.topology = workload::ScenarioConfig::TopologyKind::kSingleRack;
    cfg.rack.num_hosts = 10;
    cfg.traffic.load = 0.7;
    cfg.traffic.num_flows = 100;
    cfg.traffic.seed = 6;
    auto res = workload::run_scenario(cfg);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_FullScenarioPase)->Unit(benchmark::kMillisecond);

void BM_FullScenarioPfabric(benchmark::State& state) {
  for (auto _ : state) {
    workload::ScenarioConfig cfg;
    cfg.protocol = workload::Protocol::kPfabric;
    cfg.topology = workload::ScenarioConfig::TopologyKind::kSingleRack;
    cfg.rack.num_hosts = 10;
    cfg.traffic.load = 0.7;
    cfg.traffic.num_flows = 100;
    cfg.traffic.seed = 6;
    auto res = workload::run_scenario(cfg);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_FullScenarioPfabric)->Unit(benchmark::kMillisecond);

// Parallel sweep scaling: 8 independent scenarios fanned across N worker
// threads. UseRealTime because the work happens off the timing thread;
// expect near-linear wall-clock scaling up to the core count.
void BM_SweepRunner(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  std::vector<workload::ScenarioConfig> configs;
  for (int i = 0; i < 8; ++i) {
    workload::ScenarioConfig cfg;
    cfg.protocol = workload::Protocol::kPase;
    cfg.topology = workload::ScenarioConfig::TopologyKind::kSingleRack;
    cfg.rack.num_hosts = 10;
    cfg.traffic.load = 0.5 + 0.05 * i;
    cfg.traffic.num_flows = 100;
    cfg.traffic.seed = static_cast<unsigned>(6 + i);
    configs.push_back(cfg);
  }
  const exp::SweepRunner runner(threads);
  for (auto _ : state) {
    auto results = runner.run(configs);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(configs.size()));
}
BENCHMARK(BM_SweepRunner)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Typed-event dispatch: raw fn-ptr events vs heap-spilled closures ---

void raw_count(void* ctx, void*) { ++*static_cast<int*>(ctx); }

// The post-refactor hot path: a raw function pointer plus context, written
// straight into the 64-byte event slot. No capture, no indirection beyond
// the call itself.
void BM_TypedEventDispatch(benchmark::State& state) {
  const int n = 1000;
  for (auto _ : state) {
    sim::Simulator s;
    sim::Rng rng(7);
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      s.schedule_raw(rng.uniform(0, 1.0), &raw_count, &fired);
    }
    s.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TypedEventDispatch);

// The pre-refactor cost model: every event carries a capture too big for the
// 24-byte inline payload, so each schedule allocates a heap closure — the
// same allocate/indirect/free cycle a std::function with a spilled capture
// paid on every event.
void BM_StdFunctionEventDispatch(benchmark::State& state) {
  const int n = 1000;
  for (auto _ : state) {
    sim::Simulator s;
    sim::Rng rng(7);
    int fired = 0;
    int* pf = &fired;
    const std::uint64_t pad1 = 1, pad2 = 2, pad3 = 3;  // 32-byte capture
    for (int i = 0; i < n; ++i) {
      s.schedule(rng.uniform(0, 1.0), [pf, pad1, pad2, pad3] {
        *pf += static_cast<int>(pad1 + pad2 + pad3 != 0);
      });
    }
    s.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StdFunctionEventDispatch);

// --- Host receive demux: open-addressing FlowDemux vs std::unordered_map ---

struct NullSink : net::PacketSink {
  void deliver(net::PacketPtr) override {}
};

void BM_HostDemuxFlat(benchmark::State& state) {
  const net::FlowId n = static_cast<net::FlowId>(state.range(0));
  net::FlowDemux demux;
  NullSink sink;
  for (net::FlowId f = 1; f <= n; ++f) demux.insert(f, &sink);
  net::FlowId f = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(demux.find(f));
    if (++f > n) f = 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostDemuxFlat)->Arg(16)->Arg(1024);

void BM_HostDemuxUnorderedMap(benchmark::State& state) {
  const net::FlowId n = static_cast<net::FlowId>(state.range(0));
  std::unordered_map<net::FlowId, net::PacketSink*> demux;
  NullSink sink;
  for (net::FlowId f = 1; f <= n; ++f) demux.emplace(f, &sink);
  net::FlowId f = 1;
  for (auto _ : state) {
    auto it = demux.find(f);
    benchmark::DoNotOptimize(it);
    if (++f > n) f = 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostDemuxUnorderedMap)->Arg(16)->Arg(1024);

// --- Switch forwarding lookup: dense window vs grouped hash vs path memo ---

// Builds a switch with four ports and routes for `dsts` destinations
// installed by `route`. Lookup cost is what the per-hop path pays in
// Switch::receive.
struct PortForFixture {
  struct CountingNodeFwd : net::Node {
    explicit CountingNodeFwd(net::NodeId id) : net::Node(id, "nbr") {}
    void receive(net::PacketPtr) override {}
  };

  sim::Simulator sim;
  net::Switch sw{0, "bench-sw"};
  std::vector<std::unique_ptr<CountingNodeFwd>> neighbors;

  explicit PortForFixture(int ports) {
    for (int i = 0; i < ports; ++i) {
      auto nbr = std::make_unique<CountingNodeFwd>(
          static_cast<net::NodeId>(100 + i));
      sw.add_port(std::make_unique<net::DropTailQueue>(16),
                  std::make_unique<net::Link>(sim, 10e9, 1e-6),
                  nbr.get());
      neighbors.push_back(std::move(nbr));
    }
  }
};

// Single-path destinations: one dense-window load.
void BM_PortForDense(benchmark::State& state) {
  PortForFixture f(4);
  constexpr net::NodeId kDsts = 64;
  for (net::NodeId d = 1; d <= kDsts; ++d) {
    f.sw.set_route(d, static_cast<int>(d) % 4);
  }
  auto p = net::make_data_packet(7, 200, 1, 0);
  net::NodeId d = 1;
  for (auto _ : state) {
    p->dst = d;
    benchmark::DoNotOptimize(f.sw.port_for(*p));
    if (++d > kDsts) d = 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PortForDense);

// Grouped destinations with the per-flow memo disabled: every lookup pays
// the full flow_path_hash (byte-serial FNV + finisher).
void BM_PortForGroupedHash(benchmark::State& state) {
  PortForFixture f(4);
  constexpr net::NodeId kDsts = 64;
  for (net::NodeId d = 1; d <= kDsts; ++d) {
    f.sw.set_route_group(d, {0, 1, 2, 3});
  }
  f.sw.set_path_cache_capacity(0);
  auto p = net::make_data_packet(7, 200, 1, 0);
  net::NodeId d = 1;
  for (auto _ : state) {
    p->dst = d;
    p->flow = static_cast<net::FlowId>(d * 31 + 1);
    benchmark::DoNotOptimize(f.sw.port_for(*p));
    if (++d > kDsts) d = 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PortForGroupedHash);

// Grouped destinations with the memo on: steady state is a slot probe and
// compare; the hash runs only on the first packet of each flow direction.
void BM_PortForGroupedCached(benchmark::State& state) {
  PortForFixture f(4);
  constexpr net::NodeId kDsts = 64;
  for (net::NodeId d = 1; d <= kDsts; ++d) {
    f.sw.set_route_group(d, {0, 1, 2, 3});
  }
  f.sw.set_path_cache_capacity(1024);
  auto p = net::make_data_packet(7, 200, 1, 0);
  net::NodeId d = 1;
  for (auto _ : state) {
    p->dst = d;
    p->flow = static_cast<net::FlowId>(d * 31 + 1);
    benchmark::DoNotOptimize(f.sw.port_for(*p));
    if (++d > kDsts) d = 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PortForGroupedCached);

// --- Full link hop: enqueue -> dequeue -> serialize -> deliver ---

struct CountingNode : net::Node {
  CountingNode() : net::Node(1, "sink") {}
  std::uint64_t received = 0;
  void receive(net::PacketPtr) override { ++received; }
};

// One item = one packet hop plus the queue discipline's enqueue/dequeue.
// The n packets form one burst, which costs n deliveries plus n - 1
// tx-dones (a tx-done runs only while a packet waits), so this is the
// busy-link cost. Reported time is ns per hop.
void BM_LinkHop(benchmark::State& state) {
  const int n = 1000;
  for (auto _ : state) {
    sim::Simulator s;
    net::DropTailQueue q(n + 8);
    net::Link link(s, 10e9, 1e-6, "bench");
    CountingNode dst;
    link.connect(&q, &dst);
    for (int i = 0; i < n; ++i) {
      q.enqueue(net::make_data_packet(1, 0, 1, static_cast<std::uint32_t>(i)));
    }
    s.run();
    benchmark::DoNotOptimize(dst.received);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LinkHop);

}  // namespace

BENCHMARK_MAIN();
