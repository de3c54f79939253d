#include "workload/scenario.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "net/packet.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/trace_sink.h"
#include "proto/registry.h"
#include "proto/transport_profile.h"
#include "sim/parallel.h"
#include "topo/builder.h"
#include "topo/partition.h"
#include "workload/endpoint_table.h"

namespace pase::workload {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Aggregate counters every run exports, independent of execution mode.
void fold_common_metrics(obs::MetricsRegistry& reg, const ScenarioResult& r,
                         topo::BuiltTopology& built) {
  std::uint64_t drops = 0, marks = 0, enqueues = 0, queue_bytes = 0;
  built.topo().for_each_queue([&](net::Queue& q) {
    drops += q.drops();
    marks += q.marks();
    enqueues += q.enqueues();
    queue_bytes += q.buffer_bytes();
  });
  reg.counter("fabric.drops") = drops;
  reg.counter("fabric.marks") = marks;
  reg.counter("fabric.enqueues") = enqueues;
  // Bytes held at the end of the run by the two stores that size themselves
  // by live state: host demux tables (the flows still registered) and queue
  // rings (each queue's high-water mark). A parallel run registers flows at
  // chunk barriers, so its demux figure may differ from a sequential run's.
  std::uint64_t demux_bytes = 0;
  for (const auto& h : built.topo().hosts()) demux_bytes += h->demux_bytes();
  reg.counter("mem.demux_bytes") = demux_bytes;
  reg.counter("mem.queue_buffer_bytes") = queue_bytes;
  reg.counter("flows.total") = r.total_flows();
  reg.counter("flows.unfinished") = r.unfinished();
  reg.counter("packets.data_sent") = r.data_packets_sent;
  reg.counter("packets.probes_sent") = r.probes_sent;
  reg.counter("control.messages_sent") = r.control.messages_sent;
  reg.counter("control.arbitrations") = r.control.arbitrations;
  reg.counter("engine.heap_closure_events") = r.heap_closure_events;
  reg.counter("endpoint.slab_grow_events") = r.slab_grow_events;
  reg.counter("endpoint.peak_live_flows") = r.peak_live_flows;
  reg.gauge("engine.workers") = r.workers_used;
  reg.gauge("time.end") = r.end_time;
  // Core-tier load balance (topologies with a core tier only): max/mean
  // bytes over the core-facing links. ~1.0 means the per-flow ECMP hash is
  // spreading load evenly; deterministic, so safe in sweep JSON.
  const std::vector<net::Link*> core = built.core_links();
  if (!core.empty()) {
    std::uint64_t total_bytes = 0, max_bytes = 0;
    for (const net::Link* l : core) {
      total_bytes += l->bytes_sent();
      max_bytes = std::max(max_bytes, l->bytes_sent());
    }
    const double mean = static_cast<double>(total_bytes) /
                        static_cast<double>(core.size());
    reg.counter("fabric.core_links") = core.size();
    reg.gauge("fabric.core_link_max_bytes") = static_cast<double>(max_bytes);
    reg.gauge("fabric.core_link_imbalance") =
        mean > 0.0 ? static_cast<double>(max_bytes) / mean : 0.0;
  }
  // Route-table footprint across the fabric: the scale benches gate on
  // bytes/switch staying sublinear in host count (compressed structural
  // routes). Deterministic — a pure function of the built topology.
  std::uint64_t route_bytes = 0;
  for (const auto& sw : built.topo().switches()) {
    route_bytes += sw->route_state_bytes();
  }
  reg.counter("fabric.switches") = built.topo().switches().size();
  reg.counter("fabric.route_table_bytes") = route_bytes;
  // setup_wall_sec intentionally stays out of the registry: the metrics
  // snapshot is serialized into sweep JSON, which must be deterministic.
  if (r.trace) reg.counter("trace.dropped") = r.trace->dropped;
}

// Self-profiler fold (--profile): dispatch mix, per-labeled-handler counts,
// calendar scan statistics, pending-event high-water mark and switch
// path-cache hit rates. Every input is deterministic (event counts and
// structural state, no wall clocks), so the profile.* entries are safe in
// sweep JSON. A parallel run passes one simulator per domain; counts sum.
void fold_profile_metrics(obs::MetricsRegistry& reg,
                          const std::vector<const sim::Simulator*>& doms,
                          topo::BuiltTopology& built) {
  std::uint64_t raw = 0, inl = 0, heap = 0, unlabeled = 0;
  std::uint64_t walks = 0, scan_sum = 0, scan_max = 0, peak = 0;
  for (const sim::Simulator* s : doms) {
    raw += s->profile_raw_dispatches();
    inl += s->profile_inline_dispatches();
    heap += s->profile_heap_dispatches();
    unlabeled += s->profile_unlabeled_dispatches();
    walks += s->profile_top_walks();
    scan_sum += s->profile_scan_sum();
    scan_max = std::max(scan_max, s->profile_scan_max());
    peak += s->profile_peak_pending();
    for (const auto& [label, count] : s->profiled_fn_counts()) {
      reg.counter(std::string("profile.engine.dispatch.") + label) += count;
    }
  }
  reg.counter("profile.engine.dispatch.raw") = raw;
  reg.counter("profile.engine.dispatch.inline_closure") = inl;
  reg.counter("profile.engine.dispatch.heap_closure") = heap;
  reg.counter("profile.engine.dispatch.raw_unlabeled") = unlabeled;
  reg.counter("profile.engine.top_walks") = walks;
  reg.gauge("profile.engine.scan_mean") =
      walks > 0 ? static_cast<double>(scan_sum) / static_cast<double>(walks)
                : 0.0;
  reg.counter("profile.engine.scan_max") = scan_max;
  reg.counter("profile.engine.peak_pending") = peak;
  std::uint64_t hits = 0, misses = 0;
  for (const auto& sw : built.topo().switches()) {
    hits += sw->path_cache_hits();
    misses += sw->path_cache_misses();
  }
  reg.counter("profile.switch.path_cache_hits") = hits;
  reg.counter("profile.switch.path_cache_misses") = misses;
  reg.gauge("profile.switch.path_cache_hit_rate") =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
}

// Applies scenario-level switch knobs once the topology is built: currently
// just the per-flow path-memo capacity (see ScenarioConfig::path_cache_entries;
// 0 disables the memo). Selections are identical at any capacity, so this
// never perturbs goldens.
void apply_switch_tuning(topo::BuiltTopology& built, const ScenarioConfig& cfg) {
  for (const auto& sw : built.topo().switches()) {
    sw->set_path_cache_capacity(cfg.path_cache_entries);
  }
}

const proto::TransportProfile& resolve_profile(const ScenarioConfig& cfg) {
  if (!cfg.profile_name.empty()) {
    if (const proto::TransportProfile* p =
            proto::profile_for(cfg.profile_name)) {
      return *p;
    }
    throw std::invalid_argument("unknown transport profile '" +
                                cfg.profile_name + "'");
  }
  return proto::profile_for(cfg.protocol);
}

std::unique_ptr<topo::TopologyBuilder> topology_builder(
    const ScenarioConfig& cfg) {
  if (cfg.topology == ScenarioConfig::TopologyKind::kSingleRack) {
    return std::make_unique<topo::SingleRackBuilder>(cfg.rack);
  }
  if (cfg.topology == ScenarioConfig::TopologyKind::kFatTree) {
    return std::make_unique<topo::FatTreeBuilder>(cfg.fattree);
  }
  return std::make_unique<topo::ThreeTierBuilder>(cfg.tree);
}

[[noreturn]] void bad_config(const std::string& what) {
  throw std::invalid_argument("invalid scenario config: " + what);
}

// Generic (profile-independent) sanity checks.
void validate_generic(const ScenarioConfig& cfg) {
  if (!(cfg.max_duration > 0.0)) {
    bad_config("max_duration must be positive, got " +
               std::to_string(cfg.max_duration));
  }
  if (cfg.topology == ScenarioConfig::TopologyKind::kSingleRack) {
    if (cfg.rack.num_hosts < 2) {
      bad_config("single-rack topology needs at least 2 hosts, got " +
                 std::to_string(cfg.rack.num_hosts));
    }
    if (!(cfg.rack.host_rate_bps > 0.0)) {
      bad_config("rack.host_rate_bps must be positive");
    }
  } else if (cfg.topology == ScenarioConfig::TopologyKind::kFatTree) {
    const topo::FatTreeConfig& ft = cfg.fattree;
    if (ft.k < 2 || ft.k % 2 != 0) {
      bad_config("fat-tree radix k must be even and at least 2, got " +
                 std::to_string(ft.k));
    }
    if (ft.num_pods < 0 || ft.pods() > ft.k) {
      bad_config("fat-tree num_pods (" + std::to_string(ft.num_pods) +
                 ") must lie in [0, k]");
    }
    if (!(ft.oversubscription > 0.0) || ft.hosts_per_edge() < 1) {
      bad_config("fat-tree oversubscription must give at least 1 host per "
                 "edge switch");
    }
    if (ft.num_hosts() < 2) {
      bad_config("fat-tree topology needs at least 2 hosts");
    }
    if (!(ft.host_rate_bps > 0.0) || !(ft.fabric_rate_bps > 0.0)) {
      bad_config("fat-tree link rates must be positive");
    }
  } else {
    if (cfg.tree.num_tors < 1 || cfg.tree.hosts_per_tor < 1 ||
        cfg.tree.tors_per_agg < 1) {
      bad_config("three-tier dimensions must all be at least 1");
    }
    if (cfg.tree.num_tors % cfg.tree.tors_per_agg != 0) {
      bad_config("num_tors (" + std::to_string(cfg.tree.num_tors) +
                 ") must be a multiple of tors_per_agg (" +
                 std::to_string(cfg.tree.tors_per_agg) + ")");
    }
    if (cfg.tree.num_tors * cfg.tree.hosts_per_tor < 2) {
      bad_config("three-tier topology needs at least 2 hosts");
    }
    if (!(cfg.tree.host_rate_bps > 0.0) || !(cfg.tree.fabric_rate_bps > 0.0)) {
      bad_config("tree link rates must be positive");
    }
  }
  const WorkloadConfig& t = cfg.traffic;
  if (!(t.load > 0.0)) {
    bad_config("traffic.load must be positive, got " + std::to_string(t.load));
  }
  if (t.size_min_bytes <= 0 || t.size_max_bytes < t.size_min_bytes) {
    bad_config("flow size range [" + std::to_string(t.size_min_bytes) + ", " +
               std::to_string(t.size_max_bytes) +
               "] is empty or non-positive");
  }
  if (t.deadline_min < 0.0 || t.deadline_max < t.deadline_min) {
    bad_config("deadline range [" + std::to_string(t.deadline_min) + ", " +
               std::to_string(t.deadline_max) + "] is invalid");
  }
  if (t.pattern == Pattern::kLeftRight &&
      cfg.topology == ScenarioConfig::TopologyKind::kSingleRack) {
    bad_config("left-right traffic needs a topology with a fabric tier");
  }
}

stats::FlowRecord record_from(const transport::Flow& f) {
  stats::FlowRecord rec;
  rec.id = f.id;
  rec.size_bytes = f.size_bytes;
  rec.start = f.start_time;
  rec.deadline = f.deadline;
  rec.background = f.background;
  return rec;
}

// --- Sequential driver -------------------------------------------------------
//
// Flows exist in three forms over their life:
//   pending    — a compact descriptor in Run::flows plus one inline launch
//                event; no endpoints, no demux entries, no per-flow heap.
//   live       — an EndpointSlot: sender/receiver placement-constructed into
//                the profile's slab arenas, SoA row bound, demux registered.
//   retired    — after sender finish + receiver completion (or termination),
//                one full 10 ms chunk of quarantine (longer than any
//                in-flight packet's remaining life: path delays are
//                microseconds and finished senders cancel their timers),
//                then the endpoints are destroyed and the slot recycled.
// Packet counters are accumulated into the run at retirement — sums are
// commutative, so totals match the old everything-lives-forever driver bit
// for bit, as the golden fingerprints verify.

struct Run {
  sim::Simulator sim;
  std::unique_ptr<topo::BuiltTopology> built;
  std::unique_ptr<proto::ControlPlane> control;
  // Declared after `control` so endpoints are destroyed before the control
  // plane (PASE receivers hold callbacks into it), and before `sim` falls
  // out of scope via the struct's own teardown order.
  EndpointTable table;
  std::vector<stats::FlowRecord> records;  // exact mode: index == flow index
  std::unique_ptr<stats::StreamingFlowStats> streaming;  // streaming mode
  std::vector<bool> activated;  // flow index -> launch event ran
  // Flow indices sorted by start time (stable, so same-instant flows keep
  // generation order). Launches chain through it: exactly one pending
  // launch event exists at a time — see launch_batch.
  std::vector<std::uint32_t> launch_order;
  std::vector<std::uint32_t> retire_pending;  // done this chunk
  std::vector<std::uint32_t> retire_ready;    // quarantined one full chunk
  std::size_t outstanding = 0;  // short flows not yet finished
  // Flow table plus profile/context pointers, so a launch event captures
  // only {&run, index} — 16 bytes, inside the simulator's inline payload.
  std::vector<transport::Flow> flows;
  const proto::TransportProfile* profile = nullptr;
  proto::RunContext* ctx = nullptr;
  // Non-null iff cfg.telemetry.enabled: launches feed the flow heavy-hitter
  // sketch; the harness loop drives queue sampling at chunk boundaries.
  obs::TelemetryPlane* telemetry = nullptr;
  bool recycle = true;
  // Accumulated at slot retirement; live slots are folded in at run end.
  std::uint64_t data_packets_sent = 0;
  std::uint64_t probes_sent = 0;
};

stats::FlowRecord& record_for(Run& run, EndpointSlot& sl) {
  return run.streaming ? sl.record : run.records[sl.flow_index];
}

void maybe_queue_retire(Run& run, std::uint32_t s) {
  if (!run.recycle) return;
  EndpointSlot& sl = run.table.slot(s);
  if (sl.queued_retire || !sl.done) return;
  if (!sl.sender->finished()) return;
  if (!sl.receiver_done && !sl.sender->terminated()) return;
  sl.queued_retire = true;
  run.retire_pending.push_back(s);
}

// Destroys a retired (or end-of-run live) slot after folding its counters
// and, in streaming mode, its record.
void retire_now(Run& run, std::uint32_t s) {
  EndpointSlot& sl = run.table.slot(s);
  run.data_packets_sent += sl.sender->data_packets_sent();
  run.probes_sent += sl.sender->probes_sent();
  sl.src->unregister_flow(sl.flow_id);
  sl.dst->unregister_flow(sl.flow_id);
  if (run.streaming) run.streaming->add(sl.record);
  run.table.destroy(s);
  run.table.release(s);
}

// Chunk-boundary recycling: slots queued during the chunk just executed go
// into quarantine; slots that have sat out a full chunk are reclaimed.
void recycle_tick(Run& run) {
  for (std::uint32_t s : run.retire_ready) retire_now(run, s);
  run.retire_ready.clear();
  std::swap(run.retire_ready, run.retire_pending);
}

void launch_flow(Run& run, std::size_t i) {
  const transport::Flow& flow = run.flows[i];
  topo::Topology& topo = run.ctx->built.topo();
  net::Host* src = static_cast<net::Host*>(topo.node(flow.src));
  net::Host* dst = static_cast<net::Host*>(topo.node(flow.dst));
  assert(src && dst);
  run.activated[i] = true;
  // Heavy-hitter feed rides the launch: launches run in start-time order
  // (stable on flow index), the exact order the parallel driver stages
  // flows, so the sketch sees an identical update sequence either way.
  if (run.telemetry != nullptr) {
    run.telemetry->note_flow(flow.id, flow.size_bytes);
  }

  const std::uint32_t s = run.table.acquire();
  EndpointSlot& slot = run.table.slot(s);
  slot.flow_index = static_cast<std::uint32_t>(i);
  if (run.streaming) slot.record = record_from(flow);
  run.table.construct(s, *run.profile, *run.ctx, *run.ctx, flow, *src, *dst);

  slot.receiver->on_complete = [&run, s](transport::Receiver& r) {
    EndpointSlot& sl = run.table.slot(s);
    sl.receiver_done = true;
    stats::FlowRecord& rec = record_for(run, sl);
    if (rec.finish < 0.0 && !rec.terminated) {
      rec.finish = r.completion_time();
      sl.done = true;
      if (!rec.background && run.outstanding > 0) --run.outstanding;
    }
    maybe_queue_retire(run, s);
  };
  slot.sender->on_complete = [&run, s](transport::Sender& snd) {
    EndpointSlot& sl = run.table.slot(s);
    stats::FlowRecord& rec = record_for(run, sl);
    if (snd.terminated() && rec.finish < 0.0 && !rec.terminated) {
      rec.terminated = true;
      sl.done = true;
      if (!rec.background && run.outstanding > 0) --run.outstanding;
    }
    maybe_queue_retire(run, s);
  };

  run.profile->before_flow_start(*run.ctx, *slot.sender, *slot.receiver);
  src->register_flow(flow.id, slot.sender);
  dst->register_flow(flow.id, slot.receiver);
  slot.sender->start();
}

// Launches every flow at launch_order[pos...] sharing one start instant,
// then schedules the next batch. Chaining keeps the calendar free of tens
// of thousands of far-future launch events: those alias into day buckets a
// whole rotation out, and every steady-state insert that lands in a bucket
// with such an alien at its head touches a cold slot line. One pending
// launch at a time also keeps the slot arena sized by in-flight events,
// not by workload length. Ordering is unchanged: same-instant flows run
// inside one event in generation order — exactly the relative order the
// schedule-everything-up-front driver produced (launch events were the
// first seqs assigned, consecutively, so nothing could interleave them).
void launch_batch(Run& run, std::size_t pos) {
  const double t = run.flows[run.launch_order[pos]].start_time;
  do {
    launch_flow(run, run.launch_order[pos]);
    ++pos;
  } while (pos < run.launch_order.size() &&
           run.flows[run.launch_order[pos]].start_time == t);
  if (pos < run.launch_order.size()) {
    run.sim.schedule_at(run.flows[run.launch_order[pos]].start_time,
                        [&run, pos] { launch_batch(run, pos); });
  }
}

// End-of-run folding shared by both stats modes: flush quarantine, fold
// still-live slots (unfinished and background flows), and in streaming mode
// account for descriptors whose launch event never ran.
void finalize_flows(Run& run) {
  for (std::uint32_t s : run.retire_ready) retire_now(run, s);
  run.retire_ready.clear();
  for (std::uint32_t s : run.retire_pending) retire_now(run, s);
  run.retire_pending.clear();
  for (std::uint32_t s = 0; s < run.table.size(); ++s) {
    EndpointSlot& sl = run.table.slot(s);
    if (!sl.in_use || sl.sender == nullptr) continue;
    run.data_packets_sent += sl.sender->data_packets_sent();
    run.probes_sent += sl.sender->probes_sent();
    if (run.streaming) run.streaming->add(record_for(run, sl));
  }
  if (run.streaming) {
    for (std::size_t i = 0; i < run.flows.size(); ++i) {
      if (!run.activated[i]) run.streaming->add(record_from(run.flows[i]));
    }
  }
}

// --- Conditional-lookahead horizon probe -------------------------------------
//
// Per-domain data for ParallelEngine::set_horizon_probe. The engine needs,
// each round, a certified lower bound D on the delay before the domain's
// pending work can deliver into another domain; it then widens the window to
// next_t + D instead of the static next_t + min-cut-propagation.
//
// The bound is a shortest-path argument. Every hop a packet takes costs at
// least serialization of a 40-byte control packet plus the link's
// propagation delay, so with
//   dist[v] = min over outbound cut links j of (store-and-forward distance
//             from node v to the cut's source, each hop weighted
//             ser40 + prop, plus the cut's own ser40 + prop)
// an event chain that starts at node v cannot post a cross-domain delivery
// before next_t + dist[v] (computed by a multi-source Dijkstra over the
// reversed intra-domain graph, seeded at the cut sources).
//
// Every pending event either (a) fires at a host or a control-plane timer
// switch — covered by the static term event_dist = min dist over those
// nodes — or (b) belongs to an in-flight packet on some link, covered by
// three activity terms checked per round against the link probes:
//   local link busy/in-flight  -> its delivery fires at dst, chain >= dist[dst]
//   outbound cut link busy     -> its delivery posts after >= prop(cut)
//   inbound cut delivery pending-> it fires at dst, chain >= dist[dst]
// Entries that cannot undercut event_dist are pruned at build time and the
// rest are scanned in ascending order, so a round's probe is a few loads.
// The probe only ever runs while mailboxes are empty (the engine guarantees
// it), which is what makes the activity probes complete.

struct DomainProbe {
  sim::Time event_dist = sim::kTimeInfinity;
  // (link, certified delay), ascending by delay, pruned to < event_dist.
  std::vector<std::pair<const net::Link*, sim::Time>> local;
  std::vector<std::pair<const net::Link*, sim::Time>> out_cut;
  std::vector<std::pair<const net::Link*, sim::Time>> in_cut;
};

std::vector<DomainProbe> build_horizon_probes(
    topo::Topology& topo, const topo::Partition& part,
    const proto::ControlPlane* control) {
  struct Edge {
    net::NodeId src;
    net::NodeId dst;
    const net::Link* link;
  };
  const auto weight = [](const net::Link* l) {
    return l->serialization_delay(net::kControlPacketBytes) + l->prop_delay();
  };

  const std::size_t W = static_cast<std::size_t>(part.domains);
  std::vector<std::vector<Edge>> intra(W), out_cut(W), in_cut(W);
  const auto add_edge = [&](net::NodeId src, const net::Link& l) {
    const Edge e{src, l.destination()->id(), &l};
    const auto sd = static_cast<std::size_t>(part.domain_of_node(e.src));
    const auto dd = static_cast<std::size_t>(part.domain_of_node(e.dst));
    if (sd == dd) {
      intra[sd].push_back(e);
    } else {
      out_cut[sd].push_back(e);
      in_cut[dd].push_back(e);
    }
  };
  for (const auto& h : topo.hosts()) add_edge(h->id(), h->uplink());
  for (const auto& sw : topo.switches()) {
    for (int p = 0; p < sw->num_ports(); ++p) {
      add_edge(sw->id(), sw->port_link(p));
    }
  }

  std::vector<net::NodeId> timer_nodes;
  if (control != nullptr) control->append_timer_nodes(timer_nodes);

  std::vector<DomainProbe> probes(W);
  for (std::size_t d = 0; d < W; ++d) {
    // Multi-source Dijkstra over the reversed intra-domain graph.
    std::unordered_map<net::NodeId,
                       std::vector<std::pair<net::NodeId, sim::Time>>>
        rev;
    for (const Edge& e : intra[d]) {
      rev[e.dst].push_back({e.src, weight(e.link)});
    }
    std::unordered_map<net::NodeId, sim::Time> dist;
    const auto dist_of = [&dist](net::NodeId v) {
      const auto it = dist.find(v);
      return it == dist.end() ? sim::kTimeInfinity : it->second;
    };
    using QE = std::pair<sim::Time, net::NodeId>;
    std::priority_queue<QE, std::vector<QE>, std::greater<QE>> pq;
    for (const Edge& e : out_cut[d]) {
      const sim::Time seed = weight(e.link);
      if (seed < dist_of(e.src)) {
        dist[e.src] = seed;
        pq.push({seed, e.src});
      }
    }
    while (!pq.empty()) {
      const auto [t, v] = pq.top();
      pq.pop();
      if (t > dist_of(v)) continue;
      const auto it = rev.find(v);
      if (it == rev.end()) continue;
      for (const auto& [u, w] : it->second) {
        if (t + w < dist_of(u)) {
          dist[u] = t + w;
          pq.push({t + w, u});
        }
      }
    }

    DomainProbe& dp = probes[d];
    for (const auto& h : topo.hosts()) {
      if (static_cast<std::size_t>(part.domain_of_node(h->id())) == d) {
        dp.event_dist = std::min(dp.event_dist, dist_of(h->id()));
      }
    }
    for (const net::NodeId n : timer_nodes) {
      if (static_cast<std::size_t>(part.domain_of_node(n)) == d) {
        dp.event_dist = std::min(dp.event_dist, dist_of(n));
      }
    }
    for (const Edge& e : intra[d]) {
      const sim::Time t = dist_of(e.dst);
      if (t < dp.event_dist) dp.local.push_back({e.link, t});
    }
    for (const Edge& e : out_cut[d]) {
      const sim::Time t = e.link->prop_delay();
      if (t < dp.event_dist) dp.out_cut.push_back({e.link, t});
    }
    for (const Edge& e : in_cut[d]) {
      const sim::Time t = dist_of(e.dst);
      if (t < dp.event_dist) dp.in_cut.push_back({e.link, t});
    }
    const auto by_delay = [](const auto& a, const auto& b) {
      return a.second < b.second;
    };
    std::sort(dp.local.begin(), dp.local.end(), by_delay);
    std::sort(dp.out_cut.begin(), dp.out_cut.end(), by_delay);
    std::sort(dp.in_cut.begin(), dp.in_cut.end(), by_delay);
  }
  return probes;
}

// --- Conservative-parallel driver --------------------------------------------
//
// Same run, partitioned: one Simulator per domain under a
// sim::ParallelEngine, every link rebound to its transmitting node's domain,
// cut links posting deliveries through the engine's mailboxes. Bit-identity
// with the sequential path rests on three things:
//
//   (1) every cross-domain interaction is a Link delivery, and injected
//       deliveries carry lineage nodes that sort them against local events
//       exactly where the sequential FIFO would have placed them
//       (sim/det_lineage.h);
//   (2) endpoints materialize lazily at chunk barriers (construction and
//       register_flow are passive for every parallel-safe profile), and the
//       sender->start() event's setup index is the flow index — lineage
//       roots depend on that index alone, so the staged schedule replays the
//       sequential launch ordering no matter when construction happened;
//   (3) completion callbacks do not touch shared state from worker threads:
//       they append {node, time} records to per-domain lists, which the
//       main thread merges in lineage order at each chunk boundary,
//       replaying the sequential first-wins guards. Slot retirement and
//       recycling likewise run only at barriers, while every domain is
//       quiescent.
//
// Returns nullopt when the partition is unusable (fewer than two domains or
// a zero-delay cut link), naming the cause in *reason; the caller then runs
// the sequential body.
std::optional<ScenarioResult> try_run_parallel(
    const ScenarioConfig& cfg, const std::vector<transport::Flow>& flow_list,
    const proto::TransportProfile& profile, std::string* reason) {
  const Clock::time_point setup_t0 = Clock::now();
  // Trace buffers are declared before the engine so they are destroyed
  // after it — worker threads hold thread-local pointers into them until
  // the engine joins its pool.
  std::vector<std::unique_ptr<obs::TraceBuffer>> tbufs;
  std::vector<std::string> queue_names;

  // The domain count comes from the built topology, so the topology is
  // built on a construction clock that outlives everything below; every
  // link is rebound to its domain's simulator before anything runs.
  sim::Simulator build_sim;
  std::unique_ptr<topo::BuiltTopology> built_ptr =
      topology_builder(cfg)->build(build_sim, profile.make_queue_factory(cfg));
  topo::BuiltTopology& built = *built_ptr;
  topo::Topology& topo = built.topo();
  apply_switch_tuning(built, cfg);

  const topo::Partition part = partition_topology(
      topo, topo::domains_for_workers(topo, cfg.workers));
  if (!part.usable()) {
    if (reason != nullptr) {
      *reason = part.domains < 2
                    ? "partition produced fewer than two domains"
                    : "a cut link has zero propagation delay";
    }
    return std::nullopt;
  }
  // Declared before the control plane and the endpoints so it is destroyed
  // after them: their destructors cancel timers on the domain simulators.
  sim::ParallelEngine engine(part.domains, cfg.workers);
  const int n_dom = engine.num_domains();
  engine.set_lookahead(part.lookahead);
  if (cfg.profile) {
    for (int d = 0; d < n_dom; ++d) engine.domain(d).enable_profiling();
  }

  // Telemetry plane, sampled only at engine-quiescent instants (run_until
  // returns with every mailbox drained and all domain clocks on the target),
  // so queue state reads race nothing and the sample sequence — hence the
  // JSONL — is byte-identical at any worker count.
  std::unique_ptr<obs::TelemetryPlane> telemetry;
  if (cfg.telemetry.enabled) {
    telemetry = std::make_unique<obs::TelemetryPlane>(built, cfg.telemetry);
  }

  // Every link schedules on the clock of the node that transmits into it;
  // cut links post into the destination domain instead.
  const auto domain_sim = [&engine, &part](net::NodeId id) -> sim::Simulator& {
    return engine.domain(part.domain_of_node(id));
  };
  for (const auto& h : topo.hosts()) {
    h->uplink().bind_domain(domain_sim(h->id()));
  }
  for (const auto& sw : topo.switches()) {
    for (int p = 0; p < sw->num_ports(); ++p) {
      sw->port_link(p).bind_domain(domain_sim(sw->id()));
    }
  }
  for (const auto& c : part.cut_links) {
    c.link->set_cross_post(&engine, c.src_domain, c.dst_domain);
  }

  proto::RunContext ctx0{engine.domain(0), built,
                         static_cast<const proto::ProfileParams&>(cfg)};
  ctx0.base_rtt = proto::estimate_base_rtt(topo, built.host_rate_bps());
  for (const auto& f : flow_list) {
    ctx0.any_deadline = ctx0.any_deadline || f.has_deadline();
  }
  ctx0.sim_resolver = domain_sim;
  std::unique_ptr<proto::ControlPlane> control =
      profile.make_control_plane(ctx0);
  ctx0.control = control.get();

  // Conditional lookahead: certify per-domain bounds from the topology (and
  // the control plane's timer nodes), arm the links' activity counters, and
  // hand the engine a per-round probe. Static mode skips all of it and the
  // engine falls back to next_t + min-cut-propagation windows.
  std::vector<DomainProbe> probes;
  if (cfg.horizon_mode == ScenarioConfig::HorizonMode::kConditional) {
    probes = build_horizon_probes(topo, part, control.get());
    for (const auto& h : topo.hosts()) h->uplink().arm_activity_tracking();
    for (const auto& sw : topo.switches()) {
      for (int p = 0; p < sw->num_ports(); ++p) {
        sw->port_link(p).arm_activity_tracking();
      }
    }
    const sim::Time la = part.lookahead;
    engine.set_horizon_probe([&probes, la](int d, sim::Time nt) -> sim::Time {
      const DomainProbe& dp = probes[static_cast<std::size_t>(d)];
      sim::Time dmin = dp.event_dist;
      for (const auto& [l, t] : dp.local) {
        if (t >= dmin) break;
        if (l->probe_local_active()) {
          dmin = t;
          break;
        }
      }
      for (const auto& [l, t] : dp.out_cut) {
        if (t >= dmin) break;
        if (l->probe_cut_busy()) {
          dmin = t;
          break;
        }
      }
      for (const auto& [l, t] : dp.in_cut) {
        if (t >= dmin) break;
        if (l->probe_cut_inflight()) {
          dmin = t;
          break;
        }
      }
      // dmin is exact in the reals but the event path accumulates its hop
      // delays one rounded addition at a time, so a delivery whose exact
      // time equals nt + dmin can land an ulp early (ACK clocking makes
      // exact-equality chains the common case, not a corner). Deflate by a
      // relative margin that dominates the worst-case accumulated rounding
      // of any chain the bound covers (<~60 operations, each contributing
      // at most one ulp of the final magnitude; 64 machine epsilons is an
      // order of magnitude more). The static bound needs no margin — IEEE
      // addition is monotone, and every event path dominates nt + lookahead
      // argument-by-argument — so it is a safe floor.
      constexpr double kFpMargin =
          64.0 * std::numeric_limits<double>::epsilon();
      return std::max(nt + la, (nt + dmin) * (1.0 - kFpMargin));
    });
  }

  // Endpoint storage, declared after the control plane so receivers (whose
  // callbacks may point into it) are destroyed first.
  EndpointTable table;
  table.init(profile);

  // Per-domain contexts so endpoint factories place each agent on its own
  // node's clock (ctx.sim is what sender/receiver constructors capture).
  std::vector<proto::RunContext> dctx;
  dctx.reserve(static_cast<std::size_t>(n_dom));
  for (int d = 0; d < n_dom; ++d) {
    dctx.push_back(proto::RunContext{engine.domain(d), built, ctx0.params});
    dctx.back().base_rtt = ctx0.base_rtt;
    dctx.back().any_deadline = ctx0.any_deadline;
    dctx.back().control = ctx0.control;
    dctx.back().sim_resolver = ctx0.sim_resolver;
  }

  // One trace ring per domain, which the engine installs on whichever
  // thread claims that domain. Lineage keys stamped on every record let the
  // buffers merge back into sequential emission order.
  if (cfg.trace.enabled) {
    queue_names = obs::label_fabric_queues(topo);
    tbufs.reserve(static_cast<std::size_t>(n_dom));
    for (int d = 0; d < n_dom; ++d) {
      tbufs.push_back(std::make_unique<obs::TraceBuffer>(
          cfg.trace.buffer_capacity, cfg.trace.categories));
      engine.set_domain_trace(d, tbufs.back().get());
    }
  }
  // Any worker may run any domain, so each worker's packet pool is
  // prewarmed with its share of the hosts.
  const std::size_t worker_packets =
      topo.hosts().size() * 16 /
          static_cast<std::size_t>(engine.num_workers()) +
      256;
  engine.set_thread_init([worker_packets] {
    net::PacketPool::local().prewarm(worker_packets);
  });

  // Pre-size each domain's calendar like the sequential path does, scaled
  // to the domain's share of hosts and launches.
  std::vector<std::size_t> dom_hosts(static_cast<std::size_t>(n_dom), 0);
  for (const auto& h : topo.hosts()) {
    ++dom_hosts[static_cast<std::size_t>(part.domain_of_node(h->id()))];
  }

  // Pending descriptors, records and bookkeeping. record index == flow
  // index; activation order is start-time order (stable on flow index for
  // simultaneous arrivals, which is exactly the sequential tie-break).
  const bool exact = cfg.stats_mode == ScenarioConfig::StatsMode::kExact;
  std::unique_ptr<stats::StreamingFlowStats> streaming;
  if (!exact) streaming = std::make_unique<stats::StreamingFlowStats>();
  std::vector<transport::Flow> flows = flow_list;
  std::vector<stats::FlowRecord> records;
  if (exact) records.reserve(flows.size());
  std::size_t outstanding = 0;
  std::vector<std::size_t> dom_flows(static_cast<std::size_t>(n_dom), 0);
  for (auto& f : flows) {
    f.src = topo.host(static_cast<std::size_t>(f.src))->id();
    f.dst = topo.host(static_cast<std::size_t>(f.dst))->id();
    ++dom_flows[static_cast<std::size_t>(part.domain_of_node(f.src))];
    if (exact) records.push_back(record_from(f));
    if (!f.background) ++outstanding;
  }
  for (int d = 0; d < n_dom; ++d) {
    engine.domain(d).reserve(dom_flows[static_cast<std::size_t>(d)] +
                             dom_hosts[static_cast<std::size_t>(d)] * 8 + 64);
  }

  std::vector<std::uint32_t> order(flows.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&flows](std::uint32_t a, std::uint32_t b) {
                     return flows[a].start_time < flows[b].start_time;
                   });
  std::size_t next_pending = 0;

  // Completion records deferred to chunk boundaries. A worker thread only
  // touches the lists of the domains it is running; the main thread merges
  // between run_until calls, with the barriers providing the happens-before
  // edges.
  struct Completion {
    sim::DetLineage::NodeId node;
    sim::Time time;
    std::uint32_t slot;
    bool receiver_done;  // receiver completion vs sender early termination
  };
  std::vector<std::vector<Completion>> deferred(
      static_cast<std::size_t>(n_dom));
  // Their lineage ids live across barriers, so compaction passes rewrite
  // them along with the engine's own references.
  engine.set_lineage_refs(
      [&deferred](const sim::ParallelEngine::RefVisitor& visit) {
        for (auto& dl : deferred) {
          for (Completion& c : dl) visit(c.node);
        }
      });

  // Done slots whose sender has not yet processed its final ack; polled at
  // each barrier (domains quiescent) until retire-eligible.
  std::vector<std::uint32_t> awaiting;
  std::vector<std::uint32_t> retire_pending, retire_ready;
  std::uint64_t data_packets_sent = 0, probes_sent = 0;
  const bool recycle = cfg.recycle_endpoints;

  const auto retire_slot = [&](std::uint32_t s) {
    EndpointSlot& sl = table.slot(s);
    data_packets_sent += sl.sender->data_packets_sent();
    probes_sent += sl.sender->probes_sent();
    sl.src->unregister_flow(sl.flow_id);
    sl.dst->unregister_flow(sl.flow_id);
    if (streaming) streaming->add(sl.record);
    table.destroy(s);
    table.release(s);
  };

  // Setup-time lineage roots claimed by the control plane during its
  // construction (delegation timers); flow launches index past them.
  const std::uint32_t setup_base = control ? control->setup_events() : 0;

  // Materializes pending flows whose start falls inside the next chunk:
  // construct into the slabs, wire deferred-completion callbacks, register
  // with the demux, and schedule the start event under setup lineage.
  const auto stage_until = [&](sim::Time horizon) {
    while (next_pending < order.size()) {
      const std::uint32_t i = order[next_pending];
      const transport::Flow& f = flows[i];
      if (f.start_time > horizon) break;
      ++next_pending;
      // Same traversal order as the sequential launch chain (start-time
      // stable sort on flow index), so the sketch update sequence matches.
      if (telemetry) telemetry->note_flow(f.id, f.size_bytes);

      const std::size_t sd =
          static_cast<std::size_t>(part.domain_of_node(f.src));
      const std::size_t dd =
          static_cast<std::size_t>(part.domain_of_node(f.dst));
      net::Host* src = static_cast<net::Host*>(topo.node(f.src));
      net::Host* dst = static_cast<net::Host*>(topo.node(f.dst));
      assert(src && dst);

      const std::uint32_t s = table.acquire();
      EndpointSlot& slot = table.slot(s);
      slot.flow_index = i;
      if (streaming) slot.record = record_from(f);
      table.construct(s, profile, dctx[sd], dctx[dd], f, *src, *dst);

      std::vector<Completion>* rlist = &deferred[dd];
      sim::Simulator* rsim = &engine.domain(static_cast<int>(dd));
      slot.receiver->on_complete = [rlist, rsim, s](transport::Receiver& r) {
        rlist->push_back(
            {rsim->make_post_node(), r.completion_time(), s, true});
      };
      std::vector<Completion>* slist = &deferred[sd];
      sim::Simulator* ssim = &engine.domain(static_cast<int>(sd));
      slot.sender->on_complete = [slist, ssim, s](transport::Sender& snd) {
        if (snd.terminated()) {
          slist->push_back({ssim->make_post_node(), 0.0, s, false});
        }
      };

      profile.before_flow_start(dctx[sd], *slot.sender, *slot.receiver);
      src->register_flow(f.id, slot.sender);
      dst->register_flow(f.id, slot.receiver);
      // The start event becomes a lineage root with k = setup_base + flow
      // index: the sequential driver schedules the control plane's setup
      // events (PASE delegation timers, indices [0, setup_base)) before any
      // launch, and the global seq breaks same-instant ties in exactly that
      // order — independent of when this staging pass ran.
      engine.domain(static_cast<int>(sd)).set_setup_index(setup_base + i);
      engine.domain(static_cast<int>(sd))
          .schedule_at(f.start_time, [snd = slot.sender] { snd->start(); });
    }
  };

  // Merge deferred completions in deterministic order and replay the
  // sequential guards (first of {receiver completion, early termination}
  // wins; background flows never count against `outstanding`).
  std::vector<Completion> merged;
  const auto apply_completions = [&] {
    merged.clear();
    for (auto& dl : deferred) {
      merged.insert(merged.end(), dl.begin(), dl.end());
      dl.clear();
    }
    std::sort(merged.begin(), merged.end(),
              [&engine](const Completion& a, const Completion& b) {
                return engine.lineage().less(a.node, b.node);
              });
    for (const auto& c : merged) {
      EndpointSlot& sl = table.slot(c.slot);
      if (c.receiver_done) sl.receiver_done = true;
      stats::FlowRecord& rec = streaming ? sl.record : records[sl.flow_index];
      if (rec.finish >= 0.0 || rec.terminated) continue;
      if (c.receiver_done) {
        rec.finish = c.time;
      } else {
        rec.terminated = true;
      }
      sl.done = true;
      if (recycle) awaiting.push_back(c.slot);
      if (!rec.background && outstanding > 0) --outstanding;
    }
  };

  // Barrier-side retirement: move done slots whose sender has finished into
  // quarantine, reclaim slots that quarantined a full chunk.
  const auto recycle_at_barrier = [&] {
    std::size_t w = 0;
    for (std::size_t r = 0; r < awaiting.size(); ++r) {
      const std::uint32_t s = awaiting[r];
      EndpointSlot& sl = table.slot(s);
      if (sl.sender->finished() &&
          (sl.receiver_done || sl.sender->terminated())) {
        sl.queued_retire = true;
        retire_pending.push_back(s);
      } else {
        awaiting[w++] = s;
      }
    }
    awaiting.resize(w);
    for (std::uint32_t s : retire_ready) retire_slot(s);
    retire_ready.clear();
    std::swap(retire_ready, retire_pending);
  };

  ScenarioResult result;
  result.setup_wall_sec = seconds_since(setup_t0);

  // Same chunk targets as the sequential driver: the clock lands on the same
  // multiple of `step` when the last short flow finishes, so end_time (which
  // is fingerprinted) matches bit for bit.
  const sim::Time step = 10e-3;
  std::uint64_t next_sample = 1;
  while (outstanding > 0 && engine.now() < cfg.max_duration) {
    const sim::Time target = std::min(cfg.max_duration, engine.now() + step);
    stage_until(target);
    // Telemetry sub-boundaries, mirroring the sequential driver: run to each
    // absolute grid instant (multiplicative, drift-free), sample with every
    // domain quiescent, continue. run_until(t) executes every event <= t and
    // parks all domain clocks at t, so the event sequence matches a
    // telemetry-off run and the samples match the sequential driver's.
    if (telemetry) {
      for (sim::Time ts = telemetry->sample_time(next_sample); ts <= target;
           ts = telemetry->sample_time(++next_sample)) {
        engine.run_until(ts);
        telemetry->sample(engine.now());
      }
    }
    engine.run_until(target);
    apply_completions();
    recycle_at_barrier();
  }

  // Flush the quarantine, fold still-live slots, and account for
  // descriptors that never activated (run ended first).
  for (std::uint32_t s : retire_ready) retire_slot(s);
  retire_ready.clear();
  for (std::uint32_t s : retire_pending) retire_slot(s);
  retire_pending.clear();
  for (std::uint32_t s = 0; s < table.size(); ++s) {
    EndpointSlot& sl = table.slot(s);
    if (!sl.in_use || sl.sender == nullptr) continue;
    data_packets_sent += sl.sender->data_packets_sent();
    probes_sent += sl.sender->probes_sent();
    if (streaming) streaming->add(sl.record);
  }
  if (streaming) {
    for (std::size_t p = next_pending; p < order.size(); ++p) {
      streaming->add(record_from(flows[order[p]]));
    }
  }

  result.records = std::move(records);
  result.end_time = engine.now();
  result.fabric_drops = topo.total_drops();
  result.data_packets_sent = data_packets_sent;
  result.probes_sent = probes_sent;
  result.slab_grow_events = table.slab_grow_events();
  result.peak_live_flows = table.peak_live();
  if (streaming) result.streaming = std::move(streaming);
  if (control) {
    if (const core::ControlPlaneStats* st = control->stats()) {
      result.control = *st;
    }
  }
  std::uint64_t executed = 0, rebuilds = 0, max_domain_executed = 0;
  for (int d = 0; d < n_dom; ++d) {
    result.heap_closure_events += engine.domain(d).heap_closure_events();
    executed += engine.domain(d).executed_events();
    max_domain_executed =
        std::max(max_domain_executed, engine.domain(d).executed_events());
    rebuilds += engine.domain(d).calendar_rebuilds();
  }
  result.workers_used = engine.num_workers();
  result.parallel_barrier_wait_sec = engine.barrier_wait_sec();
  // Passes made while the run was going, not the trace-sealing one below.
  const std::uint64_t compactions = engine.lineage().compactions();
  if (telemetry) result.telemetry = telemetry->finish(result.end_time);

  if (!tbufs.empty()) {
    for (int d = 0; d < n_dom; ++d) {
      tbufs[static_cast<std::size_t>(d)]->emit_at(
          result.end_time, obs::kEngineCat, obs::EventType::kEngineSample, 0,
          static_cast<double>(engine.domain(d).executed_events()),
          static_cast<double>(engine.domain(d).heap_closure_events()),
          static_cast<std::uint32_t>(d));
    }
    // Records since the last pass still carry lineage ids; one more pass
    // turns them into integer merge keys.
    engine.compact();
    std::vector<const obs::TraceBuffer*> ptrs;
    ptrs.reserve(tbufs.size());
    for (const auto& b : tbufs) ptrs.push_back(b.get());
    auto trace = std::make_shared<obs::Trace>(obs::merge_buffers(ptrs));
    trace->queue_names = std::move(queue_names);
    result.trace = std::move(trace);
  }

  obs::MetricsRegistry reg;
  fold_common_metrics(reg, result, built);
  reg.counter("engine.executed_events") = executed;
  reg.counter("engine.calendar_rebuilds") = rebuilds;
  reg.counter("parallel.domains") = static_cast<std::uint64_t>(n_dom);
  // The largest domain's share of all executed events: deterministic, and
  // times the worker count it bounds how far static placement alone would
  // leave one worker behind the mean.
  reg.gauge("parallel.max_domain_event_share") =
      executed == 0 ? 0.0
                    : static_cast<double>(max_domain_executed) /
                          static_cast<double>(executed);
  reg.counter("parallel.rounds") = engine.rounds_executed();
  reg.counter("parallel.windows") = engine.windows_executed();
  reg.counter("parallel.cross_posts") = engine.cross_posts();
  reg.counter("parallel.drains") = engine.drains_executed();
  reg.counter("parallel.quiet_rounds") = engine.quiet_rounds();
  reg.gauge("parallel.horizon_width_mean") = engine.mean_horizon_width();
  reg.counter("parallel.lineage_compactions") = compactions;
  reg.counter("mem.lineage_peak_bytes") = engine.lineage().chunk_bytes();
  if (result.telemetry) {
    reg.counter("telemetry.samples") = result.telemetry->samples;
    reg.counter("telemetry.windows") = result.telemetry->windows.size();
  }
  if (cfg.profile) {
    std::vector<const sim::Simulator*> doms;
    doms.reserve(static_cast<std::size_t>(n_dom));
    for (int d = 0; d < n_dom; ++d) doms.push_back(&engine.domain(d));
    fold_profile_metrics(reg, doms, built);
  }
  result.metrics = reg.snapshot();
  return result;
}

}  // namespace

void validate_config(const ScenarioConfig& cfg) {
  validate_generic(cfg);
  resolve_profile(cfg).validate(cfg);
}

ScenarioResult run_scenario(ScenarioConfig cfg) {
  // Fill topology-derived workload fields, then generate.
  const topo::WorkloadHints hints = topology_builder(cfg)->hints();
  cfg.traffic.num_hosts = hints.num_hosts;
  if (hints.left_hosts > 0) cfg.traffic.left_hosts = hints.left_hosts;
  cfg.traffic.host_rate_bps = hints.host_rate_bps;
  cfg.traffic.bottleneck_rate_bps = hints.bottleneck_rate_bps;
  validate_config(cfg);
  return run_scenario_with_flows(cfg, generate_flows(cfg.traffic));
}

ScenarioResult run_scenario_with_flows(ScenarioConfig cfg,
                                       std::vector<transport::Flow> flows) {
  const proto::TransportProfile& profile = resolve_profile(cfg);
  validate_generic(cfg);
  profile.validate(cfg);

  if (cfg.workers < 1) bad_config("workers must be at least 1");
  std::string fallback_reason;
  if (cfg.workers > 1) {
    if (!profile.parallel_safe()) {
      fallback_reason =
          "profile '" + std::string(profile.name()) + "' is not parallel-safe";
    } else if (std::optional<ScenarioResult> r =
                   try_run_parallel(cfg, flows, profile, &fallback_reason)) {
      return std::move(*r);
    }
    // Unusable partition (zero-lookahead cut, degenerate domain count) or an
    // unsafe profile: fall through to the sequential body, carrying the
    // reason into the result so callers can tell a silent fallback apart
    // from a parallel run.
  }

  const Clock::time_point setup_t0 = Clock::now();
  Run run;
  run.flows = std::move(flows);
  run.profile = &profile;
  run.recycle = cfg.recycle_endpoints;
  if (cfg.stats_mode == ScenarioConfig::StatsMode::kStreaming) {
    run.streaming = std::make_unique<stats::StreamingFlowStats>();
  }
  run.built =
      topology_builder(cfg)->build(run.sim, profile.make_queue_factory(cfg));
  topo::BuiltTopology& built = *run.built;
  apply_switch_tuning(built, cfg);
  if (cfg.profile) run.sim.enable_profiling();

  // Telemetry plane: sampled from the harness at chunk boundaries (below),
  // never via scheduled events, so the event path — and every golden
  // fingerprint — is identical with it on or off.
  std::unique_ptr<obs::TelemetryPlane> telemetry;
  if (cfg.telemetry.enabled) {
    telemetry = std::make_unique<obs::TelemetryPlane>(built, cfg.telemetry);
    run.telemetry = telemetry.get();
  }

  proto::RunContext ctx{run.sim, built,
                        static_cast<const proto::ProfileParams&>(cfg)};
  ctx.base_rtt = proto::estimate_base_rtt(built.topo(), built.host_rate_bps());
  // Deadline workloads arbitrate/schedule EDF; others SJF.
  for (const auto& f : run.flows) {
    ctx.any_deadline = ctx.any_deadline || f.has_deadline();
  }
  run.ctx = &ctx;

  run.control = profile.make_control_plane(ctx);
  ctx.control = run.control.get();
  run.table.init(profile);

  // Pre-size the engine and the packet pool from the in-flight population:
  // a few events per host (tx-done, delivery, timers, control) plus the one
  // chained launch event (see launch_batch — launches no longer sit in the
  // calendar all at once). Reserving here means steady-state scheduling
  // never grows a slot chunk or rebuilds the calendar mid-burst, and the
  // first wave of sends finds a warm packet pool.
  const std::size_t num_hosts = built.topo().num_hosts();
  run.sim.reserve(num_hosts * 8 + 1024);
  net::PacketPool::local().prewarm(num_hosts * 16 + 256);

  // Tracing: one preallocated ring for the whole (single-domain) run,
  // installed for the duration of the event loop. When disabled nothing is
  // allocated and the thread-local stays null.
  std::unique_ptr<obs::TraceBuffer> tbuf;
  std::vector<std::string> queue_names;
  if (cfg.trace.enabled) {
    queue_names = obs::label_fabric_queues(built.topo());
    tbuf = std::make_unique<obs::TraceBuffer>(cfg.trace.buffer_capacity,
                                              cfg.trace.categories);
  }
  obs::ScopedTracer scoped_tracer(tbuf.get());

  // Map generator host indices onto node ids; in exact mode pre-create the
  // records (flows that never launch keep finish = -1, as always).
  run.activated.assign(run.flows.size(), false);
  if (!run.streaming) run.records.reserve(run.flows.size());
  for (auto& f : run.flows) {
    f.src = built.topo().host(static_cast<std::size_t>(f.src))->id();
    f.dst = built.topo().host(static_cast<std::size_t>(f.dst))->id();
    if (!run.streaming) run.records.push_back(record_from(f));
    if (!f.background) ++run.outstanding;
  }

  // Schedule flow launches as a chain in start-time order (stable sort:
  // same-instant flows keep generation order, which the up-front scheduler
  // expressed through consecutive setup seqs). The chain closure fits the
  // simulator's inline event payload, so launches allocate nothing.
  run.launch_order.resize(run.flows.size());
  for (std::size_t i = 0; i < run.launch_order.size(); ++i) {
    run.launch_order[i] = static_cast<std::uint32_t>(i);
  }
  std::stable_sort(run.launch_order.begin(), run.launch_order.end(),
                   [&run](std::uint32_t a, std::uint32_t b) {
                     return run.flows[a].start_time < run.flows[b].start_time;
                   });
  if (!run.launch_order.empty()) {
    run.sim.schedule_at(run.flows[run.launch_order[0]].start_time,
                        [&run] { launch_batch(run, 0); });
  }

  ScenarioResult result;
  result.setup_wall_sec = seconds_since(setup_t0);

  // Run until every short flow completes (or the hard cap), reclaiming
  // quarantined endpoint slots at every chunk boundary.
  const sim::Time step = 10e-3;
  std::uint64_t next_sample = 1;
  while (run.outstanding > 0 && run.sim.now() < cfg.max_duration) {
    const sim::Time before = run.sim.now();
    const sim::Time target = std::min(cfg.max_duration, run.sim.now() + step);
    // Telemetry sub-boundaries: run to each absolute grid instant inside the
    // chunk (computed multiplicatively, so the grid never drifts), sample
    // while the engine is quiescent, then continue to the chunk target.
    // run(t) executes every event <= t and leaves the clock at t, so the
    // executed-event sequence is identical to a telemetry-off run.
    if (run.telemetry != nullptr) {
      for (sim::Time ts = run.telemetry->sample_time(next_sample);
           ts <= target; ts = run.telemetry->sample_time(++next_sample)) {
        run.sim.run(ts);
        run.telemetry->sample(run.sim.now());
      }
    }
    run.sim.run(target);
    recycle_tick(run);
    if (run.sim.now() == before && run.sim.pending_events() == 0) break;
  }

  finalize_flows(run);

  result.records = std::move(run.records);
  result.end_time = run.sim.now();
  result.fabric_drops = built.topo().total_drops();
  result.data_packets_sent = run.data_packets_sent;
  result.probes_sent = run.probes_sent;
  result.slab_grow_events = run.table.slab_grow_events();
  result.peak_live_flows = run.table.peak_live();
  if (run.streaming) result.streaming = std::move(run.streaming);
  if (run.control) {
    if (const core::ControlPlaneStats* st = run.control->stats()) {
      result.control = *st;
    }
  }
  result.heap_closure_events = run.sim.heap_closure_events();
  result.workers_used = 1;
  result.parallel_fallback_reason = std::move(fallback_reason);
  if (telemetry) result.telemetry = telemetry->finish(result.end_time);

  if (tbuf) {
    tbuf->emit_at(result.end_time, obs::kEngineCat,
                  obs::EventType::kEngineSample, 0,
                  static_cast<double>(run.sim.executed_events()),
                  static_cast<double>(run.sim.heap_closure_events()),
                  /*a=*/0);
    auto trace = std::make_shared<obs::Trace>(
        obs::merge_buffers({tbuf.get()}));
    trace->queue_names = std::move(queue_names);
    result.trace = std::move(trace);
  }

  obs::MetricsRegistry reg;
  fold_common_metrics(reg, result, built);
  reg.counter("engine.executed_events") = run.sim.executed_events();
  reg.counter("engine.calendar_rebuilds") = run.sim.calendar_rebuilds();
  if (result.telemetry) {
    reg.counter("telemetry.samples") = result.telemetry->samples;
    reg.counter("telemetry.windows") = result.telemetry->windows.size();
  }
  if (cfg.profile) fold_profile_metrics(reg, {&run.sim}, built);
  result.metrics = reg.snapshot();
  return result;
}

}  // namespace pase::workload
