#include "workload/scenario.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <memory>
#include <numeric>
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

// Aggregate counters every run exports, at any domain count.
void fold_common_metrics(obs::MetricsRegistry& reg, const ScenarioResult& r,
                         topo::BuiltTopology& built,
                         sim::ParallelEngine& engine) {
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
  // rings (each queue's high-water mark). A partitioned run registers flows
  // at chunk barriers, so its demux figure may differ from a sequential
  // run's. Event slots are summed over the domains' arenas.
  std::uint64_t demux_bytes = 0;
  for (const auto& h : built.topo().hosts()) demux_bytes += h->demux_bytes();
  reg.counter("mem.demux_bytes") = demux_bytes;
  reg.counter("mem.queue_buffer_bytes") = queue_bytes;
  std::uint64_t executed = 0, rebuilds = 0, slot_bytes = 0;
  for (int d = 0; d < engine.num_domains(); ++d) {
    executed += engine.domain(d).executed_events();
    rebuilds += engine.domain(d).calendar_rebuilds();
    slot_bytes += engine.domain(d).slot_bytes();
  }
  reg.counter("engine.executed_events") = executed;
  reg.counter("engine.calendar_rebuilds") = rebuilds;
  reg.counter("mem.event_slot_bytes") = slot_bytes;
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
// sweep JSON. Counts sum over the domains.
void fold_profile_metrics(obs::MetricsRegistry& reg,
                          sim::ParallelEngine& engine,
                          topo::BuiltTopology& built) {
  std::uint64_t raw = 0, inl = 0, heap = 0, unlabeled = 0;
  std::uint64_t walks = 0, scan_sum = 0, scan_max = 0, peak = 0;
  for (int d = 0; d < engine.num_domains(); ++d) {
    const sim::Simulator* s = &engine.domain(d);
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

// Domain d's bound for a round whose next event is at nt: no event chain
// starting from its pending work can deliver into another domain earlier.
sim::Time probe_bound(const DomainProbe& dp, sim::Time nt,
                      sim::Time lookahead) {
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
  constexpr double kFpMargin = 64.0 * std::numeric_limits<double>::epsilon();
  return std::max(nt + lookahead, (nt + dmin) * (1.0 - kFpMargin));
}

// --- The scenario driver -----------------------------------------------------
//
// One driver runs every scenario. The topology is partitioned into domains,
// one Simulator each, under a sim::ParallelEngine; every link is rebound to
// its transmitting node's domain and cut links post their deliveries through
// the engine's mailboxes. A sequential run is the one-domain case —
// workers == 1, a profile that is not parallel-safe, or an unusable
// partition — which the engine runs on the caller's thread without det mode,
// threads or barriers.
//
// Flows exist in three forms over their life:
//   pending  — a compact descriptor in `flows_`; no endpoints, no demux
//              entries, no per-flow heap.
//   live     — an EndpointSlot: sender/receiver placement-constructed into
//              the profile's slab arenas, SoA row bound, demux registered.
//   retired  — after sender finish + receiver completion (or termination),
//              one full 10 ms chunk of quarantine (longer than any in-flight
//              packet's remaining life: path delays are microseconds and
//              finished senders cancel their timers), then the endpoints are
//              destroyed and the slot recycled.
// Packet counters are accumulated at retirement — sums are commutative, so
// totals match an everything-lives-forever driver bit for bit.
//
// Launches. At each chunk barrier the flows that start inside the chunk are
// staged on their source's domain, in start order (stable on flow index).
// A domain has at most one pending launch event: a setup root with
// k = setup_base + flow index, which starts one flow and re-arms for the
// domain's next staged flow. Setup roots fire at their instant before
// anything an executing event scheduled, and among themselves by k, so the
// launches keep the order of a driver that schedules every launch before the
// run, whichever domain, barrier or event schedules them. One pending launch
// per domain keeps far-future launches out of the calendar, so the slot
// arena is sized by in-flight events, not by workload length.
//
// Where a flow materializes and completes depends on the domain count:
//   one domain — the launch event materializes the flow, and the endpoints'
//                completion callbacks apply their outcome at once;
//   several    — flows materialize at the barrier (construction and demux
//                registration are passive for every parallel-safe profile,
//                and must not race other domains), and completion callbacks
//                append {lineage node, outcome} reports to their domain's
//                list, which every round barrier applies in lineage order —
//                the order one domain applies them in.
// The same materialize() and complete() do the work either way. Slot
// retirement and recycling run only at barriers, with every domain quiescent.

// What an endpoint's completion callback reports.
enum class Outcome : std::uint8_t {
  kReceived,    // the receiver took the last byte
  kFinished,    // the sender saw its last byte acknowledged
  kTerminated,  // the sender was terminated early (PDQ)
};

class Run;

// The driver's state for one domain: its launch chain (the flows staged at
// the last barrier and the next to launch; its one launch event is pending
// while next < staged.size()) and its completion inbox. Endpoint callbacks
// capture only {domain state, slot}, which fits std::function's inline
// buffer, so wiring a flow allocates no closure.
struct DomainState {
  struct Staged {
    std::uint32_t flow;
    std::uint32_t slot;  // several domains: materialized at the barrier
  };
  struct Report {
    sim::DetLineage::NodeId node;
    sim::Time time;
    std::uint32_t slot;
    Outcome outcome;
  };
  Run* run;
  sim::Simulator* sim;
  std::vector<Staged> staged;
  std::size_t next = 0;
  std::vector<Report> deferred;

  void report(std::uint32_t slot, Outcome outcome, sim::Time time);
};

// The run's partition: one domain per worker, or per pod, when more than one
// worker runs a parallel-safe profile; otherwise, or when that partition is
// unusable (the cause goes to *reason), one domain. One worker is one domain
// even on a fat-tree, where domains_for_workers would give one per pod.
topo::Partition choose_partition(topo::Topology& topo,
                                 const ScenarioConfig& cfg,
                                 const proto::TransportProfile& profile,
                                 std::string* reason) {
  if (cfg.workers > 1) {
    if (!profile.parallel_safe()) {
      *reason =
          "profile '" + std::string(profile.name()) + "' is not parallel-safe";
    } else {
      topo::Partition part = partition_topology(
          topo, topo::domains_for_workers(topo, cfg.workers));
      if (part.usable()) return part;
      *reason = part.domains < 2 ? "partition produced fewer than two domains"
                                 : "a cut link has zero propagation delay";
    }
  }
  return partition_topology(topo, 1);
}

class Run {
 public:
  Run(const ScenarioConfig& cfg, const proto::TransportProfile& profile,
      std::vector<transport::Flow> flows);
  ScenarioResult execute();
  // Applies one completion report (see DomainState).
  void complete(std::uint32_t s, Outcome outcome, sim::Time time);

 private:
  // One domain materializes flows at launch; several, at the barrier.
  bool one_domain() const { return engine_.num_domains() == 1; }
  int domain_of(net::NodeId id) const { return part_.domain_of_node(id); }
  sim::Simulator& domain_sim(net::NodeId id) {
    return engine_.domain(domain_of(id));
  }
  std::uint32_t materialize(std::uint32_t i);
  void stage_until(sim::Time horizon);
  void arm(DomainState& ds);
  void launch(DomainState& ds);
  void apply_deferred();
  void retire(std::uint32_t s);
  void recycle_tick();
  void finalize_flows();
  void fold_metrics(ScenarioResult& result);

  const ScenarioConfig& cfg_;
  const proto::TransportProfile& profile_;
  const Clock::time_point setup_t0_;
  std::vector<transport::Flow> flows_;
  // Trace rings outlive the engine: worker threads hold thread-local
  // pointers into them until the engine joins its pool.
  std::vector<std::unique_ptr<obs::TraceBuffer>> tbufs_;
  std::vector<std::string> queue_names_;
  // The domain count comes from the built topology, so it is built on a
  // construction clock; every link is rebound to its domain before any run.
  sim::Simulator build_sim_;
  std::unique_ptr<topo::BuiltTopology> built_;
  std::string fallback_reason_;
  const topo::Partition part_;
  // Destroyed after the control plane and the endpoints: their destructors
  // cancel timers on the domain simulators.
  sim::ParallelEngine engine_;
  // Sampled only at engine-quiescent instants (run_until returns with every
  // mailbox drained and all domain clocks on the target), so the sample
  // sequence — and the JSONL — is identical at any worker count.
  std::unique_ptr<obs::TelemetryPlane> telemetry_;
  std::vector<DomainProbe> probes_;
  // Per-domain contexts, so endpoint factories place each agent on its own
  // node's clock; the control plane is made from domain 0's.
  std::vector<proto::RunContext> dctx_;
  std::unique_ptr<proto::ControlPlane> control_;
  // After the control plane: receivers' callbacks point into it.
  EndpointTable table_;
  std::vector<DomainState> domains_;
  std::vector<DomainState::Report> merged_;
  // Setup roots the control plane claimed (delegation timers); flow launches
  // index past them.
  std::uint32_t setup_base_ = 0;
  std::vector<stats::FlowRecord> records_;  // exact mode: index == flow index
  std::unique_ptr<stats::StreamingFlowStats> streaming_;  // streaming mode
  // Flow indices in start order (stable, so same-instant flows keep
  // generation order); flows before next_pending_ have been staged.
  std::vector<std::uint32_t> order_;
  std::size_t next_pending_ = 0;
  std::size_t outstanding_ = 0;  // short flows not yet finished
  std::vector<std::uint32_t> retire_pending_;  // retire-eligible this chunk
  std::vector<std::uint32_t> retire_ready_;    // quarantined one full chunk
  std::uint64_t data_packets_sent_ = 0;
  std::uint64_t probes_sent_ = 0;
};

// One domain applies a report at once; with several (det mode) it waits for
// the next round barrier with the lineage node that orders it.
void DomainState::report(std::uint32_t slot, Outcome outcome,
                         sim::Time time) {
  if (sim->det_enabled()) {
    deferred.push_back({sim->make_post_node(), time, slot, outcome});
  } else {
    run->complete(slot, outcome, time);
  }
}

Run::Run(const ScenarioConfig& cfg, const proto::TransportProfile& profile,
         std::vector<transport::Flow> flows)
    : cfg_(cfg),
      profile_(profile),
      setup_t0_(Clock::now()),
      flows_(std::move(flows)),
      built_(topology_builder(cfg)->build(build_sim_,
                                          profile.make_queue_factory(cfg))),
      part_(choose_partition(built_->topo(), cfg, profile, &fallback_reason_)),
      engine_(part_.domains, cfg.workers) {
  topo::Topology& topo = built_->topo();
  // The per-flow path memo (0 disables it). Selections are identical at any
  // capacity, so this never perturbs goldens.
  for (const auto& sw : topo.switches()) {
    sw->set_path_cache_capacity(cfg.path_cache_entries);
  }
  const int n_dom = engine_.num_domains();
  engine_.set_lookahead(part_.lookahead);
  if (cfg.profile) {
    for (int d = 0; d < n_dom; ++d) engine_.domain(d).enable_profiling();
  }
  if (cfg.telemetry.enabled) {
    telemetry_ = std::make_unique<obs::TelemetryPlane>(*built_, cfg.telemetry);
  }

  // Every link schedules on the clock of the node that transmits into it;
  // cut links post into the destination domain instead.
  for (const auto& h : topo.hosts()) {
    h->uplink().bind_domain(domain_sim(h->id()));
  }
  for (const auto& sw : topo.switches()) {
    for (int p = 0; p < sw->num_ports(); ++p) {
      sw->port_link(p).bind_domain(domain_sim(sw->id()));
    }
  }
  for (const auto& c : part_.cut_links) {
    c.link->set_cross_post(&engine_, c.src_domain, c.dst_domain);
  }

  dctx_.reserve(static_cast<std::size_t>(n_dom));
  dctx_.push_back(proto::RunContext{
      engine_.domain(0), *built_,
      static_cast<const proto::ProfileParams&>(cfg)});
  proto::RunContext& ctx0 = dctx_.front();
  ctx0.base_rtt = proto::estimate_base_rtt(topo, built_->host_rate_bps());
  // Deadline workloads arbitrate/schedule EDF; others SJF.
  for (const auto& f : flows_) {
    ctx0.any_deadline = ctx0.any_deadline || f.has_deadline();
  }
  ctx0.sim_resolver = [this](net::NodeId id) -> sim::Simulator& {
    return domain_sim(id);
  };
  control_ = profile.make_control_plane(ctx0);
  ctx0.control = control_.get();
  for (int d = 1; d < n_dom; ++d) {
    dctx_.push_back({engine_.domain(d), *built_, ctx0.params, ctx0.base_rtt,
                     ctx0.any_deadline, ctx0.control, ctx0.sim_resolver});
  }
  setup_base_ = control_ ? control_->setup_events() : 0;

  // Conditional lookahead: certify per-domain bounds from the topology (and
  // the control plane's timer nodes), arm the links' activity counters, and
  // hand the engine a per-round probe. Static mode skips all of it and the
  // engine falls back to next_t + min-cut-propagation windows.
  if (n_dom > 1 &&
      cfg.horizon_mode == ScenarioConfig::HorizonMode::kConditional) {
    probes_ = build_horizon_probes(topo, part_, control_.get());
    for (const auto& h : topo.hosts()) h->uplink().arm_activity_tracking();
    for (const auto& sw : topo.switches()) {
      for (int p = 0; p < sw->num_ports(); ++p) {
        sw->port_link(p).arm_activity_tracking();
      }
    }
    engine_.set_horizon_probe(
        [this, la = part_.lookahead](int d, sim::Time nt) {
          return probe_bound(probes_[static_cast<std::size_t>(d)], nt, la);
        });
  }

  table_.init(profile);
  for (int d = 0; d < n_dom; ++d) {
    domains_.push_back({this, &engine_.domain(d), {}, 0, {}});
  }
  // Deferred reports are applied at every round barrier, so they never
  // outlive a lineage compaction pass and their lists stay one round long.
  engine_.set_round_hook([this] { apply_deferred(); });

  // One trace ring per domain, which the engine installs on whichever
  // thread runs that domain. Lineage keys stamped on every record let the
  // rings merge back into sequential emission order.
  if (cfg.trace.enabled) {
    queue_names_ = obs::label_fabric_queues(topo);
    for (int d = 0; d < n_dom; ++d) {
      tbufs_.push_back(std::make_unique<obs::TraceBuffer>(
          cfg.trace.buffer_capacity, cfg.trace.categories));
      engine_.set_domain_trace(d, tbufs_.back().get());
    }
  }

  // Pre-size each domain from its in-flight population: a few events per
  // host (tx-done, delivery, timers, control) plus a fixed allowance for
  // control-plane timers and the launch chains, shared by the domains.
  // Steady-state scheduling then never grows a slot chunk or rebuilds the
  // calendar mid-burst. Any worker may run any domain, so each worker's
  // packet pool is prewarmed with its share of the hosts.
  std::vector<std::size_t> dom_hosts(static_cast<std::size_t>(n_dom), 0);
  for (const auto& h : topo.hosts()) {
    ++dom_hosts[static_cast<std::size_t>(domain_of(h->id()))];
  }
  for (int d = 0; d < n_dom; ++d) {
    engine_.domain(d).reserve(dom_hosts[static_cast<std::size_t>(d)] * 8 +
                              1024 / static_cast<std::size_t>(n_dom));
  }
  const std::size_t worker_packets =
      topo.hosts().size() * 16 /
          static_cast<std::size_t>(engine_.num_workers()) +
      256;
  engine_.set_thread_init([worker_packets] {
    net::PacketPool::local().prewarm(worker_packets);
  });

  // Map generator host indices onto node ids; in exact mode pre-create the
  // records (flows that never launch keep finish = -1).
  const bool exact = cfg.stats_mode == ScenarioConfig::StatsMode::kExact;
  if (exact) {
    records_.reserve(flows_.size());
  } else {
    streaming_ = std::make_unique<stats::StreamingFlowStats>();
  }
  for (auto& f : flows_) {
    f.src = topo.host(static_cast<std::size_t>(f.src))->id();
    f.dst = topo.host(static_cast<std::size_t>(f.dst))->id();
    if (exact) records_.push_back(record_from(f));
    if (!f.background) ++outstanding_;
  }
  order_.resize(flows_.size());
  std::iota(order_.begin(), order_.end(), 0u);
  std::stable_sort(order_.begin(), order_.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                     return flows_[a].start_time < flows_[b].start_time;
                   });
}

std::uint32_t Run::materialize(std::uint32_t i) {
  const transport::Flow& f = flows_[i];
  // Flows materialize in start order at any domain count, so the
  // heavy-hitter sketch sees one update sequence.
  if (telemetry_) telemetry_->note_flow(f.id, f.size_bytes);
  const auto sd = static_cast<std::size_t>(domain_of(f.src));
  const auto dd = static_cast<std::size_t>(domain_of(f.dst));
  net::Host* src = static_cast<net::Host*>(built_->topo().node(f.src));
  net::Host* dst = static_cast<net::Host*>(built_->topo().node(f.dst));
  assert(src && dst);

  const std::uint32_t s = table_.acquire();
  EndpointSlot& slot = table_.slot(s);
  slot.flow_index = i;
  if (streaming_) slot.record = record_from(f);
  table_.construct(s, profile_, dctx_[sd], dctx_[dd], f, *src, *dst);

  const auto on_received = [ds = &domains_[dd], s](transport::Receiver& r) {
    ds->report(s, Outcome::kReceived, r.completion_time());
  };
  static_assert(sizeof(on_received) <= 16, "must fit std::function inline");
  slot.receiver->on_complete = on_received;
  const auto on_sent = [ds = &domains_[sd], s](transport::Sender& snd) {
    ds->report(s, snd.terminated() ? Outcome::kTerminated : Outcome::kFinished,
               0.0);
  };
  static_assert(sizeof(on_sent) <= 16, "must fit std::function inline");
  slot.sender->on_complete = on_sent;

  profile_.before_flow_start(dctx_[sd], *slot.sender, *slot.receiver);
  src->register_flow(f.id, slot.sender);
  dst->register_flow(f.id, slot.receiver);
  return s;
}

void Run::arm(DomainState& ds) {
  const std::uint32_t i = ds.staged[ds.next].flow;
  ds.sim->schedule_setup_at(flows_[i].start_time, setup_base_ + i,
                            [this, d = &ds] { launch(*d); });
}

void Run::launch(DomainState& ds) {
  const DomainState::Staged st = ds.staged[ds.next++];
  const std::uint32_t s = one_domain() ? materialize(st.flow) : st.slot;
  table_.slot(s).sender->start();
  if (ds.next < ds.staged.size()) arm(ds);
}

void Run::stage_until(sim::Time horizon) {
  for (DomainState& ds : domains_) {
    PASE_DCHECK(ds.next == ds.staged.size());
    ds.staged.clear();
    ds.next = 0;
  }
  while (next_pending_ < order_.size()) {
    const std::uint32_t i = order_[next_pending_];
    if (flows_[i].start_time > horizon) break;
    ++next_pending_;
    DomainState& ds =
        domains_[static_cast<std::size_t>(domain_of(flows_[i].src))];
    ds.staged.push_back({i, one_domain() ? 0 : materialize(i)});
    if (ds.staged.size() == 1) arm(ds);
  }
}

// The first of {receiver completion, early termination} finalizes the
// record; background flows never count against `outstanding_`. A slot is
// retire-eligible once its record is final and its sender has reported.
void Run::complete(std::uint32_t s, Outcome outcome, sim::Time time) {
  EndpointSlot& sl = table_.slot(s);
  if (outcome != Outcome::kReceived) sl.sender_done = true;
  stats::FlowRecord& rec = streaming_ ? sl.record : records_[sl.flow_index];
  if (outcome != Outcome::kFinished && rec.finish < 0.0 && !rec.terminated) {
    if (outcome == Outcome::kReceived) {
      rec.finish = time;
    } else {
      rec.terminated = true;
    }
    sl.done = true;
    if (!rec.background && outstanding_ > 0) --outstanding_;
  }
  if (cfg_.recycle_endpoints && sl.done && sl.sender_done &&
      !sl.queued_retire) {
    sl.queued_retire = true;
    retire_pending_.push_back(s);
  }
}

// Applies the reports deferred since the last round barrier, in lineage
// order: called by the engine's round leader (with every domain quiescent)
// and after each run_until, for the reports of its final inclusive phase. A
// worker thread only touches the lists of the domains it runs, and the
// barriers order those writes before this read.
void Run::apply_deferred() {
  merged_.clear();
  for (DomainState& ds : domains_) {
    merged_.insert(merged_.end(), ds.deferred.begin(), ds.deferred.end());
    ds.deferred.clear();
  }
  const sim::DetLineage& lineage = engine_.lineage();
  std::sort(merged_.begin(), merged_.end(),
            [&lineage](const DomainState::Report& a,
                       const DomainState::Report& b) {
              return lineage.less(a.node, b.node);
            });
  for (const DomainState::Report& r : merged_) {
    complete(r.slot, r.outcome, r.time);
  }
}

// Destroys a retired (or end-of-run live) slot after folding its counters
// and, in streaming mode, its record.
void Run::retire(std::uint32_t s) {
  EndpointSlot& sl = table_.slot(s);
  data_packets_sent_ += sl.sender->data_packets_sent();
  probes_sent_ += sl.sender->probes_sent();
  sl.src->unregister_flow(sl.flow_id);
  sl.dst->unregister_flow(sl.flow_id);
  if (streaming_) streaming_->add(sl.record);
  table_.destroy(s);
  table_.release(s);
}

// Slots that became eligible during the chunk just run go into quarantine;
// slots that have sat out a full chunk are reclaimed.
void Run::recycle_tick() {
  for (std::uint32_t s : retire_ready_) retire(s);
  retire_ready_.clear();
  std::swap(retire_ready_, retire_pending_);
}

// Flushes the quarantine, folds still-live slots (unfinished and background
// flows), and in streaming mode accounts for descriptors never staged.
void Run::finalize_flows() {
  for (std::uint32_t s : retire_ready_) retire(s);
  retire_ready_.clear();
  for (std::uint32_t s : retire_pending_) retire(s);
  retire_pending_.clear();
  for (std::uint32_t s = 0; s < table_.size(); ++s) {
    EndpointSlot& sl = table_.slot(s);
    if (!sl.in_use || sl.sender == nullptr) continue;
    data_packets_sent_ += sl.sender->data_packets_sent();
    probes_sent_ += sl.sender->probes_sent();
    if (streaming_) streaming_->add(sl.record);
  }
  if (streaming_) {
    for (std::size_t p = next_pending_; p < order_.size(); ++p) {
      streaming_->add(record_from(flows_[order_[p]]));
    }
  }
}

ScenarioResult Run::execute() {
  ScenarioResult result;
  result.setup_wall_sec =
      std::chrono::duration<double>(Clock::now() - setup_t0_).count();

  // Run until every short flow completes (or the hard cap), 10 ms at a time;
  // end_time (which is fingerprinted) lands on a multiple of the step.
  const sim::Time step = 10e-3;
  std::uint64_t next_sample = 1;
  while (outstanding_ > 0 && engine_.now() < cfg_.max_duration) {
    const sim::Time target = std::min(cfg_.max_duration, engine_.now() + step);
    stage_until(target);
    // Telemetry sub-boundaries: run to each absolute grid instant inside the
    // chunk (computed multiplicatively, so the grid never drifts) and sample
    // with every domain quiescent. run_until(t) executes every event <= t
    // and parks every domain clock at t, so the executed-event sequence is
    // the same as with telemetry off.
    if (telemetry_) {
      for (sim::Time ts = telemetry_->sample_time(next_sample); ts <= target;
           ts = telemetry_->sample_time(++next_sample)) {
        engine_.run_until(ts);
        telemetry_->sample(engine_.now());
      }
    }
    engine_.run_until(target);
    apply_deferred();
    recycle_tick();
  }
  finalize_flows();

  result.records = std::move(records_);
  result.end_time = engine_.now();
  result.fabric_drops = built_->topo().total_drops();
  result.data_packets_sent = data_packets_sent_;
  result.probes_sent = probes_sent_;
  result.slab_grow_events = table_.slab_grow_events();
  result.peak_live_flows = table_.peak_live();
  result.streaming = std::move(streaming_);
  if (control_) {
    if (const core::ControlPlaneStats* st = control_->stats()) {
      result.control = *st;
    }
  }
  for (int d = 0; d < engine_.num_domains(); ++d) {
    result.heap_closure_events += engine_.domain(d).heap_closure_events();
  }
  result.workers_used = engine_.num_workers();
  result.parallel_fallback_reason = std::move(fallback_reason_);
  result.parallel_barrier_wait_sec = engine_.barrier_wait_sec();
  if (telemetry_) result.telemetry = telemetry_->finish(result.end_time);
  fold_metrics(result);
  return result;
}

void Run::fold_metrics(ScenarioResult& result) {
  const int n_dom = engine_.num_domains();
  // Passes made while the run was going, not the trace-sealing one below.
  const std::uint64_t compactions = engine_.lineage().compactions();
  if (!tbufs_.empty()) {
    for (int d = 0; d < n_dom; ++d) {
      tbufs_[static_cast<std::size_t>(d)]->emit_at(
          result.end_time, obs::kEngineCat, obs::EventType::kEngineSample, 0,
          static_cast<double>(engine_.domain(d).executed_events()),
          static_cast<double>(engine_.domain(d).heap_closure_events()),
          static_cast<std::uint32_t>(d));
    }
    // Records since the last pass still carry lineage ids; one more pass
    // turns them into integer merge keys.
    if (n_dom > 1) engine_.compact();
    std::vector<const obs::TraceBuffer*> ptrs;
    for (const auto& b : tbufs_) ptrs.push_back(b.get());
    auto trace = std::make_shared<obs::Trace>(obs::merge_buffers(ptrs));
    trace->queue_names = std::move(queue_names_);
    result.trace = std::move(trace);
  }

  obs::MetricsRegistry reg;
  fold_common_metrics(reg, result, *built_, engine_);
  if (n_dom > 1) {
    std::uint64_t executed = 0, max_domain_executed = 0;
    for (int d = 0; d < n_dom; ++d) {
      executed += engine_.domain(d).executed_events();
      max_domain_executed =
          std::max(max_domain_executed, engine_.domain(d).executed_events());
    }
    reg.counter("parallel.domains") = static_cast<std::uint64_t>(n_dom);
    // The largest domain's share of all executed events: deterministic, and
    // times the worker count it bounds how far static placement alone would
    // leave one worker behind the mean.
    reg.gauge("parallel.max_domain_event_share") =
        executed == 0 ? 0.0
                      : static_cast<double>(max_domain_executed) /
                            static_cast<double>(executed);
    reg.counter("parallel.rounds") = engine_.rounds_executed();
    reg.counter("parallel.windows") = engine_.windows_executed();
    reg.counter("parallel.cross_posts") = engine_.cross_posts();
    reg.counter("parallel.drains") = engine_.drains_executed();
    reg.counter("parallel.quiet_rounds") = engine_.quiet_rounds();
    reg.gauge("parallel.horizon_width_mean") = engine_.mean_horizon_width();
    reg.counter("parallel.lineage_compactions") = compactions;
    reg.counter("mem.lineage_peak_bytes") = engine_.lineage().chunk_bytes();
  }
  if (result.telemetry) {
    reg.counter("telemetry.samples") = result.telemetry->samples;
    reg.counter("telemetry.windows") = result.telemetry->windows.size();
  }
  if (cfg_.profile) fold_profile_metrics(reg, engine_, *built_);
  result.metrics = reg.snapshot();
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
  return Run(cfg, profile, std::move(flows)).execute();
}

}  // namespace pase::workload
