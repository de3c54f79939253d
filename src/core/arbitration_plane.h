// PASE's arbitration control plane (paper §3.1).
//
// One arbitrator per directed link, arranged bottom-up over the tree:
//   - access links (host<->ToR) are arbitrated at the endpoints themselves,
//     so intra-rack flows never leave the hosts for arbitration;
//   - ToR<->Agg links are arbitrated at the ToR switch;
//   - Agg<->Core links are arbitrated at the Agg switch, unless delegation
//     hands shares ("virtual links") of them down to the ToR arbitrators.
//
// A flow's source arbitrates the sender half of the path (its uplink upward);
// the receiver half is driven by arriving data at the destination, whose
// responses travel straight back to the source (Fig. 5). The source combines
// both halves: priority queue = worst of the two, reference rate = min.
//
// Early pruning (§3.1.2) stops a request from ascending as soon as the flow
// drops out of the top-k queues on some link. Delegation (§3.1.2) lets ToR
// arbitrators decide the Agg<->Core share locally, refreshed by periodic
// report/grant exchanges with the Agg arbitrator.
//
// Every arbitration message is a real 40-byte control packet traversing the
// simulated fabric at top priority, so control-plane latency, load and
// message counts (Fig. 11) are emergent rather than modeled.
//
// Sharding: the plane is one object, but all of its mutable state is owned
// by the node it lives at — per-host flow/client tables and access-link
// arbitrators, per-ToR and per-Agg fabric arbitrators and delegation state.
// A handler running at a node reads and writes only that node's state plus
// the packet it was handed; every arbitration message carries the flow's
// full identity (ArbHeader src_host/dst_host/task_id/deadline/flow_size) so
// no handler ever consults another node's tables. Under the partitioned
// parallel engine each node's state therefore belongs to exactly one domain
// (the resolver passed at construction names it), cross-domain arbitration
// rides the existing cut-link mailboxes as ordinary control packets, and
// delegation's periodic report/grant summaries are the only ToR<->Agg
// coupling — there is no shared-memory state between domains. Handlers make
// identical decisions whatever the partitioning, which is what keeps
// parallel runs bit-identical to sequential ones. A consequence of deciding
// from the packet alone is that fabric arbitrators respond to stale
// requests from already-finished flows instead of dropping them; the
// resulting table entries age out via PaseConfig::entry_timeout (the
// paper's soft state) exactly as lost-FIN entries always have.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/control_stats.h"
#include "core/link_arbitrator.h"
#include "topo/single_rack.h"
#include "topo/three_tier.h"
#include "transport/receiver.h"

namespace pase::topo {
class BuiltTopology;
}

namespace pase::core {

// Implemented by PaseSender: receives (PrioQue, Rref) updates.
class ArbitrationClient {
 public:
  virtual ~ArbitrationClient() = default;
  virtual void arbitration_update(int prio_queue, double ref_rate,
                                  bool receiver_half) = 0;
};

// What the plane needs to know about the tree.
struct PlaneTopology {
  topo::Topology* topo = nullptr;
  struct HostInfo {
    net::Host* host = nullptr;
    net::Switch* tor = nullptr;
    net::Switch* agg = nullptr;  // nullptr in single-rack topologies
  };
  std::unordered_map<net::NodeId, HostInfo> hosts;  // by host node id
  double host_rate_bps = 1e9;
  double fabric_rate_bps = 10e9;

  static PlaneTopology from(topo::ThreeTier& tt);
  static PlaneTopology from(topo::SingleRack& rack);
  // Generic form: any BuiltTopology that reports per-host ToR/Agg attachment.
  static PlaneTopology from(topo::BuiltTopology& built);
};

class ArbitrationPlane {
 public:
  // Maps a node id to the simulator its domain runs on. Sequential runs map
  // every node to the one simulator; partitioned runs map each node to its
  // domain's clock so host timers and delegation timers fire locally.
  using SimResolver = std::function<sim::Simulator&(net::NodeId)>;

  ArbitrationPlane(const SimResolver& sim_of, PlaneTopology pt,
                   PaseConfig cfg);
  // Single-clock convenience form (sequential runs, unit tests).
  ArbitrationPlane(sim::Simulator& sim, PlaneTopology pt, PaseConfig cfg);

  const PaseConfig& config() const { return cfg_; }
  // Folds the per-node shard counters into one total (all fields are
  // commutative sums). Only call while every domain is quiescent — between
  // engine windows or after the run.
  const ControlPlaneStats& stats() const;

  // Setup roots the plane scheduled during construction (one per delegation
  // timer, indices [0, count) in globally sorted ToR-id order). The harness
  // numbers its flow launches past this count, so at any instant the timers'
  // first firings precede launches, as they would if every launch were
  // scheduled before the run.
  std::uint32_t setup_events() const {
    return static_cast<std::uint32_t>(delegation_tors_.size());
  }

  // --- sender side -----------------------------------------------------------
  // Registers the flow and performs the first (host-local) arbitration pass.
  // Returns the sender-half result known so far; a fabric response may refine
  // it asynchronously via ArbitrationClient::arbitration_update.
  FlowTable::Result register_sender(ArbitrationClient& client,
                                    const transport::Flow& flow,
                                    double remaining_bytes, double demand_bps);

  // Periodic refresh from the source (same semantics as register_sender).
  FlowTable::Result source_arbitrate(const transport::Flow& flow,
                                     double remaining_bytes,
                                     double demand_bps);

  // The source finished (or aborted): tear down sender-half state.
  void sender_finished(const transport::Flow& flow);

  // --- receiver side ---------------------------------------------------------
  // Hooks the receiver so arriving data drives receiver-half arbitration and
  // completion tears it down. Call once per PASE flow.
  void attach_receiver(transport::Receiver& receiver);

  // --- introspection ---------------------------------------------------------
  LinkArbitrator* tor_up_arbitrator(net::NodeId tor);
  LinkArbitrator* agg_up_arbitrator(net::NodeId agg);

 private:
  struct TorState {
    net::Switch* tor = nullptr;
    net::Switch* agg = nullptr;  // parent (nullptr in single-rack)
    sim::Simulator* sim = nullptr;  // the ToR's domain clock
    ControlPlaneStats stats;        // this shard's share of the counters
    std::unique_ptr<LinkArbitrator> up;    // ToR -> Agg
    std::unique_ptr<LinkArbitrator> down;  // Agg -> ToR
    // Delegated shares of the Agg<->Core links (§3.1.2 delegation).
    std::unique_ptr<LinkArbitrator> virt_up;
    std::unique_ptr<LinkArbitrator> virt_down;
    // Last demands reported upward; unchanged demand sends no report.
    double reported_up = -1.0;
    double reported_down = -1.0;
  };
  struct AggState {
    net::Switch* agg = nullptr;
    sim::Simulator* sim = nullptr;
    ControlPlaneStats stats;
    std::unique_ptr<LinkArbitrator> up;    // Agg -> Core
    std::unique_ptr<LinkArbitrator> down;  // Core -> Agg
    // Last reported top-queue demand per child ToR, per direction.
    std::unordered_map<net::NodeId, double> demand_up;
    std::unordered_map<net::NodeId, double> demand_down;
  };
  struct HostState {
    PlaneTopology::HostInfo info;
    sim::Simulator* sim = nullptr;
    ControlPlaneStats stats;
    std::unique_ptr<LinkArbitrator> up;    // host -> ToR
    std::unique_ptr<LinkArbitrator> down;  // ToR -> host
    // Sender-half state for flows sourced here: the client to deliver
    // fabric responses to. Receiver-half throttle state for flows sinking
    // here: the last receiver-side arbitration instant.
    std::unordered_map<net::FlowId, ArbitrationClient*> tx;
    std::unordered_map<net::FlowId, sim::Time> rx_last;
  };

  // Scheduling key per the configured criterion, from the flow...
  double key_of(const transport::Flow& flow, double remaining_bytes) const;
  // ...or from a request header (identical result: the header carries the
  // deadline/task fields key_of consults). Fabric arbitrators use this form
  // so they never touch endpoint-owned flow state.
  double key_from_header(const net::ArbHeader& h) const;
  bool same_rack(const transport::Flow& f) const;
  bool same_agg_hdr(const net::ArbHeader& h) const;

  void send_from_host(HostState& hs, net::PacketPtr p);
  void send_from_switch(ControlPlaneStats& st, net::Switch& sw,
                        net::PacketPtr p);
  net::PacketPtr make_arb_packet(net::PacketType type,
                                 const transport::Flow& flow,
                                 net::NodeId from, net::NodeId to);

  void on_host_control(net::NodeId host, net::PacketPtr p);
  void on_switch_control(net::Switch* sw, net::PacketPtr p);

  void handle_request_at_tor(TorState& ts, net::PacketPtr p);
  void handle_request_at_agg(AggState& as, net::PacketPtr p);
  void handle_fin_at_tor(TorState& ts, net::PacketPtr p);
  void handle_fin_at_agg(AggState& as, net::PacketPtr p);
  // Turns the request around toward arb.src_host, sending from `sw`.
  void respond(ControlPlaneStats& st, net::Switch& sw, net::PacketPtr request);

  void receiver_data_arrived(const transport::Flow& flow,
                             double remaining_bytes);
  void receiver_finished(const transport::Flow& flow);

  // Delegation.
  // One delegation period at a ToR: report its demand, then re-arm.
  void delegation_tick(TorState& ts);
  void send_delegation_report(TorState& ts);
  void handle_report_at_agg(AggState& as, const net::Packet& p);
  void handle_grant_at_tor(TorState& ts, const net::Packet& p);
  double recompute_share(AggState& as, net::NodeId child, bool down) const;

  PlaneTopology pt_;
  PaseConfig cfg_;
  std::unordered_map<net::NodeId, HostState> host_states_;
  std::unordered_map<net::NodeId, TorState> tor_states_;
  std::unordered_map<net::NodeId, AggState> agg_states_;
  // ToRs with delegation timers, sorted by node id (the scheduling order).
  std::vector<net::NodeId> delegation_tors_;
  mutable ControlPlaneStats folded_;  // stats() scratch
};

}  // namespace pase::core
