// PASE's arbitration control plane (paper §3.1).
//
// One arbitrator per directed link, arranged bottom-up over the tree:
//   - access links (host<->ToR) are arbitrated at the endpoints themselves,
//     so intra-rack flows never leave the hosts for arbitration;
//   - a switch arbitrates the link pair above it (its first port one tier
//     up, read from topo::Topology): a ToR its ToR<->Agg pair, the agg above
//     it its Agg<->Core pair, unless delegation hands shares ("virtual
//     links") of the latter down to the ToR arbitrators.
// Every switch runs the same handlers over the same state; a ToR differs
// from an agg only in having a parent to forward to. Each arbitrator's
// capacity is the rate of the link it arbitrates.
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
// arbitrators, per-switch fabric arbitrators and delegation state.
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

#include "core/control_stats.h"
#include "core/link_arbitrator.h"
#include "topo/topology.h"
#include "transport/receiver.h"

namespace pase::core {

// Implemented by PaseSender: receives (PrioQue, Rref) updates.
class ArbitrationClient {
 public:
  virtual ~ArbitrationClient() = default;
  virtual void arbitration_update(int prio_queue, double ref_rate,
                                  bool receiver_half) = 0;
};

class ArbitrationPlane {
 public:
  // Maps a node id to the simulator its domain runs on. Sequential runs map
  // every node to the one simulator; partitioned runs map each node to its
  // domain's clock so host timers and delegation timers fire locally.
  using SimResolver = std::function<sim::Simulator&(net::NodeId)>;

  ArbitrationPlane(const SimResolver& sim_of, topo::Topology& topo,
                   PaseConfig cfg);
  // Single-clock convenience form (sequential runs, unit tests).
  ArbitrationPlane(sim::Simulator& sim, topo::Topology& topo, PaseConfig cfg);

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
  std::uint32_t setup_events() const { return delegation_timers_; }

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
  // The arbitrator of the link above switch `sw` (nullptr when the plane
  // arbitrates none there).
  LinkArbitrator* up_arbitrator(net::NodeId sw);

 private:
  // An arbitrating switch: a host's ToR, or the agg above such a ToR.
  struct SwitchState {
    net::Switch* sw = nullptr;
    // The switch a ToR forwards to; nullptr at the top (an agg, or a rack's
    // ToR). Handlers read only its immutable sw and uplink_bps.
    const SwitchState* parent = nullptr;
    sim::Simulator* sim = nullptr;  // the switch's domain clock
    ControlPlaneStats stats;        // this shard's share of the counters
    // The link pair above the switch, present iff it has a link one tier
    // up; uplink_bps is that link's rate (0 without one).
    double uplink_bps = 0.0;
    std::unique_ptr<LinkArbitrator> up;
    std::unique_ptr<LinkArbitrator> down;
    // Delegated shares of the parent's links (§3.1.2 delegation).
    std::unique_ptr<LinkArbitrator> virt_up;
    std::unique_ptr<LinkArbitrator> virt_down;
    // Last demands reported to the parent; unchanged demand sends no report.
    double reported_up = -1.0;
    double reported_down = -1.0;
    // On a parent: last reported top-queue demand per child, per direction.
    std::unordered_map<net::NodeId, double> demand_up;
    std::unordered_map<net::NodeId, double> demand_down;
  };
  struct HostState {
    net::Host* host = nullptr;
    // Fixed at construction, so any domain may read them (same_rack and
    // same_agg_hdr compare the two ends of a flow).
    net::Switch* tor = nullptr;
    net::Switch* agg = nullptr;  // nullptr under a rack's ToR
    double nic_bps = 0.0;        // capacity of both access links
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

  void handle_request(SwitchState& ss, net::PacketPtr p);
  void handle_fin(SwitchState& ss, net::PacketPtr p);
  // Turns the request around toward arb.src_host, sending from `sw`.
  void respond(ControlPlaneStats& st, net::Switch& sw, net::PacketPtr request);

  void receiver_data_arrived(const transport::Flow& flow,
                             double remaining_bytes);
  void receiver_finished(const transport::Flow& flow);

  // Delegation.
  // One delegation period at a child: report its demand, then re-arm.
  void delegation_tick(SwitchState& ss);
  void send_delegation_report(SwitchState& ss);
  void handle_report(SwitchState& ss, const net::Packet& p);
  void handle_grant(SwitchState& ss, const net::Packet& p);
  double recompute_share(const SwitchState& ss, net::NodeId child,
                         bool down) const;

  // The state of `sw`, made on first use: its clock, its control handler
  // and the arbitrators of the link above it.
  SwitchState& switch_state(const SimResolver& sim_of,
                            const topo::Topology& topo, net::Switch& sw);

  PaseConfig cfg_;
  std::unordered_map<net::NodeId, HostState> host_states_;
  std::unordered_map<net::NodeId, SwitchState> switch_states_;
  std::uint32_t delegation_timers_ = 0;
  mutable ControlPlaneStats folded_;  // stats() scratch
};

}  // namespace pase::core
