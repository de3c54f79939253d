// The pluggable seam between "which transport" and "how to run a scenario".
//
// A TransportProfile bundles everything that used to be a per-protocol branch
// in the scenario monolith:
//   (a) the fabric: which queue discipline each link gets, with the paper's
//       Table 3 capacities/ECN thresholds as defaults;
//   (b) the endpoints: sender/receiver factories invoked per flow by the
//       harness as the workload arrives;
//   (c) optional control-plane setup: PASE's arbitration plane, PDQ's
//       per-port controllers — built once per run, owned by the run.
//
// Profiles are stateless; all per-run state lives in the RunContext and the
// ControlPlane object the profile returns. Registering a profile (see
// proto/registry.h) makes it reachable from every bench, example and test
// by name — the scenario harness itself never names a protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <string_view>
#include <vector>

#include "core/control_stats.h"
#include "proto/profile_params.h"
#include "proto/protocol.h"
#include "topo/builder.h"
#include "transport/agent.h"
#include "transport/receiver.h"

namespace pase::proto {

// Per-run control-plane state (arbitration plane, PDQ controllers, ...).
// Owned by the scenario run; destroyed after the simulation ends.
class ControlPlane {
 public:
  virtual ~ControlPlane() = default;
  // Counters for ScenarioResult::control; null when the protocol has none.
  virtual const core::ControlPlaneStats* stats() const { return nullptr; }

  // Setup roots (Simulator::schedule_setup_at) the control plane scheduled
  // while being constructed (PASE's delegation timers), with indices
  // [0, count) in a globally deterministic order. The harness numbers its
  // flow launches past this count so setup roots stay globally unique and
  // partition-invariant.
  virtual std::uint32_t setup_events() const { return 0; }
  // Appends the nodes at which the control plane spontaneously schedules
  // timer events (as opposed to reacting to packet arrivals). The parallel
  // engine's conditional-horizon probe must treat these nodes as potential
  // event sources alongside the hosts.
  virtual void append_timer_nodes(std::vector<net::NodeId>& out) const {
    (void)out;
  }
};

// Everything a profile may consult while wiring a run. `params` is the run's
// own mutable copy: a profile may tune it from measured facts (PASE derives
// its arbitration period and criterion from the RTT and the workload).
struct RunContext {
  sim::Simulator& sim;
  topo::BuiltTopology& built;
  ProfileParams params;
  sim::Time base_rtt = 0.0;
  bool any_deadline = false;
  ControlPlane* control = nullptr;  // set once make_control_plane returned

  // The harness partitions the topology into domains, each with its own
  // Simulator (one domain in a sequential run). Profiles that build per-node
  // machinery (PDQ's per-port rate controllers) must place it on the owning
  // node's domain clock; a context built without a resolver (as tests do)
  // puts everything on `sim`.
  std::function<sim::Simulator&(net::NodeId)> sim_resolver = {};
  sim::Simulator& sim_of(net::NodeId node) {
    return sim_resolver ? sim_resolver(node) : sim;
  }
};

// Concrete storage geometry of a profile's endpoint types. Profiles that
// publish a valid layout let the harness keep senders/receivers in typed slab
// arenas (proto/endpoint_arena.h) sized without per-flow virtual construction;
// an invalid layout (sender_size == 0, the default) keeps the heap-allocating
// make_sender/make_receiver path — external/test profiles need not opt in.
struct EndpointLayout {
  std::size_t sender_size = 0;
  std::size_t sender_align = 0;
  std::size_t receiver_size = sizeof(transport::Receiver);
  std::size_t receiver_align = alignof(transport::Receiver);

  bool valid() const { return sender_size > 0 && sender_align > 0; }
};

class TransportProfile {
 public:
  virtual ~TransportProfile() = default;

  // The enum identity for the six paper protocols; nullopt for registered
  // extras, which are reachable by name only.
  virtual std::optional<Protocol> protocol() const { return std::nullopt; }
  // Registry/CLI key, lowercase ("pase"). Unique across the registry.
  virtual std::string_view name() const = 0;
  virtual std::string_view display_name() const { return name(); }

  // Rejects nonsensical knob combinations with std::invalid_argument; called
  // by the harness before anything is built.
  virtual void validate(const ProfileParams& params) const { (void)params; }

  // Whether the protocol tolerates domain-partitioned parallel execution:
  // all of its runtime state must be per-node (endpoint loops, per-port
  // controllers, arbitration shards), with cross-node interaction only via
  // Link deliveries — which the engine routes through cut-link mailboxes.
  // Conservative default: profiles must opt in. All six built-ins are
  // parallel-safe; when an external profile declines, the harness falls back
  // to sequential execution and records why in
  // ScenarioResult::parallel_fallback_reason.
  virtual bool parallel_safe() const { return false; }

  // (a) fabric.
  virtual topo::QueueFactory make_queue_factory(
      const ProfileParams& params) const = 0;

  // (c) control plane; called once after the topology is built, before any
  // flow starts. Default: the protocol needs none.
  virtual std::unique_ptr<ControlPlane> make_control_plane(
      RunContext& ctx) const {
    (void)ctx;
    return nullptr;
  }

  // (b) endpoints, invoked per flow at its start time.
  virtual std::unique_ptr<transport::Sender> make_sender(
      RunContext& ctx, const transport::Flow& flow, net::Host& src) const = 0;
  virtual std::unique_ptr<transport::Receiver> make_receiver(
      RunContext& ctx, const transport::Flow& flow, net::Host& dst) const;

  // (b') slab variants. A profile advertising a valid endpoint_layout()
  // promises construct_sender/construct_receiver placement-construct exactly
  // the advertised types into caller-owned slots of that size/alignment. The
  // caller (workload/endpoint_table.h) owns the storage and runs the virtual
  // destructor before recycling the slot; ordinary profiles inherit the
  // invalid layout and are served by the unique_ptr factories above.
  virtual EndpointLayout endpoint_layout() const { return {}; }
  virtual transport::Sender* construct_sender(void* mem, RunContext& ctx,
                                              const transport::Flow& flow,
                                              net::Host& src) const;
  // Default: placement-new of the base transport::Receiver, mirroring
  // make_receiver — correct for every profile that keeps receiver_size at its
  // default, i.e. all six built-ins.
  virtual transport::Receiver* construct_receiver(void* mem, RunContext& ctx,
                                                  const transport::Flow& flow,
                                                  net::Host& dst) const;

  // Called after the pair exists and completion callbacks are wired, before
  // the sender starts (PASE hooks the receiver into the arbitration plane).
  virtual void before_flow_start(RunContext& ctx, transport::Sender& sender,
                                 transport::Receiver& receiver) const {
    (void)ctx;
    (void)sender;
    (void)receiver;
  }
};

// Measured base RTT between the two most distant hosts: propagation plus a
// nominal per-hop serialization allowance for a data packet.
sim::Time estimate_base_rtt(topo::Topology& topo, double host_rate_bps);

}  // namespace pase::proto
