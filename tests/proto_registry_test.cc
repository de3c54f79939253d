// The transport-profile registry: built-in coverage, name lookup rules,
// config validation, and — the acceptance test for the whole refactor —
// registering a seventh profile at runtime and running it through the
// unmodified scenario harness.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "net/droptail_queue.h"
#include "proto/registry.h"
#include "proto/transport_profile.h"
#include "transport/window_sender.h"
#include "workload/scenario.h"

namespace pase {
namespace {

using proto::ProfileRegistry;
using proto::Protocol;
using proto::TransportProfile;
using workload::ScenarioConfig;

constexpr Protocol kAll[] = {Protocol::kDctcp,   Protocol::kD2tcp,
                             Protocol::kL2dct,   Protocol::kPdq,
                             Protocol::kPfabric, Protocol::kPase};

TEST(ProfileRegistry, EveryProtocolHasABuiltinProfile) {
  for (Protocol p : kAll) {
    const TransportProfile& prof = proto::profile_for(p);
    ASSERT_TRUE(prof.protocol().has_value());
    EXPECT_EQ(*prof.protocol(), p);
    EXPECT_EQ(prof.name(), proto::protocol_key(p));
    EXPECT_EQ(prof.display_name(), proto::protocol_name(p));
  }
}

TEST(ProfileRegistry, LookupByNameIsCaseInsensitive) {
  for (Protocol p : kAll) {
    const std::string key(proto::protocol_key(p));
    const TransportProfile* lower = proto::profile_for(key);
    ASSERT_NE(lower, nullptr) << key;
    std::string upper = key;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    EXPECT_EQ(proto::profile_for(upper), lower);
  }
  // Display names with different casing resolve too.
  EXPECT_NE(proto::profile_for("pFabric"), nullptr);
  EXPECT_NE(proto::profile_for("DCTCP"), nullptr);
}

TEST(ProfileRegistry, UnknownNameIsRejected) {
  EXPECT_EQ(proto::profile_for(""), nullptr);
  EXPECT_EQ(proto::profile_for("tcp-vegas"), nullptr);
  EXPECT_EQ(proto::profile_for("pase "), nullptr);
}

TEST(ProfileRegistry, DuplicateRegistrationThrows) {
  class Dup final : public TransportProfile {
   public:
    std::string_view name() const override { return "PASE"; }  // case clash
    topo::QueueFactory make_queue_factory(
        const proto::ProfileParams&) const override {
      return nullptr;
    }
    transport::Sender* make_sender(proto::EndpointArena&,
                                   proto::RunContext&, const transport::Flow&,
                                   net::Host&) const override {
      return nullptr;
    }
  };
  EXPECT_THROW(ProfileRegistry::instance().add(std::make_unique<Dup>()),
               std::invalid_argument);
}

TEST(ParseProtocol, RoundTripsAllSpellings) {
  for (Protocol p : kAll) {
    EXPECT_EQ(proto::parse_protocol(proto::protocol_key(p)), p);
    EXPECT_EQ(proto::parse_protocol(proto::protocol_name(p)), p);
  }
  EXPECT_EQ(proto::parse_protocol("PFABRIC"), Protocol::kPfabric);
  EXPECT_FALSE(proto::parse_protocol("").has_value());
  EXPECT_FALSE(proto::parse_protocol("tcp-reno").has_value());
}

TEST(ValidateConfig, RejectsMarkThresholdAboveCapacity) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kDctcp;
  cfg.queue_capacity_pkts = 50;
  cfg.mark_threshold_pkts = 80;
  EXPECT_THROW(workload::validate_config(cfg), std::invalid_argument);
  EXPECT_THROW(workload::run_scenario(cfg), std::invalid_argument);
}

TEST(ValidateConfig, RejectsSingleQueuePase) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kPase;
  cfg.pase.num_queues = 1;
  EXPECT_THROW(workload::validate_config(cfg), std::invalid_argument);
}

TEST(ValidateConfig, RejectsNonsenseScenario) {
  {
    ScenarioConfig cfg;
    cfg.max_duration = 0.0;
    EXPECT_THROW(workload::validate_config(cfg), std::invalid_argument);
  }
  {
    ScenarioConfig cfg;
    cfg.traffic.load = -0.1;
    EXPECT_THROW(workload::validate_config(cfg), std::invalid_argument);
  }
  {
    ScenarioConfig cfg;
    cfg.topology = ScenarioConfig::TopologyKind::kThreeTier;
    cfg.tree.num_tors = 3;
    cfg.tree.tors_per_agg = 2;  // 3 % 2 != 0
    EXPECT_THROW(workload::validate_config(cfg), std::invalid_argument);
  }
  {
    ScenarioConfig cfg;
    cfg.traffic.pattern = workload::Pattern::kLeftRight;  // needs three-tier
    EXPECT_THROW(workload::validate_config(cfg), std::invalid_argument);
  }
  {
    ScenarioConfig cfg;
    cfg.profile_name = "no-such-transport";
    EXPECT_THROW(workload::validate_config(cfg), std::invalid_argument);
  }
}

// A link delay schedules every delivery that far ahead, so each fabric kind
// rejects a negative or non-finite one (the clock would run backwards, or
// the deliveries never fire); zero stays legal.
TEST(ValidateConfig, RejectsNegativeOrNonFiniteLinkDelay) {
  using Kind = ScenarioConfig::TopologyKind;
  const auto delay_of = [](ScenarioConfig& cfg) -> double& {
    if (cfg.topology == Kind::kSingleRack) return cfg.rack.per_link_delay;
    if (cfg.topology == Kind::kFatTree) return cfg.fattree.per_link_delay;
    return cfg.tree.per_link_delay;
  };
  for (const Kind kind :
       {Kind::kSingleRack, Kind::kThreeTier, Kind::kFatTree}) {
    for (const double d : {-1e-6, std::nan(""), HUGE_VAL}) {
      ScenarioConfig cfg;
      cfg.topology = kind;
      delay_of(cfg) = d;
      EXPECT_THROW(workload::validate_config(cfg), std::invalid_argument)
          << "topology " << static_cast<int>(kind) << ", delay " << d;
    }
  }
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kDctcp;
  cfg.rack.num_hosts = 8;
  cfg.rack.per_link_delay = 0.0;
  cfg.traffic.load = 0.5;
  cfg.traffic.num_flows = 40;
  EXPECT_NO_THROW(workload::validate_config(cfg));
  const workload::ScenarioResult res = workload::run_scenario(cfg);
  EXPECT_EQ(res.unfinished(), 0u);
  EXPECT_GT(res.afct(), 0.0);
}

// An explicit flow list names hosts by index; each malformed flow is
// rejected before the run instead of crashing it or spinning to
// max_duration.
TEST(ValidateConfig, RejectsMalformedFlowLists) {
  ScenarioConfig cfg;
  cfg.rack.num_hosts = 4;
  net::FlowId next_id = 1;
  const auto flow = [&next_id](net::NodeId src, net::NodeId dst,
                               std::uint64_t size_bytes, double start) {
    transport::Flow f;
    f.id = next_id++;
    f.src = src;
    f.dst = dst;
    f.size_bytes = size_bytes;
    f.start_time = start;
    return f;
  };
  const struct {
    const char* rule;
    transport::Flow bad;
  } cases[] = {
      {"src past the last host", flow(4000000, 1, 3000, 0.0)},
      {"negative src", flow(-1, 1, 3000, 0.0)},
      {"dst past the last host", flow(0, 4, 3000, 0.0)},
      {"negative dst", flow(0, -5, 3000, 0.0)},
      {"zero bytes", flow(0, 1, 0, 0.0)},
      {"negative start", flow(0, 1, 3000, -1e-3)},
      {"infinite start", flow(0, 1, 3000, sim::kTimeInfinity)},
      {"NaN start", flow(0, 1, 3000, std::nan(""))},
  };
  for (const auto& c : cases) {
    // The bad flow sits behind a good one, so the check covers every index.
    EXPECT_THROW(workload::run_scenario_with_flows(
                     cfg, {flow(2, 3, 3000, 0.0), c.bad}),
                 std::invalid_argument)
        << c.rule;
  }
  const workload::ScenarioResult r = workload::run_scenario_with_flows(
      cfg, {flow(0, 3, 3000, 0.0), flow(3, 0, 3000, 1e-3)});
  EXPECT_EQ(r.total_flows(), 2u);
  EXPECT_EQ(r.unfinished(), 0u);
}

TEST(ValidateConfig, AcceptsDefaults) {
  for (Protocol p : kAll) {
    ScenarioConfig cfg;
    cfg.protocol = p;
    EXPECT_NO_THROW(workload::validate_config(cfg)) << proto::protocol_key(p);
  }
}

// The refactor's acceptance criterion: a seventh transport — plain TCP over
// DropTail queues — registered here, with zero edits to scenario.cc,
// switch.cc or any bench, runs end to end via ScenarioConfig::profile_name.
class TcpDroptailProfile final : public TransportProfile {
 public:
  std::string_view name() const override { return "tcp-droptail"; }
  std::string_view display_name() const override { return "TCP/DropTail"; }

  topo::QueueFactory make_queue_factory(
      const proto::ProfileParams& params) const override {
    const std::size_t cap_override = params.queue_capacity_pkts;
    return [=](double) -> std::unique_ptr<net::Queue> {
      return std::make_unique<net::DropTailQueue>(cap_override ? cap_override
                                                               : 250);
    };
  }

  transport::Sender* make_sender(proto::EndpointArena& arena,
                                 proto::RunContext& ctx,
                                 const transport::Flow& flow,
                                 net::Host& src) const override {
    transport::WindowSenderOptions w;
    w.initial_rtt = ctx.base_rtt;
    return arena.emplace<transport::WindowSender>(ctx.sim, src, flow, w);
  }
};

void register_tcp_droptail() {
  if (proto::profile_for("tcp-droptail") == nullptr) {
    ProfileRegistry::instance().add(std::make_unique<TcpDroptailProfile>());
  }
}

ScenarioConfig seventh_profile_config() {
  register_tcp_droptail();
  ScenarioConfig cfg;
  cfg.profile_name = "tcp-droptail";  // enum field is ignored when set
  cfg.topology = ScenarioConfig::TopologyKind::kSingleRack;
  cfg.traffic.load = 0.5;
  cfg.traffic.num_flows = 40;
  cfg.traffic.seed = 5;
  return cfg;
}

TEST(SeventhProfile, RunsThroughUnmodifiedHarness) {
  const ScenarioConfig cfg = seventh_profile_config();
  EXPECT_NO_THROW(workload::validate_config(cfg));
  const workload::ScenarioResult res = workload::run_scenario(cfg);
  EXPECT_EQ(res.unfinished(), 0u);
  EXPECT_GT(res.data_packets_sent, 0u);
  EXPECT_GT(res.afct(), 0.0);
  // No control plane: the counters stay zero.
  EXPECT_EQ(res.control.messages_sent, 0u);
  // Its endpoints live in the slab arenas, like the built-ins'.
  EXPECT_GT(res.slab_grow_events, 0u);

  // Determinism holds for registered extras too.
  const workload::ScenarioResult again = workload::run_scenario(cfg);
  EXPECT_EQ(res.end_time, again.end_time);
  EXPECT_EQ(res.data_packets_sent, again.data_packets_sent);
}

// A registered extra recycles its slots through the same arenas, and
// recycling stays invisible to the event path.
TEST(SeventhProfile, RecycleOnReproducesRecycleOff) {
  ScenarioConfig on = seventh_profile_config();
  on.rack.num_hosts = 16;
  on.traffic.num_flows = 600;
  on.recycle_endpoints = true;
  ScenarioConfig off = on;
  off.recycle_endpoints = false;
  const workload::ScenarioResult ron = workload::run_scenario(on);
  const workload::ScenarioResult roff = workload::run_scenario(off);
  EXPECT_LT(ron.peak_live_flows, roff.peak_live_flows);
  EXPECT_EQ(ron.data_packets_sent, roff.data_packets_sent);
  EXPECT_EQ(ron.fabric_drops, roff.fabric_drops);
  EXPECT_EQ(ron.end_time, roff.end_time);
  ASSERT_EQ(ron.records.size(), roff.records.size());
  for (std::size_t i = 0; i < ron.records.size(); ++i) {
    EXPECT_EQ(ron.records[i].id, roff.records[i].id) << i;
    EXPECT_EQ(ron.records[i].start, roff.records[i].start) << i;
    EXPECT_EQ(ron.records[i].finish, roff.records[i].finish) << i;
    EXPECT_EQ(ron.records[i].terminated, roff.records[i].terminated) << i;
  }
}

TEST(SeventhProfile, ListedInRegistryEnumeration) {
  register_tcp_droptail();
  bool found = false;
  for (const TransportProfile* p : ProfileRegistry::instance().profiles()) {
    if (p->name() == "tcp-droptail") {
      found = true;
      // Extras have no enum identity.
      EXPECT_FALSE(p->protocol().has_value());
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace pase
