#include "proto/builtin_profiles.h"
#include "proto/profiles/ecn_window_profile.h"
#include "transport/dctcp.h"

namespace pase::proto {

namespace {

class DctcpProfile final : public EcnWindowProfile {
 public:
  std::optional<Protocol> protocol() const override {
    return Protocol::kDctcp;
  }
  std::string_view name() const override { return "dctcp"; }
  std::string_view display_name() const override { return "DCTCP"; }

  transport::Sender* make_sender(EndpointArena& arena, RunContext& ctx,
                                 const transport::Flow& flow,
                                 net::Host& src) const override {
    return arena.emplace<transport::DctcpSender>(ctx.sim, src, flow,
                                                 window_options(ctx));
  }
};

}  // namespace

std::unique_ptr<TransportProfile> make_dctcp_profile() {
  return std::make_unique<DctcpProfile>();
}

}  // namespace pase::proto
