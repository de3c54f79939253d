#include "proto/builtin_profiles.h"
#include "proto/profiles/ecn_window_profile.h"
#include "transport/d2tcp.h"

namespace pase::proto {

namespace {

class D2tcpProfile final : public EcnWindowProfile {
 public:
  std::optional<Protocol> protocol() const override {
    return Protocol::kD2tcp;
  }
  std::string_view name() const override { return "d2tcp"; }
  std::string_view display_name() const override { return "D2TCP"; }

  transport::Sender* make_sender(EndpointArena& arena, RunContext& ctx,
                                 const transport::Flow& flow,
                                 net::Host& src) const override {
    return arena.emplace<transport::D2tcpSender>(ctx.sim, src, flow,
                                                 window_options(ctx));
  }
};

}  // namespace

std::unique_ptr<TransportProfile> make_d2tcp_profile() {
  return std::make_unique<D2tcpProfile>();
}

}  // namespace pase::proto
