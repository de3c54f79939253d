#include "proto/builtin_profiles.h"
#include "proto/profiles/ecn_window_profile.h"
#include "transport/l2dct.h"

namespace pase::proto {

namespace {

class L2dctProfile final : public EcnWindowProfile {
 public:
  std::optional<Protocol> protocol() const override {
    return Protocol::kL2dct;
  }
  std::string_view name() const override { return "l2dct"; }
  std::string_view display_name() const override { return "L2DCT"; }

  transport::Sender* make_sender(EndpointArena& arena, RunContext& ctx,
                                 const transport::Flow& flow,
                                 net::Host& src) const override {
    return arena.emplace<transport::L2dctSender>(ctx.sim, src, flow,
                                                 window_options(ctx));
  }
};

}  // namespace

std::unique_ptr<TransportProfile> make_l2dct_profile() {
  return std::make_unique<L2dctProfile>();
}

}  // namespace pase::proto
