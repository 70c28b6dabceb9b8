#include "core/deployment.hpp"

#include "core/events.hpp"
#include "util/require.hpp"

namespace ptecps::core {

BuiltSystem build_pattern_system(const PatternConfig& config, const ApprovalSpec& approval,
                                 bool with_lease, bool deadline_wait) {
  const std::size_t n = config.n_remotes;
  PTE_REQUIRE(n >= 2, "the design pattern requires N >= 2");

  BuiltSystem sys;
  sys.automata.push_back(make_supervisor(config, approval, with_lease, deadline_wait));
  for (std::size_t i = 1; i < n; ++i)
    sys.automata.push_back(make_participant(config, i, ParticipationSpec{}, with_lease));
  sys.automata.push_back(make_initializer(config, with_lease));

  auto up = [&sys](const std::string& root, std::size_t i) {
    sys.routes.push_back(net::Route{root, static_cast<net::EntityId>(i), net::kBaseStation});
  };
  auto down = [&sys](const std::string& root, std::size_t i) {
    sys.routes.push_back(net::Route{root, net::kBaseStation, static_cast<net::EntityId>(i)});
  };

  for (std::size_t i = 1; i < n; ++i) {
    down(events::lease_req(i), i);
    up(events::lease_approve(i), i);
    up(events::lease_deny(i), i);
  }
  for (std::size_t i = 1; i <= n; ++i) {
    down(events::cancel(i), i);
    down(events::abort_lease(i), i);
    up(events::exit(i), i);
  }
  up(events::req(n), n);
  up(events::cancel_req(n), n);
  down(events::approve(n), n);

  return sys;
}

}  // namespace ptecps::core
