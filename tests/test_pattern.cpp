// Integration tests of the lease design pattern automata (§IV-A) driven
// through the wireless substrate: the protocol happy path, cancellation,
// abort, timeout unwinding, and lease expiry under total message loss.
#include <gtest/gtest.h>

#include <memory>

#include "core/config.hpp"
#include "core/deployment.hpp"
#include "core/events.hpp"
#include "core/monitor.hpp"
#include "core/synthesis.hpp"
#include "net/bridge.hpp"
#include "net/star_network.hpp"

namespace ptecps::core {
namespace {

namespace ev = events;

/// Harness: pattern system + star network with configurable loss.
struct PatternHarness {
  PatternConfig config;
  sim::Rng rng{12345};
  std::unique_ptr<hybrid::Engine> engine;
  std::unique_ptr<net::StarNetwork> network;
  std::unique_ptr<net::NetEventRouter> router;
  std::unique_ptr<PteMonitor> monitor;
  std::size_t n;

  explicit PatternHarness(PatternConfig cfg, bool with_lease = true,
                          net::StarNetwork::LossFactory loss = {},
                          net::ChannelConfig channel = net::ChannelConfig{0.0, 0.0, 0.0, 0.5})
      : config(std::move(cfg)), n(config.n_remotes) {
    BuiltSystem built = build_pattern_system(config, ApprovalSpec{}, with_lease);
    engine = std::make_unique<hybrid::Engine>(std::move(built.automata));
    network = std::make_unique<net::StarNetwork>(engine->scheduler(), rng, n);
    net::StarNetwork::LossFactory factory =
        loss ? std::move(loss)
             : net::StarNetwork::LossFactory(
                   [] { return std::make_unique<net::PerfectLink>(); });
    network->configure_all(factory, channel);
    router = std::make_unique<net::NetEventRouter>(*network, *engine, built.routes);
    monitor = std::make_unique<PteMonitor>(MonitorParams::from_config(config));
    std::vector<std::size_t> entity_of(n + 1);
    for (std::size_t i = 0; i <= n; ++i) entity_of[i] = i;
    monitor->attach(*engine, entity_of);
    engine->init();
  }

  std::string loc(std::size_t automaton) const {
    return engine->current_location_name(automaton);
  }
  void request() { engine->inject(n, ev::cmd_request(n)); }
  void cancel() { engine->inject(n, ev::cmd_cancel(n)); }
  void run_to(double t) { engine->run_until(t); }
  void kill_all_links() {
    for (net::EntityId r = 1; r <= n; ++r) {
      network->uplink(r).set_loss_model(std::make_unique<net::BernoulliLoss>(1.0));
      network->downlink(r).set_loss_model(std::make_unique<net::BernoulliLoss>(1.0));
    }
  }
};

TEST(Pattern, HappyPathLeasesInOrderAndExpiresSafely) {
  PatternHarness h(PatternConfig::laser_tracheotomy());
  h.run_to(15.0);  // supervisor Fall-Back dwell (13 s) satisfied
  h.request();
  h.run_to(15.0);  // drain the zero-delay delivery cascade
  // Chain at t=15 (zero-delay links): req -> Lease xi1 -> LeaseReq(1) ->
  // participant L0 -> approve -> Lease xi2 -> Approve(2) -> Entering.
  EXPECT_EQ(h.loc(0), "Lease xi2");
  EXPECT_EQ(h.loc(1), "Entering");
  EXPECT_EQ(h.loc(2), "Entering");

  // Participant risky at 15+3; initializer at 15+10 (c5 spacing >= 3 s).
  h.run_to(18.5);
  EXPECT_EQ(h.loc(1), "Risky Core");
  EXPECT_EQ(h.loc(2), "Entering");
  h.run_to(25.5);
  EXPECT_EQ(h.loc(2), "Risky Core");

  // Let every lease expire (no cancel): the initializer stops at
  // 15+10+20=45, exits by 46.5; the participant expires at 15+3+35=53,
  // exits by 59; the supervisor unwinds to Fall-Back.
  h.run_to(120.0);
  EXPECT_EQ(h.loc(0), "Fall-Back");
  EXPECT_EQ(h.loc(1), "Fall-Back");
  EXPECT_EQ(h.loc(2), "Fall-Back");
  h.monitor->finalize(120.0);
  EXPECT_TRUE(h.monitor->violations().empty()) << h.monitor->summary();
  EXPECT_EQ(h.monitor->episodes(1), 1u);
  EXPECT_EQ(h.monitor->episodes(2), 1u);

  // Enter-risky safeguard: xi2 entered >= 3 s after xi1.
  const auto& i1 = h.monitor->intervals(1)[0];
  const auto& i2 = h.monitor->intervals(2)[0];
  EXPECT_GE(i2.begin - i1.begin, h.config.t_risky_min_between(1) - 1e-9);
  // Exit-risky safeguard: xi1 exited >= 1.5 s after xi2.
  EXPECT_GE(i1.end - i2.end, h.config.t_safe_min_between(1) - 1e-9);
  // Rule 1: dwell bounds.
  EXPECT_LE(i1.duration(), h.config.risky_dwell_bound() + 1e-9);
  EXPECT_LE(i2.duration(), h.config.risky_dwell_bound() + 1e-9);
}

TEST(Pattern, SurgeonCancelUnwindsInReverseOrder) {
  PatternHarness h(PatternConfig::laser_tracheotomy());
  h.run_to(15.0);
  h.request();
  h.run_to(30.0);  // both risky (xi2 entered at 25)
  ASSERT_EQ(h.loc(2), "Risky Core");
  h.cancel();
  // The initializer exits locally at once, Exiting 1 for 1.5 s.
  EXPECT_EQ(h.loc(2), "Exiting 1");
  h.run_to(31.6);
  EXPECT_EQ(h.loc(2), "Fall-Back");
  // Supervisor received CancelReq then Exit(2) and cancelled xi1.
  h.run_to(32.0);
  EXPECT_EQ(h.loc(1), "Exiting 1");
  h.run_to(45.0);
  EXPECT_EQ(h.loc(0), "Fall-Back");
  EXPECT_EQ(h.loc(1), "Fall-Back");
  h.monitor->finalize(45.0);
  EXPECT_TRUE(h.monitor->violations().empty()) << h.monitor->summary();
}

TEST(Pattern, AbortOnApprovalConditionViolation) {
  PatternHarness h(PatternConfig::laser_tracheotomy());
  h.run_to(15.0);
  h.request();
  h.run_to(30.0);
  ASSERT_EQ(h.loc(2), "Risky Core");
  // ApprovalCondition fails (e.g. SpO2 below threshold).
  h.engine->set_var(0, h.engine->automaton(0).var_id("approval_val"), 0.0);
  EXPECT_EQ(h.loc(0), "Abort Lease xi2");
  h.run_to(30.1);
  EXPECT_EQ(h.loc(2), "Exiting 1");
  h.run_to(60.0);
  EXPECT_EQ(h.loc(0), "Fall-Back");
  EXPECT_EQ(h.loc(1), "Fall-Back");
  EXPECT_EQ(h.loc(2), "Fall-Back");
  h.monitor->finalize(60.0);
  EXPECT_TRUE(h.monitor->violations().empty()) << h.monitor->summary();
}

TEST(Pattern, RequestTimesOutWhenEverythingIsLost) {
  auto total_loss = [] {
    return std::unique_ptr<net::LossModel>(std::make_unique<net::BernoulliLoss>(1.0));
  };
  PatternHarness h(PatternConfig::laser_tracheotomy(), true, total_loss);
  h.run_to(20.0);
  h.request();
  EXPECT_EQ(h.loc(2), "Requesting");
  EXPECT_EQ(h.loc(0), "Fall-Back");  // req lost
  h.run_to(26.0);                    // T^max_req,2 = 5 s
  EXPECT_EQ(h.loc(2), "Fall-Back");
  h.monitor->finalize(26.0);
  EXPECT_TRUE(h.monitor->violations().empty());
  EXPECT_EQ(h.monitor->episodes(2), 0u);
}

TEST(Pattern, LeaseExpiryProtectsWhenCancelAndAbortAreLost) {
  // Deliver the session-establishing messages, then lose everything:
  // cancel/abort/exit all vanish.  Leases must still restore Fall-Back
  // with zero PTE violations (Theorem 1 under arbitrary loss).
  PatternHarness h(PatternConfig::laser_tracheotomy());
  h.run_to(15.0);
  h.request();
  h.run_to(26.0);
  ASSERT_EQ(h.loc(2), "Risky Core");
  h.kill_all_links();
  h.cancel();  // the local laser stop works; CancelReq(2) to xi0 is lost
  EXPECT_EQ(h.loc(2), "Exiting 1");
  h.run_to(180.0);
  // Everyone recovered autonomously.
  EXPECT_EQ(h.loc(0), "Fall-Back");
  EXPECT_EQ(h.loc(1), "Fall-Back");
  EXPECT_EQ(h.loc(2), "Fall-Back");
  h.monitor->finalize(180.0);
  EXPECT_TRUE(h.monitor->violations().empty()) << h.monitor->summary();
}

TEST(Pattern, WithoutLeaseStuckRiskyWhenCancelLost) {
  // The §V baseline: no entity lease timers.  Lose all wireless traffic
  // after the session forms: the ventilator-participant never leaves
  // Risky Core within the dwell bound -> Rule 1 violation.
  PatternHarness h(PatternConfig::laser_tracheotomy(), /*with_lease=*/false);
  h.run_to(15.0);
  h.request();
  h.run_to(26.0);
  ASSERT_EQ(h.loc(2), "Risky Core");
  h.kill_all_links();
  h.cancel();
  h.run_to(300.0);
  EXPECT_EQ(h.loc(1), "Risky Core");  // stuck: no lease, no reachable cancel
  h.monitor->finalize(300.0);
  EXPECT_FALSE(h.monitor->violations().empty());
  EXPECT_GE(h.monitor->violation_count(PteViolationKind::kDwellBound), 1u);
}

TEST(Pattern, FourEntityChainMaintainsFullOrdering) {
  // N=4 synthesized configuration: the pattern is not hard-wired to the
  // case study's N=2.
  SynthesisRequest req;
  req.n_remotes = 4;
  req.t_risky_min = {1.0, 2.0, 0.5};
  req.t_safe_min = {0.5, 1.0, 0.25};
  req.initializer_lease = 10.0;
  req.t_wait_max = 1.0;
  req.t_fb_min_0 = 2.0;
  req.delivery_slack = 0.05;
  PatternConfig cfg = synthesize(req);

  PatternHarness h(cfg);
  h.run_to(5.0);
  h.request();
  h.run_to(405.0);
  EXPECT_EQ(h.loc(0), "Fall-Back");
  for (std::size_t i = 1; i <= 4; ++i) EXPECT_EQ(h.loc(i), "Fall-Back") << "entity " << i;
  h.monitor->finalize(405.0);
  EXPECT_TRUE(h.monitor->violations().empty()) << h.monitor->summary();
  for (std::size_t i = 1; i <= 4; ++i)
    EXPECT_EQ(h.monitor->episodes(i), 1u) << "entity " << i;
}

TEST(Pattern, ParticipationDenyReturnsEveryoneToFallBack) {
  PatternHarness h(PatternConfig::laser_tracheotomy());
  // Participant denies (ParticipationCondition false).
  h.engine->set_var(1, h.engine->automaton(1).var_id("participation_val"), 0.0);
  h.run_to(15.0);
  h.request();
  // Denial unwinds immediately: supervisor back to Fall-Back, initializer
  // still Requesting until its timeout.
  EXPECT_EQ(h.loc(0), "Fall-Back");
  EXPECT_EQ(h.loc(1), "Fall-Back");
  h.run_to(21.0);
  EXPECT_EQ(h.loc(2), "Fall-Back");
  h.monitor->finalize(21.0);
  EXPECT_TRUE(h.monitor->violations().empty());
  EXPECT_EQ(h.monitor->episodes(1), 0u);
  EXPECT_EQ(h.monitor->episodes(2), 0u);
}

TEST(Pattern, SupervisorRequiresFallBackDwellBeforeLeasing) {
  PatternHarness h(PatternConfig::laser_tracheotomy());
  h.run_to(5.0);  // below T^min_fb,0 = 13
  h.request();
  EXPECT_EQ(h.loc(0), "Fall-Back");    // request ignored
  EXPECT_EQ(h.loc(2), "Requesting");   // initializer waits, then gives up
  h.run_to(11.0);
  EXPECT_EQ(h.loc(2), "Fall-Back");
  h.monitor->finalize(11.0);
  EXPECT_TRUE(h.monitor->violations().empty());
}

}  // namespace
}  // namespace ptecps::core
