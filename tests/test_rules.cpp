// Tests for the offline PTE rule checker, including the cross-validation
// property: the online monitor and the offline containment checker must
// agree (both clean, or both violated) on the same executions.
#include <gtest/gtest.h>

#include <memory>

#include "core/deployment.hpp"
#include "core/events.hpp"
#include "core/rules.hpp"
#include "net/bridge.hpp"
#include "net/star_network.hpp"

namespace ptecps::core {
namespace {

MonitorParams two_entity_params() {
  MonitorParams p;
  p.n_entities = 2;
  p.dwell_bounds = {10.0, 10.0};
  p.t_risky_min = {2.0};
  p.t_safe_min = {1.0};
  return p;
}

RiskyInterval iv(double b, double e) { return RiskyInterval{b, e, true}; }

TEST(OfflineRules, CleanNestingPasses) {
  OfflineInput in;
  in.params = two_entity_params();
  in.intervals = {{iv(1.0, 9.0)}, {iv(3.5, 7.5)}};
  in.end = 20.0;
  EXPECT_TRUE(check_pte_offline(in).empty());
}

TEST(OfflineRules, DwellBoundCaught) {
  OfflineInput in;
  in.params = two_entity_params();
  in.intervals = {{iv(0.0, 15.0)}, {iv(3.0, 5.0)}};
  in.end = 20.0;
  const auto v = check_pte_offline(in);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, PteViolationKind::kDwellBound);
  EXPECT_DOUBLE_EQ(v[0].measured, 15.0);
}

TEST(OfflineRules, OpenIntervalJudgedAtHorizon) {
  OfflineInput in;
  in.params = two_entity_params();
  in.intervals = {{RiskyInterval{0.0, 0.0, false}}, {}};
  in.end = 30.0;
  const auto v = check_pte_offline(in);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, PteViolationKind::kDwellBound);
  EXPECT_DOUBLE_EQ(v[0].measured, 30.0);
}

TEST(OfflineRules, UncoveredUpperCaught) {
  OfflineInput in;
  in.params = two_entity_params();
  in.intervals = {{iv(10.0, 18.0)}, {iv(1.0, 3.0)}};  // upper before lower
  in.end = 20.0;
  const auto v = check_pte_offline(in);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, PteViolationKind::kOrderEmbedding);
}

TEST(OfflineRules, EnterSafeguardCaught) {
  OfflineInput in;
  in.params = two_entity_params();
  in.intervals = {{iv(1.0, 9.0)}, {iv(2.0, 5.0)}};  // only 1 s spacing, need 2
  in.end = 20.0;
  const auto v = check_pte_offline(in);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, PteViolationKind::kEnterSafeguard);
  EXPECT_DOUBLE_EQ(v[0].measured, 1.0);
}

TEST(OfflineRules, LowerExitsUnderUpperCaught) {
  OfflineInput in;
  in.params = two_entity_params();
  in.intervals = {{iv(1.0, 6.0)}, {iv(3.5, 8.0)}};  // upper outlives lower
  in.end = 20.0;
  const auto v = check_pte_offline(in);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, PteViolationKind::kOrderEmbedding);
}

TEST(OfflineRules, ExitSafeguardCaught) {
  OfflineInput in;
  in.params = two_entity_params();
  in.intervals = {{iv(1.0, 8.2)}, {iv(3.5, 7.5)}};  // 0.7 s < 1 s after upper
  in.end = 20.0;
  const auto v = check_pte_offline(in);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, PteViolationKind::kExitSafeguard);
  EXPECT_NEAR(v[0].measured, 0.7, 1e-9);
}

TEST(OfflineRules, MultipleEpisodesMatchedToCorrectCovers) {
  OfflineInput in;
  in.params = two_entity_params();
  in.intervals = {{iv(1.0, 9.0), iv(20.0, 28.0)}, {iv(3.5, 7.0), iv(22.5, 26.5)}};
  in.end = 40.0;
  EXPECT_TRUE(check_pte_offline(in).empty());
}

// Cross-validation: run the pattern through lossy networks; the online
// monitor and the offline checker must agree on every execution.
class OnlineOfflineAgreement : public ::testing::TestWithParam<double> {};

TEST_P(OnlineOfflineAgreement, MonitorAndContainmentCheckerAgree) {
  const double loss = GetParam();
  const PatternConfig cfg = PatternConfig::laser_tracheotomy();
  BuiltSystem built = build_pattern_system(cfg);
  hybrid::Engine engine(std::move(built.automata));
  sim::Rng rng(static_cast<std::uint64_t>(loss * 1000) + 5);
  net::StarNetwork network(engine.scheduler(), rng, 2);
  network.configure_all([loss] { return std::make_unique<net::BernoulliLoss>(loss); },
                        net::ChannelConfig{0.001, 0.002, 0.0, 0.5});
  net::NetEventRouter router(network, engine, built.routes);
  PteMonitor monitor(MonitorParams::from_config(cfg));
  monitor.attach(engine, {0, 1, 2});
  engine.init();

  sim::Rng stim(99);
  double t = 0.0;
  while (t < 900.0) {
    t += stim.exponential(22.0);
    const std::string root =
        stim.bernoulli(0.7) ? events::cmd_request(2) : events::cmd_cancel(2);
    engine.scheduler().schedule_at(t, [&engine, root] { engine.inject(2, root); });
  }
  engine.run_until(1100.0);
  monitor.finalize(1100.0);

  OfflineInput in;
  in.params = MonitorParams::from_config(cfg);
  in.intervals = {monitor.intervals(1), monitor.intervals(2)};
  in.end = 1100.0;
  const auto offline = check_pte_offline(in);

  EXPECT_TRUE(monitor.violations().empty()) << monitor.summary();
  EXPECT_TRUE(offline.empty());
  // Agreement in the violated case is exercised via an ablated config:
  PatternConfig bad = cfg;
  bad.entities[1].t_enter_max = bad.entities[0].t_enter_max;  // break c5
  BuiltSystem bad_built = build_pattern_system(bad);
  hybrid::Engine bad_engine(std::move(bad_built.automata));
  sim::Rng rng2(7);
  net::StarNetwork net2(bad_engine.scheduler(), rng2, 2);
  net2.configure_all([] { return std::make_unique<net::PerfectLink>(); },
                     net::ChannelConfig{0.0, 0.0, 0.0, 0.5});
  net::NetEventRouter router2(net2, bad_engine, bad_built.routes);
  PteMonitor bad_monitor(MonitorParams::from_config(bad));
  bad_monitor.attach(bad_engine, {0, 1, 2});
  bad_engine.init();
  bad_engine.run_until(15.0);
  bad_engine.inject(2, events::cmd_request(2));
  bad_engine.run_until(150.0);
  bad_monitor.finalize(150.0);

  OfflineInput bad_in;
  bad_in.params = MonitorParams::from_config(bad);
  bad_in.intervals = {bad_monitor.intervals(1), bad_monitor.intervals(2)};
  bad_in.end = 150.0;
  const auto bad_offline = check_pte_offline(bad_in);
  EXPECT_FALSE(bad_monitor.violations().empty());
  EXPECT_FALSE(bad_offline.empty());
  EXPECT_EQ(bad_monitor.violation_count(PteViolationKind::kEnterSafeguard),
            bad_offline.size());
}

INSTANTIATE_TEST_SUITE_P(LossGrid, OnlineOfflineAgreement,
                         ::testing::Values(0.0, 0.15, 0.35, 0.6, 0.85));

}  // namespace
}  // namespace ptecps::core
