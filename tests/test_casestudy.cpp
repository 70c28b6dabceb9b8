// Case study integration: the laser tracheotomy wireless CPS of §V.
#include <gtest/gtest.h>

#include "casestudy/trial.hpp"
#include "casestudy/ventilator.hpp"
#include "core/compliance.hpp"
#include "core/events.hpp"
#include "hybrid/independence.hpp"
#include "hybrid/structural.hpp"
#include "hybrid/wellformed.hpp"
#include "util/digest.hpp"
#include "util/json.hpp"

namespace ptecps::casestudy {
namespace {

TEST(Ventilator, StandaloneIsSimpleAndWellFormed) {
  const hybrid::Automaton vent = make_standalone_ventilator();
  EXPECT_TRUE(hybrid::check_simple(vent).ok) << hybrid::check_simple(vent).message();
  EXPECT_TRUE(hybrid::check_wellformed(vent).ok)
      << hybrid::check_wellformed(vent).message();
}

TEST(Ventilator, DesignElaboratesParticipantAtFallBack) {
  const auto cfg = core::PatternConfig::laser_tracheotomy();
  const hybrid::Elaboration design = make_ventilator_design(cfg);
  // 6 pattern locations - Fall-Back + 2 pump locations = 7.
  EXPECT_EQ(design.automaton.num_locations(), 7u);
  EXPECT_TRUE(design.automaton.has_location("PumpOut"));
  EXPECT_TRUE(design.automaton.has_location("PumpIn"));
  EXPECT_FALSE(design.automaton.has_location("Fall-Back"));
  // Pump locations are safe (Fall-Back was safe); Risky Core and Exiting 1
  // keep their classification.
  EXPECT_FALSE(design.automaton.location(design.automaton.location_id("PumpOut")).risky);
  EXPECT_TRUE(design.automaton.location(design.automaton.location_id("Risky Core")).risky);
  // Projection maps pump locations back to Fall-Back.
  EXPECT_EQ(hybrid::project_location({design.info}, "PumpIn"), "Fall-Back");
  EXPECT_EQ(hybrid::project_location({design.info}, "Risky Core"), "Risky Core");
}

TEST(Ventilator, ComplianceTheorem2Passes) {
  const auto cfg = core::PatternConfig::laser_tracheotomy();
  const hybrid::Automaton vent = make_standalone_ventilator();
  const hybrid::Elaboration design = make_ventilator_design(cfg);
  const hybrid::Automaton supervisor = core::make_supervisor(cfg);
  const hybrid::Automaton scalpel = core::make_initializer(cfg);

  core::ComplianceInput input;
  input.config = &cfg;
  input.designs = {&supervisor, &design.automaton, &scalpel};
  input.plans.resize(3);
  input.plans[1].at.emplace_back("Fall-Back", &vent);
  const hybrid::CheckResult result = core::check_theorem2(input);
  EXPECT_TRUE(result.ok) << result.message();
}

TEST(Ventilator, ComplianceFailsForTamperedDesign) {
  const auto cfg = core::PatternConfig::laser_tracheotomy();
  const hybrid::Automaton vent = make_standalone_ventilator();
  hybrid::Automaton tampered = make_ventilator_design(cfg).automaton;
  // Check the design against a *different* configuration (shorter lease):
  // this is exactly the drift Theorem 2 compliance must catch.
  core::PatternConfig other = cfg;
  other.entities[0].t_run_max = 10.0;  // design was built with 35
  const hybrid::Automaton supervisor = core::make_supervisor(other);
  const hybrid::Automaton scalpel = core::make_initializer(other);
  core::ComplianceInput input;
  input.config = &other;
  input.designs = {&supervisor, &tampered, &scalpel};
  input.plans.resize(3);
  input.plans[1].at.emplace_back("Fall-Back", &vent);
  const hybrid::CheckResult result = core::check_theorem2(input);
  EXPECT_FALSE(result.ok);
}

TEST(Trial, CleanSessionTimeline) {
  // One surgeon request over perfect links; verify the §V/Fig. 1 shape.
  TrialOptions opt;
  opt.seed = 7;
  opt.duration = 120.0;
  opt.surgeon.mean_ton = 1e9;   // we drive requests manually
  opt.surgeon.mean_toff = 1e9;  // never cancel: leases expire
  opt.loss_factory = [] { return std::make_unique<net::PerfectLink>(); };
  LaserTracheotomySystem sys(std::move(opt));
  sys.run(14.0);  // past T^min_fb,0
  sys.engine().inject(sys.scalpel_index(), core::events::cmd_request(2));
  sys.run(120.0 - 14.0);
  TrialResult r = sys.result();
  EXPECT_EQ(r.emissions, 1u);
  EXPECT_EQ(r.failures, 0u) << sys.monitor().summary();
  EXPECT_EQ(r.evt_to_stop, 1u);  // no cancel: the lease forced the stop
  EXPECT_EQ(r.fire_events, 0u);
  EXPECT_GT(r.max_pause, 0.0);
  EXPECT_LE(r.max_pause, 60.0);
  EXPECT_LE(r.max_emission, 21.5 + 1e-9);  // T^max_run,2 + T_exit,2 (Exiting 1 is risky)
}

TEST(Trial, WithLeaseNoFailuresUnderInterference) {
  TrialOptions opt;
  opt.seed = 42;
  opt.duration = 600.0;
  opt.with_lease = true;
  TrialResult r = run_trial(opt);
  EXPECT_EQ(r.failures, 0u) << r.summary();
  EXPECT_GT(r.emissions, 0u);
  EXPECT_EQ(r.fire_events, 0u);
  EXPECT_GT(r.network.lost, 0u);  // interference was actually present
}

TEST(Trial, WithoutLeaseFailsUnderInterference) {
  TrialOptions opt;
  opt.seed = 42;
  opt.duration = 1800.0;
  opt.with_lease = false;
  TrialResult r = run_trial(opt);
  EXPECT_GT(r.failures, 0u) << r.summary();
  EXPECT_EQ(r.evt_to_stop, 0u);  // no lease timers -> no forced stops
}

TEST(Trial, DeterministicForFixedSeed) {
  TrialOptions opt;
  opt.seed = 99;
  opt.duration = 300.0;
  TrialResult a = run_trial(opt);
  TrialResult b = run_trial(opt);
  EXPECT_EQ(a.emissions, b.emissions);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.evt_to_stop, b.evt_to_stop);
  EXPECT_EQ(a.network.sent, b.network.sent);
  EXPECT_DOUBLE_EQ(a.min_spo2, b.min_spo2);
}

TEST(Trial, PerfectLinksManySessionsAllSafe) {
  TrialOptions opt;
  opt.seed = 3;
  opt.duration = 900.0;
  opt.loss_factory = [] { return std::make_unique<net::PerfectLink>(); };
  TrialResult r = run_trial(opt);
  EXPECT_EQ(r.failures, 0u) << r.summary();
  EXPECT_GE(r.emissions, 5u);
  EXPECT_EQ(r.fire_events, 0u);
}

TEST(Trial, TransitionTimesArePinned) {
  // Every location change of four trials (lease on/off x elaborated/bare
  // ventilator), with its instant, plus each trial's Table I summary.  The
  // elaborated ventilator's pump is the one automaton here with non-unit
  // rates and location invariants, so a shift in any crossing the engine
  // solves moves this digest even where the Table I counts stay put.
  util::Json trials = util::Json::array();
  for (const bool lease : {true, false}) {
    for (const bool elaborate : {true, false}) {
      TrialOptions opt;
      opt.seed = 1;
      opt.duration = 600.0;
      opt.with_lease = lease;
      opt.elaborate_ventilator = elaborate;
      opt.record_trace = true;
      LaserTracheotomySystem sys(opt);
      sys.run(opt.duration);
      util::Json transitions = util::Json::array();
      for (const hybrid::TraceRecord& r : sys.engine().trace().records()) {
        if (r.kind == hybrid::TraceKind::kTransition)
          transitions.push_back(util::Json::Array{r.t, r.automaton, r.to});
      }
      util::Json trial = util::Json::object();
      trial.set("summary", sys.result().summary());
      trial.set("transitions", std::move(transitions));
      trials.push_back(std::move(trial));
    }
  }
  EXPECT_EQ(util::Sha256::hex(trials.dump_canonical()),
            "bbaa1b52b19b59fb76326eb93571c9391db0505f20f7f04952b43d7abf342ad2");
}

}  // namespace
}  // namespace ptecps::casestudy
