// Unit + behavioral tests for the elaboration calculus (§IV-C):
// independence (Def. 2), simple automata (Def. 3), atomic & parallel
// elaboration, projection, verification — and the semantic guarantees
// (parent flow inside the child, child variables frozen outside).
#include <gtest/gtest.h>

#include "casestudy/ventilator.hpp"
#include "core/deployment.hpp"
#include "core/events.hpp"
#include "core/monitor.hpp"
#include "hybrid/elaboration.hpp"
#include "hybrid/engine.hpp"
#include "hybrid/independence.hpp"
#include "hybrid/structural.hpp"
#include "net/bridge.hpp"
#include "net/star_network.hpp"

namespace ptecps::hybrid {
namespace {

/// A simple one-location child with a ramping variable.
Automaton make_ramp_child(const std::string& name, const std::string& var) {
  Automaton a(name);
  const VarId v = a.add_var(var, 0.0);
  const LocId s = a.add_location(name + "_run");
  a.set_flow(s, Flow{}.rate(v, 1.0));
  a.add_initial_location(s);
  a.set_initial_data(InitialData::kAnyInInvariant);
  return a;
}

/// Parent: Idle --(?go)--> Busy --(dwell 5)--> Idle, one variable p
/// ramping in Busy.
Automaton make_parent() {
  Automaton a("parent");
  const VarId p = a.add_var("p", 0.0);
  const LocId idle = a.add_location("Idle");
  const LocId busy = a.add_location("Busy", /*risky=*/true);
  a.set_flow(busy, Flow{}.rate(p, 2.0));
  a.add_initial_location(idle);
  Edge go;
  go.src = idle;
  go.dst = busy;
  go.kind = TriggerKind::kEvent;
  go.trigger = SyncLabel::recv("go");
  a.add_edge(std::move(go));
  Edge back;
  back.src = busy;
  back.dst = idle;
  back.kind = TriggerKind::kTimed;
  back.dwell = 5.0;
  a.add_edge(std::move(back));
  return a;
}

TEST(Independence, SharedVariableDetected) {
  Automaton a("a");
  a.add_var("x");
  a.add_location("la");
  a.add_initial_location(0);
  Automaton b("b");
  b.add_var("x");
  b.add_location("lb");
  b.add_initial_location(0);
  const CheckResult r = check_independent(a, b);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.message().find("shared data state variable 'x'"), std::string::npos);
}

TEST(Independence, SharedLocationDetected) {
  Automaton a("a");
  a.add_location("same");
  a.add_initial_location(0);
  Automaton b("b");
  b.add_location("same");
  b.add_initial_location(0);
  EXPECT_FALSE(check_independent(a, b).ok);
}

TEST(Independence, SharedEventRootDetected) {
  Automaton a("a");
  {
    a.add_location("la0");
    a.add_location("la1");
    a.add_initial_location(0);
    Edge e;
    e.src = 0;
    e.dst = 1;
    e.kind = TriggerKind::kTimed;
    e.dwell = 1.0;
    e.emits.push_back(SyncLabel::send("evt"));
    a.add_edge(std::move(e));
  }
  Automaton b("b");
  {
    b.add_location("lb0");
    b.add_location("lb1");
    b.add_initial_location(0);
    Edge e;
    e.src = 0;
    e.dst = 1;
    e.kind = TriggerKind::kEvent;
    e.trigger = SyncLabel::recv("evt");
    b.add_edge(std::move(e));
  }
  // Sender vs receiver of the same root: distinct labels (literal Def. 2)
  // but coupled — the default root comparison rejects them.
  EXPECT_FALSE(check_independent(a, b).ok);
  EXPECT_TRUE(check_independent(a, b, /*compare_roots=*/false).ok);
}

TEST(Independence, MutualChecksAllPairs) {
  Automaton a("a"), b("b"), c("c");
  a.add_var("x");
  b.add_var("y");
  c.add_var("x");  // collides with a
  for (Automaton* m : {&a, &b, &c}) {
    m->add_location(m->name() + "_l");
    m->add_initial_location(0);
  }
  EXPECT_TRUE(check_independent(a, b).ok);
  EXPECT_FALSE(check_mutually_independent({&a, &b, &c}).ok);
}

TEST(Simple, UniformInvariantRequired) {
  Automaton a("s");
  a.add_var("x");
  const LocId l0 = a.add_location("l0");
  a.add_location("l1");
  a.set_invariant(l0, Guard{atmost(0, 1.0)});
  a.add_initial_location(l0);
  a.set_initial_data(InitialData::kAnyInInvariant);
  EXPECT_FALSE(check_simple(a).ok);
}

TEST(Simple, ZeroStateMustSatisfyInvariant) {
  Automaton a("s");
  a.add_var("x");
  const LocId l0 = a.add_location("l0");
  a.set_invariant(l0, Guard{atleast(0, 1.0)});  // 0 violates x >= 1
  a.add_initial_location(l0);
  a.set_initial_data(InitialData::kAnyInInvariant);
  const CheckResult r = check_simple(a);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.message().find("zero data state"), std::string::npos);
}

TEST(Simple, InitialDataPolicyRequired) {
  Automaton a("s");
  a.add_location("l0");
  a.add_initial_location(0);
  a.set_initial_data(InitialData::kZero);
  EXPECT_FALSE(check_simple(a).ok);
  a.set_initial_data(InitialData::kAnyInInvariant);
  EXPECT_TRUE(check_simple(a).ok);
}

TEST(Elaborate, StructureOfAtomicElaboration) {
  const Automaton parent = make_parent();
  const Automaton child = make_ramp_child("child", "c");
  const Elaboration e = elaborate(parent, "Idle", child);

  // Locations: {Busy} ∪ {child_run}; variables: p then c.
  EXPECT_EQ(e.automaton.num_locations(), 2u);
  EXPECT_TRUE(e.automaton.has_location("Busy"));
  EXPECT_TRUE(e.automaton.has_location("child_run"));
  EXPECT_EQ(e.automaton.num_vars(), 2u);
  EXPECT_EQ(e.automaton.var_name(0), "p");
  EXPECT_EQ(e.automaton.var_name(1), "c");
  // Initial location: the child's initial (Idle was initial).
  ASSERT_EQ(e.automaton.initial_locations().size(), 1u);
  EXPECT_EQ(e.automaton.location(e.automaton.initial_locations()[0]).name, "child_run");
  // Child location inherits Idle's safe classification.
  EXPECT_FALSE(e.automaton.location(e.automaton.location_id("child_run")).risky);
  // Info captured.
  EXPECT_EQ(e.info.elaborated_location, "Idle");
  EXPECT_EQ(e.info.var_offset, 1u);
  EXPECT_EQ(e.info.child_var_count, 1u);
}

TEST(Elaborate, FreezeOutsideAndParentFlowInside) {
  // Behavioral check of intuitions 4 and 5 of §IV-C.
  const Automaton parent = make_parent();
  const Automaton child = make_ramp_child("child", "c");
  Elaboration e = elaborate(parent, "Idle", child);

  Engine engine({std::move(e.automaton)});
  engine.init();
  const VarId p = engine.automaton(0).var_id("p");
  const VarId c = engine.automaton(0).var_id("c");

  engine.run_until(3.0);  // inside the child: c ramps at 1, p frozen (Idle had no flow)
  EXPECT_NEAR(engine.var(0, c), 3.0, 1e-9);
  EXPECT_NEAR(engine.var(0, p), 0.0, 1e-9);

  engine.inject(0, "go");  // into Busy for 5 s: p ramps at 2, c frozen
  engine.run_until(8.0);
  EXPECT_NEAR(engine.var(0, c), 3.0, 1e-9);   // frozen outside the child
  EXPECT_NEAR(engine.var(0, p), 10.0, 1e-9);  // 5 s at rate 2

  engine.run_until(10.0);  // back in the child (timed return at t=8)
  EXPECT_NEAR(engine.var(0, c), 5.0, 1e-9);   // continued from 3
}

TEST(Elaborate, TimedEgressGetsAccumulatingClock) {
  // Elaborating a location with timed egress introduces a dwell clock
  // that accumulates across child locations and resets on ingress.
  Automaton parent("p2");
  const LocId work = parent.add_location("Work");
  const LocId rest = parent.add_location("Rest");
  parent.add_initial_location(work);
  Edge tick;
  tick.src = work;
  tick.dst = rest;
  tick.kind = TriggerKind::kTimed;
  tick.dwell = 4.0;
  parent.add_edge(std::move(tick));
  Edge back;
  back.src = rest;
  back.dst = work;
  back.kind = TriggerKind::kTimed;
  back.dwell = 1.0;
  parent.add_edge(std::move(back));

  const Automaton child = casestudy::make_standalone_ventilator();
  Elaboration e = elaborate(parent, "Work", child);
  ASSERT_TRUE(e.info.dwell_clock.has_value());

  Engine engine({std::move(e.automaton)});
  engine.init();
  // The pump saws inside "Work" (several internal transitions), but the
  // egress to Rest still happens exactly at t = 4.
  engine.run_until(3.99);
  EXPECT_TRUE(engine.current_location_name(0) == "PumpIn" ||
              engine.current_location_name(0) == "PumpOut");
  engine.run_until(4.01);
  EXPECT_EQ(engine.current_location_name(0), "Rest");
  // Returns at t = 5, leaves again at t = 9 (clock was reset on ingress).
  engine.run_until(9.01);
  EXPECT_EQ(engine.current_location_name(0), "Rest");
}

TEST(Elaborate, PreconditionsEnforced) {
  const Automaton parent = make_parent();
  Automaton not_simple("ns");
  not_simple.add_var("q");
  not_simple.add_location("ns_l");
  not_simple.add_initial_location(0);  // InitialData::kZero -> not simple
  EXPECT_THROW(elaborate(parent, "Idle", not_simple), std::invalid_argument);

  Automaton collides = make_ramp_child("clash", "p");  // shares var "p"
  EXPECT_THROW(elaborate(parent, "Idle", collides), std::invalid_argument);

  const Automaton child = make_ramp_child("child", "c");
  EXPECT_THROW(elaborate(parent, "NoSuchLocation", child), std::invalid_argument);
}

TEST(Elaborate, ParallelElaborationAtTwoLocations) {
  const Automaton parent = make_parent();
  const Automaton c1 = make_ramp_child("one", "u");
  const Automaton c2 = make_ramp_child("two", "w");
  const ParallelElaboration pe = elaborate_parallel(parent, {"Idle", "Busy"}, {&c1, &c2});
  EXPECT_EQ(pe.automaton.num_locations(), 2u);  // one_run, two_run
  EXPECT_TRUE(pe.automaton.has_location("one_run"));
  EXPECT_TRUE(pe.automaton.has_location("two_run"));
  EXPECT_EQ(pe.steps.size(), 2u);
  // Busy was risky: its child inherits.
  EXPECT_TRUE(pe.automaton.location(pe.automaton.location_id("two_run")).risky);
  // Projection composes across steps.
  EXPECT_EQ(project_location(pe.steps, "one_run"), "Idle");
  EXPECT_EQ(project_location(pe.steps, "two_run"), "Busy");

  EXPECT_THROW(elaborate_parallel(parent, {"Idle", "Idle"}, {&c1, &c2}),
               std::invalid_argument);
}

// Theorem 2, behaviorally, at an arbitrary location: elaborating the
// Participant at any of its locations (parameterized) preserves the PTE
// guarantee under loss — children inherit the location's risky
// classification, so the monitor's judgement is unchanged.
class ElaborateAnywhere : public ::testing::TestWithParam<const char*> {};

TEST_P(ElaborateAnywhere, PatternSafetySurvivesElaboration) {
  const std::string at = GetParam();
  const auto cfg = ptecps::core::PatternConfig::laser_tracheotomy();
  ptecps::core::BuiltSystem built = ptecps::core::build_pattern_system(cfg);
  // A simple child: an actuator servo dithering between two setpoints.
  Automaton servo("servo");
  const VarId pos = servo.add_var("servo_pos", 0.0);
  const LocId up = servo.add_location("ServoUp");
  const LocId down = servo.add_location("ServoDown");
  const Guard range{std::vector<LinearConstraint>{atleast(pos, 0.0), atmost(pos, 1.0)}};
  servo.set_invariant(up, range);
  servo.set_invariant(down, range);
  servo.set_flow(up, Flow{}.rate(pos, 0.5));
  servo.set_flow(down, Flow{}.rate(pos, -0.5));
  Edge top;
  top.src = up;
  top.dst = down;
  top.kind = TriggerKind::kCondition;
  top.guard = Guard{atleast(pos, 1.0)};
  servo.add_edge(std::move(top));
  Edge bottom;
  bottom.src = down;
  bottom.dst = up;
  bottom.kind = TriggerKind::kCondition;
  bottom.guard = Guard{atmost(pos, 0.0)};
  servo.add_edge(std::move(bottom));
  servo.add_initial_location(up);
  servo.set_initial_data(InitialData::kAnyInInvariant);

  const bool was_risky =
      built.automata[1].location(built.automata[1].location_id(at)).risky;
  Elaboration design = elaborate(built.automata[1], at, servo);
  // Children inherit the elaborated location's classification.
  EXPECT_EQ(design.automaton.location(design.automaton.location_id("ServoUp")).risky,
            was_risky);
  built.automata[1] = std::move(design.automaton);

  Engine engine(std::move(built.automata));
  sim::Rng rng(19);
  ptecps::net::StarNetwork network(engine.scheduler(), rng, 2);
  network.configure_all(
      [] { return std::make_unique<ptecps::net::BernoulliLoss>(0.3); },
      ptecps::net::ChannelConfig{0.001, 0.002, 0.0, 0.5});
  ptecps::net::NetEventRouter router(network, built.automaton_of_entity);
  for (const auto& r : built.wireless_routes)
    router.add_route(r.root, r.src, r.dst, ptecps::net::Transport::kWireless);
  engine.set_router(&router);
  router.attach(engine);
  ptecps::core::PteMonitor monitor(ptecps::core::MonitorParams::from_config(cfg));
  monitor.attach(engine, {0, 1, 2});
  engine.init();

  sim::Rng stim(23);
  double t = 0.0;
  while (t < 600.0) {
    t += stim.exponential(25.0);
    engine.scheduler().schedule_at(t, [&engine] {
      engine.inject(2, ptecps::core::events::cmd_request(2));
    });
  }
  engine.run_until(800.0);
  monitor.finalize(800.0);
  EXPECT_TRUE(monitor.violations().empty()) << "elaborated at '" << at << "'\n"
                                            << monitor.summary();
}

INSTANTIATE_TEST_SUITE_P(Locations, ElaborateAnywhere,
                         ::testing::Values("Fall-Back", "Entering", "Risky Core",
                                           "Exiting 1", "Exiting 2"));

TEST(Elaborate, VerifyElaborationAcceptsAndRejects) {
  const Automaton parent = make_parent();
  const Automaton child = make_ramp_child("child", "c");
  Elaboration e = elaborate(parent, "Idle", child);
  EXPECT_TRUE(verify_elaboration(e.automaton, parent, "Idle", child).ok);

  // Tamper: change the timed dwell.
  Automaton tampered = e.automaton;
  // Rebuild with a different parent to get a mismatch.
  Automaton parent2 = make_parent();
  // (modify by re-elaborating at the other location)
  const Elaboration other = elaborate(parent2, "Busy", child);
  EXPECT_FALSE(verify_elaboration(other.automaton, parent, "Idle", child).ok);
}

}  // namespace
}  // namespace ptecps::hybrid
