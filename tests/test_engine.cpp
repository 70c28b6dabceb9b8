// Execution-engine semantics: timed edges, event edges, exact
// condition-edge crossings, cascades, resets, invariants, samplers and
// deterministic tie-breaking.
#include <gtest/gtest.h>

#include "hybrid/automaton.hpp"
#include "hybrid/engine.hpp"
#include "hybrid/trace.hpp"

namespace ptecps::hybrid {
namespace {

// -- helpers ---------------------------------------------------------------

Automaton two_state_timer(double dwell) {
  Automaton a("timer");
  const LocId s0 = a.add_location("s0");
  const LocId s1 = a.add_location("s1");
  Edge e;
  e.src = s0;
  e.dst = s1;
  e.kind = TriggerKind::kTimed;
  e.dwell = dwell;
  a.add_edge(std::move(e));
  a.add_initial_location(s0);
  return a;
}

TEST(Engine, TimedEdgeFiresExactlyAtDwell) {
  Engine engine({two_state_timer(2.5)});
  engine.init();
  engine.run_until(2.4999);
  EXPECT_EQ(engine.current_location_name(0), "s0");
  engine.run_until(2.5001);
  EXPECT_EQ(engine.current_location_name(0), "s1");
  EXPECT_DOUBLE_EQ(engine.location_entry_time(0), 2.5);
}

TEST(Engine, TimedEdgeCancelledWhenLocationLeftEarly) {
  Automaton a("t");
  const LocId s0 = a.add_location("s0");
  const LocId s1 = a.add_location("s1");
  const LocId s2 = a.add_location("s2");
  Edge slow;
  slow.src = s0;
  slow.dst = s2;
  slow.kind = TriggerKind::kTimed;
  slow.dwell = 10.0;
  a.add_edge(std::move(slow));
  Edge ev;
  ev.src = s0;
  ev.dst = s1;
  ev.kind = TriggerKind::kEvent;
  ev.trigger = SyncLabel::recv("go");
  a.add_edge(std::move(ev));
  a.add_initial_location(s0);

  Engine engine({std::move(a)});
  engine.init();
  engine.run_until(1.0);
  EXPECT_TRUE(engine.inject(0, "go"));
  engine.run_until(20.0);
  EXPECT_EQ(engine.current_location_name(0), "s1");  // stale timeout ignored
}

TEST(Engine, EventIgnoredWhenNoEnabledEdge) {
  Engine engine({two_state_timer(1.0)});
  engine.init();
  EXPECT_FALSE(engine.inject(0, "nonexistent"));
  const auto ignored = engine.trace().filter(TraceKind::kIgnoredEvent);
  ASSERT_EQ(ignored.size(), 1u);
  EXPECT_EQ(ignored[0].detail, "nonexistent");
}

TEST(Engine, ConstantRateCrossingIsExact) {
  // x starts at 0, rate 2; condition edge at x >= 5 must fire at t = 2.5.
  Automaton a("ramp");
  const VarId x = a.add_var("x", 0.0);
  const LocId s0 = a.add_location("s0");
  const LocId s1 = a.add_location("s1");
  a.set_flow(s0, Flow{}.rate(x, 2.0));
  Edge e;
  e.src = s0;
  e.dst = s1;
  e.kind = TriggerKind::kCondition;
  e.guard = Guard{atleast(x, 5.0)};
  a.add_edge(std::move(e));
  a.add_initial_location(s0);

  Engine engine({std::move(a)});
  engine.init();
  engine.run_until(10.0);
  EXPECT_EQ(engine.current_location_name(0), "s1");
  EXPECT_NEAR(engine.location_entry_time(0), 2.5, 1e-9);
  EXPECT_NEAR(engine.var(0, static_cast<VarId>(0)), 5.0, 1e-9);
}

TEST(Engine, VentilatorSawtoothHasPeriodSix) {
  // Fig. 2 dynamics: 0.3 m at 0.1 m/s each way -> 6 s period.
  Automaton a("vent");
  const VarId h = a.add_var("H", 0.0);
  const LocId out = a.add_location("PumpOut");
  const LocId in = a.add_location("PumpIn");
  a.set_flow(out, Flow{}.rate(h, -0.1));
  a.set_flow(in, Flow{}.rate(h, 0.1));
  Edge down;
  down.src = out;
  down.dst = in;
  down.kind = TriggerKind::kCondition;
  down.guard = Guard{atmost(h, 0.0)};
  a.add_edge(std::move(down));
  Edge up;
  up.src = in;
  up.dst = out;
  up.kind = TriggerKind::kCondition;
  up.guard = Guard{atleast(h, 0.3)};
  a.add_edge(std::move(up));
  a.add_initial_location(out);

  Engine engine({std::move(a)});
  engine.init();  // H = 0 in PumpOut: fires immediately into PumpIn
  EXPECT_EQ(engine.current_location_name(0), "PumpIn");
  engine.run_until(20.0);
  // At t = 20: cycles of 6 s; 20 mod 6 = 2 -> PumpOut descending from 0.3
  // reached at t = 18... trajectory: [0,3] rise, [3,6] fall, ...
  // 20 mod 6 = 2 -> rising phase? t=18 H=0, rises until t=21. So PumpIn.
  EXPECT_EQ(engine.current_location_name(0), "PumpIn");
  EXPECT_NEAR(engine.var(0, h), 0.2, 1e-9);
  // Count transitions: initial + one every 3 s after t=0 (at 3,6,9,12,15,18).
  const auto transitions = engine.trace().filter(TraceKind::kTransition, 0);
  EXPECT_EQ(transitions.size(), 1u /*init*/ + 1u /*t=0 fire*/ + 6u);
}

TEST(Engine, EmissionDeliveredToReceiverSameInstant) {
  Automaton sender("sender");
  {
    const LocId s0 = sender.add_location("s0");
    const LocId s1 = sender.add_location("s1");
    Edge e;
    e.src = s0;
    e.dst = s1;
    e.kind = TriggerKind::kTimed;
    e.dwell = 1.0;
    e.emits.push_back(SyncLabel::send("ping"));
    sender.add_edge(std::move(e));
    sender.add_initial_location(s0);
  }
  Automaton receiver("receiver");
  {
    const LocId r0 = receiver.add_location("r0");
    const LocId r1 = receiver.add_location("r1");
    Edge e;
    e.src = r0;
    e.dst = r1;
    e.kind = TriggerKind::kEvent;
    e.trigger = SyncLabel::recv("ping");
    receiver.add_edge(std::move(e));
    receiver.add_initial_location(r0);
  }
  Engine engine({std::move(sender), std::move(receiver)});
  engine.init();
  engine.run_until(2.0);
  EXPECT_EQ(engine.current_location_name(1), "r1");
  EXPECT_DOUBLE_EQ(engine.location_entry_time(1), 1.0);
}

TEST(Engine, ResetAppliesOnTransition) {
  Automaton a("resetter");
  const VarId x = a.add_var("x", 1.0);
  const VarId d = a.add_var("deadline", 0.0);
  const LocId s0 = a.add_location("s0");
  const LocId s1 = a.add_location("s1");
  Edge e;
  e.src = s0;
  e.dst = s1;
  e.kind = TriggerKind::kTimed;
  e.dwell = 2.0;
  e.reset.set(x, 42.0);
  e.reset.set_now_plus(d, 10.0);
  a.add_edge(std::move(e));
  a.add_initial_location(s0);

  Engine engine({std::move(a)});
  engine.init();
  engine.run_until(3.0);
  EXPECT_DOUBLE_EQ(engine.var(0, x), 42.0);
  EXPECT_DOUBLE_EQ(engine.var(0, d), 12.0);  // now(=2) + 10
}

TEST(Engine, ClockDeadlineConditionFires) {
  // The supervisor's D_i mechanism: clock rate 1, deadline set by reset,
  // condition edge clock - D >= 0.
  Automaton a("deadline");
  const VarId clock = a.add_var("clock", 0.0);
  const VarId dl = a.add_var("D", 0.0);
  const LocId s0 = a.add_location("s0");
  const LocId s1 = a.add_location("s1");
  const LocId s2 = a.add_location("s2");
  a.set_flow(s0, Flow{}.rate(clock, 1.0));
  a.set_flow(s1, Flow{}.rate(clock, 1.0));
  a.set_flow(s2, Flow{}.rate(clock, 1.0));
  Edge start;
  start.src = s0;
  start.dst = s1;
  start.kind = TriggerKind::kTimed;
  start.dwell = 1.0;
  start.reset.set_now_plus(dl, 5.0);  // D := 6
  a.add_edge(std::move(start));
  Edge fire;
  fire.src = s1;
  fire.dst = s2;
  fire.kind = TriggerKind::kCondition;
  LinearExpr expr = LinearExpr::var(clock);
  expr.add_term(dl, -1.0);
  fire.guard = Guard{LinearConstraint{expr, Cmp::kGe}};
  a.add_edge(std::move(fire));
  a.add_initial_location(s0);

  Engine engine({std::move(a)});
  engine.init();
  engine.run_until(10.0);
  EXPECT_EQ(engine.current_location_name(0), "s2");
  EXPECT_NEAR(engine.location_entry_time(0), 6.0, 1e-9);
}

TEST(Engine, MinDwellGuardOnEventEdge) {
  Automaton a("dwellguard");
  const LocId s0 = a.add_location("s0");
  const LocId s1 = a.add_location("s1");
  Edge e;
  e.src = s0;
  e.dst = s1;
  e.kind = TriggerKind::kEvent;
  e.trigger = SyncLabel::recv("go");
  e.guard = Guard{}.min_dwell(5.0);
  a.add_edge(std::move(e));
  a.add_initial_location(s0);

  Engine engine({std::move(a)});
  engine.init();
  engine.run_until(2.0);
  EXPECT_FALSE(engine.inject(0, "go"));  // too early
  engine.run_until(6.0);
  EXPECT_TRUE(engine.inject(0, "go"));
  EXPECT_EQ(engine.current_location_name(0), "s1");
}

TEST(Engine, SetVarTriggersConditionEdge) {
  Automaton a("sensor");
  const VarId v = a.add_var("reading", 1.0);
  const LocId ok = a.add_location("ok");
  const LocId alarm = a.add_location("alarm");
  Edge e;
  e.src = ok;
  e.dst = alarm;
  e.kind = TriggerKind::kCondition;
  e.guard = Guard{atmost(v, 0.5)};
  a.add_edge(std::move(e));
  a.add_initial_location(ok);

  Engine engine({std::move(a)});
  engine.init();
  engine.run_until(1.0);
  EXPECT_EQ(engine.current_location_name(0), "ok");
  engine.set_var(0, v, 0.3);
  EXPECT_EQ(engine.current_location_name(0), "alarm");
}

TEST(Engine, InvariantViolationRecorded) {
  Automaton a("inv");
  const VarId x = a.add_var("x", 0.0);
  const LocId s0 = a.add_location("s0");
  a.set_invariant(s0, Guard{atmost(x, 1.0)});
  a.set_flow(s0, Flow{}.rate(x, 1.0));
  // No egress: x will exceed the invariant.
  a.add_initial_location(s0);

  Engine engine({std::move(a)});
  engine.init();
  engine.run_until(3.0);
  EXPECT_FALSE(engine.invariant_violations().empty());
}

TEST(Engine, SamplerRecordsSeries) {
  Automaton a("sampled");
  const VarId x = a.add_var("x", 0.0);
  const LocId s0 = a.add_location("s0");
  a.set_flow(s0, Flow{}.rate(x, 1.0));
  a.add_initial_location(s0);

  Engine engine({std::move(a)});
  engine.init();
  engine.add_sampler(0, x, 0.5);
  engine.run_until(2.0);
  const auto series = sample_series(engine.trace(), 0, "x");
  ASSERT_GE(series.size(), 4u);
  EXPECT_NEAR(series[1].value, 0.5, 1e-9);
  EXPECT_NEAR(series[2].value, 1.0, 1e-9);
}

TEST(Engine, SelfLoopTimedEdgeRetriggers) {
  // The no-lease supervisor's retransmission pattern.
  Automaton a("loop");
  const LocId s0 = a.add_location("s0");
  Edge e;
  e.src = s0;
  e.dst = s0;
  e.kind = TriggerKind::kTimed;
  e.dwell = 1.0;
  e.emits.push_back(SyncLabel::send("tick"));
  a.add_edge(std::move(e));
  a.add_initial_location(s0);

  Engine engine({std::move(a)});
  engine.init();
  engine.run_until(5.5);
  EXPECT_EQ(engine.trace().filter(TraceKind::kEmit, 0).size(), 5u);
}

TEST(Engine, SimultaneousTimedEdgesDeterministicOrder) {
  // Two automata with identical deadlines: the one scheduled first
  // (lower index, inserted first at init) fires first; its emission can
  // preempt the second automaton's transition at the same instant.
  Automaton first("first");
  {
    first.add_location("f0");
    first.add_location("f1");
    first.add_initial_location(0);
    Edge e;
    e.src = 0;
    e.dst = 1;
    e.kind = TriggerKind::kTimed;
    e.dwell = 1.0;
    e.emits.push_back(SyncLabel::send("squelch"));
    first.add_edge(std::move(e));
  }
  Automaton second("second");
  {
    second.add_location("s0");
    second.add_location("s1");
    second.add_location("s2");
    second.add_initial_location(0);
    Edge t;
    t.src = 0;
    t.dst = 1;
    t.kind = TriggerKind::kTimed;
    t.dwell = 1.0;
    second.add_edge(std::move(t));
    Edge ev;
    ev.src = 0;
    ev.dst = 2;
    ev.kind = TriggerKind::kEvent;
    ev.trigger = SyncLabel::recv("squelch");
    second.add_edge(std::move(ev));
  }
  Engine engine({std::move(first), std::move(second)});
  engine.init();
  engine.run_until(2.0);
  EXPECT_EQ(engine.current_location_name(0), "f1");
  // FIFO tie-break: first's timeout ran first, its broadcast moved second
  // to s2 before second's own (now stale) timeout could fire.
  EXPECT_EQ(engine.current_location_name(1), "s2");
}

TEST(Engine, EventEdgeGuardFiltersDelivery) {
  Automaton a("guarded");
  const VarId x = a.add_var("x", 0.0);
  const LocId s0 = a.add_location("s0");
  const LocId s1 = a.add_location("s1");
  Edge e;
  e.src = s0;
  e.dst = s1;
  e.kind = TriggerKind::kEvent;
  e.trigger = SyncLabel::recv("go");
  e.guard = Guard{atleast(x, 1.0)};
  a.add_edge(std::move(e));
  a.add_initial_location(s0);
  Engine engine({std::move(a)});
  engine.init();
  EXPECT_FALSE(engine.inject(0, "go"));  // guard false: ignored
  engine.set_var(0, x, 2.0);
  EXPECT_TRUE(engine.inject(0, "go"));
  EXPECT_EQ(engine.current_location_name(0), "s1");
}

TEST(Engine, IdenticalRunsProduceIdenticalTraces) {
  auto run_once = [] {
    Automaton a("det");
    const VarId x = a.add_var("x", 0.0);
    const LocId s0 = a.add_location("s0");
    const LocId s1 = a.add_location("s1");
    a.set_flow(s0, Flow{}.rate(x, 1.0));
    Edge up;
    up.src = s0;
    up.dst = s1;
    up.kind = TriggerKind::kCondition;
    up.guard = Guard{atleast(x, 2.0)};
    a.add_edge(std::move(up));
    Edge back;
    back.src = s1;
    back.dst = s0;
    back.kind = TriggerKind::kTimed;
    back.dwell = 0.5;
    back.reset.set(x, 0.0);
    a.add_edge(std::move(back));
    a.add_initial_location(s0);
    Engine engine({std::move(a)});
    engine.init();
    engine.run_until(30.0);
    std::vector<std::pair<double, LocId>> transitions;
    for (const auto& r : engine.trace().records()) {
      if (r.kind == TraceKind::kTransition) transitions.emplace_back(r.t, r.to);
    }
    return transitions;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, CascadeLimitThrows) {
  // Two condition edges forming an instantaneous cycle.
  Automaton a("zeno");
  const VarId x = a.add_var("x", 1.0);
  const LocId s0 = a.add_location("s0");
  const LocId s1 = a.add_location("s1");
  Edge e1;
  e1.src = s0;
  e1.dst = s1;
  e1.kind = TriggerKind::kCondition;
  e1.guard = Guard{atleast(x, 0.5)};
  a.add_edge(std::move(e1));
  Edge e2;
  e2.src = s1;
  e2.dst = s0;
  e2.kind = TriggerKind::kCondition;
  e2.guard = Guard{atleast(x, 0.5)};
  a.add_edge(std::move(e2));
  a.add_initial_location(s0);

  Engine engine({std::move(a)});
  EXPECT_THROW(engine.init(), std::logic_error);
}

TEST(Engine, RejectsInvalidOrDuplicateAutomata) {
  Automaton no_initial("no-initial");
  no_initial.add_location("s0");
  EXPECT_THROW(compile_system({no_initial}), std::invalid_argument);
  EXPECT_THROW(Engine({no_initial}), std::invalid_argument);

  EXPECT_THROW(compile_system({two_state_timer(1.0), two_state_timer(2.0)}),
               std::invalid_argument);
  EXPECT_THROW(Engine({two_state_timer(1.0), two_state_timer(2.0)}), std::invalid_argument);

  EXPECT_NO_THROW(compile_system({two_state_timer(1.0)}));
}

}  // namespace
}  // namespace ptecps::hybrid
