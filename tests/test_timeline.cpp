// Tests for the trace query helpers.
#include <gtest/gtest.h>

#include "hybrid/automaton.hpp"
#include "hybrid/engine.hpp"
#include "hybrid/trace.hpp"

namespace ptecps::hybrid {
namespace {

/// Safe --(dwell 2)--> Danger[risky] --(dwell 3)--> Safe (cycle).
Automaton make_blinker() {
  Automaton a("blinker");
  const LocId safe = a.add_location("SafeSide");
  const LocId danger = a.add_location("DangerSide", true);
  a.add_initial_location(safe);
  Edge in;
  in.src = safe;
  in.dst = danger;
  in.kind = TriggerKind::kTimed;
  in.dwell = 2.0;
  a.add_edge(std::move(in));
  Edge out;
  out.src = danger;
  out.dst = safe;
  out.kind = TriggerKind::kTimed;
  out.dwell = 3.0;
  a.add_edge(std::move(out));
  return a;
}

TEST(TraceQueries, LocationIntervalsReconstructed) {
  Engine engine({make_blinker()});
  engine.init();
  engine.run_until(11.0);  // transitions at 2, 5, 7, 10 (not the one at 12)
  const auto intervals = location_intervals(engine.trace(), 0, 11.0);
  // [0,2) safe, [2,5) danger, [5,7) safe, [7,10) danger, [10,11] safe.
  ASSERT_EQ(intervals.size(), 5u);
  EXPECT_DOUBLE_EQ(intervals[0].begin, 0.0);
  EXPECT_DOUBLE_EQ(intervals[0].end, 2.0);
  EXPECT_DOUBLE_EQ(intervals[1].duration(), 3.0);
  EXPECT_DOUBLE_EQ(intervals[4].end, 11.0);
}

TEST(Trace, FormatMentionsLocationsAndTimes) {
  Engine engine({make_blinker()});
  engine.init();
  engine.run_until(3.0);
  const std::string text =
      engine.trace().format({&engine.automaton(0)}, 0.0, 3.0);
  EXPECT_NE(text.find("blinker"), std::string::npos);
  EXPECT_NE(text.find("SafeSide -> DangerSide"), std::string::npos);
  EXPECT_NE(text.find("[t=2.000]"), std::string::npos);
}

TEST(Trace, SampleSeriesFiltersByName) {
  Automaton a("sampled");
  a.add_var("x", 0.0);
  a.add_var("y", 0.0);
  const LocId s = a.add_location("s");
  a.set_flow(s, Flow{}.rate(0, 1.0).rate(1, 2.0));
  a.add_initial_location(s);
  Engine engine({std::move(a)});
  engine.init();
  engine.add_sampler(0, 0, 1.0);
  engine.add_sampler(0, 1, 1.0);
  engine.run_until(3.0);
  const auto xs = sample_series(engine.trace(), 0, "x");
  const auto ys = sample_series(engine.trace(), 0, "y");
  ASSERT_GE(xs.size(), 3u);
  EXPECT_NEAR(xs[2].value, 2.0, 1e-9);
  EXPECT_NEAR(ys[2].value, 4.0, 1e-9);
}

}  // namespace
}  // namespace ptecps::hybrid
