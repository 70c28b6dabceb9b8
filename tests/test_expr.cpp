// Unit tests for the guard/flow/reset expression layer (§II-A items
// 3, 4, 6, 7) including the exact crossing-time computation the engine
// relies on for urgent condition edges.
#include <gtest/gtest.h>

#include <limits>

#include "hybrid/expr.hpp"
#include "hybrid/flow.hpp"
#include "hybrid/label.hpp"
#include "hybrid/reset.hpp"

namespace ptecps::hybrid {
namespace {

TEST(LinearExpr, EvalAndTermMerging) {
  LinearExpr e = LinearExpr::var(0, 2.0);
  e.add_term(1, -1.0).add_constant(3.0);
  e.add_term(0, 1.0);  // merges into coefficient 3
  EXPECT_DOUBLE_EQ(e.eval({2.0, 5.0}), 3.0 * 2.0 - 5.0 + 3.0);
  EXPECT_EQ(e.max_var(), 1u);
}

TEST(LinearExpr, RateUnderConstantFlows) {
  LinearExpr e = LinearExpr::var(0, 2.0);
  e.add_term(1, -3.0);
  EXPECT_DOUBLE_EQ(e.rate({1.0, 0.5}), 2.0 - 1.5);
}

TEST(LinearExpr, ShiftedRemapsVariables) {
  LinearExpr e = LinearExpr::var(0).add_constant(1.0);
  const LinearExpr s = e.shifted(5);
  EXPECT_DOUBLE_EQ(s.eval({0, 0, 0, 0, 0, 7.0}), 8.0);
}

TEST(LinearConstraint, MarginSigns) {
  // x0 - 3 >= 0
  const LinearConstraint ge_c = atleast(0, 3.0);
  EXPECT_TRUE(ge_c.eval({4.0}));
  EXPECT_FALSE(ge_c.eval({2.0}));
  EXPECT_DOUBLE_EQ(ge_c.margin({5.0}), 2.0);
  // x0 - 3 <= 0
  const LinearConstraint le_c = atmost(0, 3.0);
  EXPECT_TRUE(le_c.eval({2.0}));
  EXPECT_DOUBLE_EQ(le_c.margin({2.0}), 1.0);
  EXPECT_DOUBLE_EQ(le_c.margin({5.0}), -2.0);
}

TEST(LinearConstraint, GeLeBuilders) {
  // 2*x0 >= x1 + 1  <=>  2*x0 - x1 - 1 >= 0
  const LinearConstraint c = ge(LinearExpr::var(0, 2.0), LinearExpr::var(1).add_constant(1.0));
  EXPECT_TRUE(c.eval({1.0, 1.0}));
  EXPECT_FALSE(c.eval({0.5, 1.0}));
}

TEST(Guard, EmptyGuardAlwaysTrue) {
  const Guard g;
  EXPECT_TRUE(g.always_true());
  EXPECT_TRUE(g.eval({}, 0.0));
  EXPECT_EQ(g.margin({}), std::numeric_limits<double>::infinity());
}

TEST(Guard, MinDwellGating) {
  Guard g;
  g.min_dwell(2.0);
  EXPECT_FALSE(g.eval({}, 1.0));
  EXPECT_TRUE(g.eval({}, 2.0));
}

TEST(Guard, ConjunctionSemantics) {
  const Guard g{std::vector<LinearConstraint>{atleast(0, 1.0), atmost(0, 3.0)}};
  EXPECT_TRUE(g.eval({2.0}, 0.0));
  EXPECT_FALSE(g.eval({0.0}, 0.0));
  EXPECT_FALSE(g.eval({4.0}, 0.0));
  EXPECT_DOUBLE_EQ(g.margin({2.0}), 1.0);  // min of the two margins
}

TEST(Guard, TimeToSatisfyExact) {
  // x0 starts at 0, rate 2: x0 >= 5 satisfied at t = 2.5.
  const Guard g{atleast(0, 5.0)};
  EXPECT_DOUBLE_EQ(g.time_to_satisfy({0.0}, {2.0}), 2.5);
  // Already satisfied.
  EXPECT_DOUBLE_EQ(g.time_to_satisfy({6.0}, {2.0}), 0.0);
  // Wrong direction: never.
  EXPECT_TRUE(std::isinf(g.time_to_satisfy({0.0}, {-1.0})));
}

TEST(Guard, TimeToSatisfyConjunctionNeedsSimultaneity) {
  // 1 <= x0 <= 3 with rate +1 from 0: satisfiable at t=1 (both hold).
  const Guard box{std::vector<LinearConstraint>{atleast(0, 1.0), atmost(0, 3.0)}};
  EXPECT_DOUBLE_EQ(box.time_to_satisfy({0.0}, {1.0}), 1.0);
  // From 5 with rate +1: x0 <= 3 never becomes true again.
  EXPECT_TRUE(std::isinf(box.time_to_satisfy({5.0}, {1.0})));
}

TEST(Guard, ConjunctionOfGuards) {
  const Guard a{atleast(0, 1.0)};
  Guard b{atmost(0, 3.0)};
  b.min_dwell(2.0);
  const Guard c = Guard::conjunction(a, b);
  EXPECT_EQ(c.constraints().size(), 2u);
  EXPECT_DOUBLE_EQ(c.min_dwell(), 2.0);
  EXPECT_TRUE(c.eval({2.0}, 2.5));
  EXPECT_FALSE(c.eval({2.0}, 1.0));
}

TEST(Guard, CanonicalIsOrderInsensitive) {
  const Guard a{std::vector<LinearConstraint>{atleast(0, 1.0), atmost(1, 2.0)}};
  const Guard b{std::vector<LinearConstraint>{atmost(1, 2.0), atleast(0, 1.0)}};
  EXPECT_EQ(a.canonical(), b.canonical());
}

TEST(Flow, ConstantRatesAndDense) {
  Flow f;
  f.rate(1, 2.5);
  EXPECT_DOUBLE_EQ(f.rate_of(1), 2.5);
  EXPECT_DOUBLE_EQ(f.rate_of(0), 0.0);
  const auto dense = f.dense_rates(3);
  EXPECT_EQ(dense, (std::vector<double>{0.0, 2.5, 0.0}));
  EXPECT_FALSE(f.is_zero());
  EXPECT_TRUE(Flow{}.is_zero());
}

TEST(Flow, ShiftedActsOnSubRange) {
  Flow f;
  f.rate(0, 3.0);
  f.rate(1, -0.5);
  const Flow s = f.shifted(2);  // child vars at [2, 4)
  EXPECT_EQ(s.dense_rates(4), (std::vector<double>{0.0, 0.0, 3.0, -0.5}));
}

TEST(Flow, MergedDisjointFlows) {
  Flow a;
  a.rate(0, 1.0);
  Flow b;
  b.rate(1, -2.0);
  const Flow m = Flow::merged(a, b);
  EXPECT_DOUBLE_EQ(m.rate_of(0), 1.0);
  EXPECT_DOUBLE_EQ(m.rate_of(1), -2.0);
}

TEST(Reset, NowPlusAndShift) {
  Reset r;
  r.set_now_plus(0, 5.0);
  Valuation x{0.0, 0.0, 0.0};
  r.apply(2.0, x);
  EXPECT_DOUBLE_EQ(x[0], 7.0);
  const Reset s = r.shifted(2);
  Valuation y{0.0, 0.0, 0.0};
  s.apply(1.0, y);
  EXPECT_DOUBLE_EQ(y[2], 6.0);
  EXPECT_EQ(s.written(), std::vector<VarId>{2});
}

TEST(Label, ParseAndPrintRoundTrip) {
  EXPECT_EQ(SyncLabel::parse("evt").prefix, SyncPrefix::kInternal);
  EXPECT_EQ(SyncLabel::parse("!evt").prefix, SyncPrefix::kSend);
  EXPECT_EQ(SyncLabel::parse("?evt").prefix, SyncPrefix::kRecv);
  EXPECT_EQ(SyncLabel::parse("??evt").prefix, SyncPrefix::kRecvUnreliable);
  for (const char* text : {"evt", "!evt", "?evt", "??evt"})
    EXPECT_EQ(SyncLabel::parse(text).str(), text);
}

TEST(Label, DistinctByPrefixSameRoot) {
  // "!l, ?l, ??l are considered three different synchronization labels,
  // though they are related to a same event by the root l" (§II-A.8).
  const SyncLabel send = SyncLabel::send("l");
  const SyncLabel recv = SyncLabel::recv("l");
  const SyncLabel recv_u = SyncLabel::recv_unreliable("l");
  EXPECT_NE(send, recv);
  EXPECT_NE(recv, recv_u);
  EXPECT_EQ(send.root, recv.root);
  EXPECT_TRUE(recv.is_reception());
  EXPECT_TRUE(recv_u.is_reception());
  EXPECT_FALSE(send.is_reception());
}

}  // namespace
}  // namespace ptecps::hybrid
