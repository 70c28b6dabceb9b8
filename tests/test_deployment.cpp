// Tests for event naming, system assembly (routing-table completeness),
// and the duplication-tolerance extension (the pattern's receivers are
// state-gated, so at-least-once delivery cannot break PTE safety).
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/config.hpp"
#include "core/deployment.hpp"
#include "core/events.hpp"
#include "core/monitor.hpp"
#include "core/pattern.hpp"
#include "core/synthesis.hpp"
#include "hybrid/structural.hpp"
#include "net/bridge.hpp"
#include "net/star_network.hpp"

namespace ptecps::core {
namespace {

namespace ev = events;

TEST(Events, NamesFollowThePaperScheme) {
  EXPECT_EQ(ev::req(2), "evt.xi2.to.xi0.Req");
  EXPECT_EQ(ev::cancel_req(2), "evt.xi2.to.xi0.Cancel");
  EXPECT_EQ(ev::lease_req(1), "evt.xi0.to.xi1.LeaseReq");
  EXPECT_EQ(ev::lease_approve(1), "evt.xi1.to.xi0.LeaseApprove");
  EXPECT_EQ(ev::lease_deny(1), "evt.xi1.to.xi0.LeaseDeny");
  EXPECT_EQ(ev::approve(2), "evt.xi0.to.xi2.Approve");
  EXPECT_EQ(ev::cancel(1), "evt.xi0.to.xi1.Cancel");
  EXPECT_EQ(ev::abort_lease(1), "evt.xi0.to.xi1.Abort");
  EXPECT_EQ(ev::exit(1), "evt.xi1.to.xi0.Exit");
}

TEST(Events, AllDistinct) {
  std::set<std::string> names;
  for (std::size_t i = 1; i <= 3; ++i) {
    names.insert(ev::lease_req(i));
    names.insert(ev::lease_approve(i));
    names.insert(ev::lease_deny(i));
    names.insert(ev::cancel(i));
    names.insert(ev::abort_lease(i));
    names.insert(ev::exit(i));
    names.insert(ev::to_stop(i));
    names.insert(ev::cmd_request(i));
    names.insert(ev::cmd_cancel(i));
  }
  names.insert(ev::req(3));
  names.insert(ev::cancel_req(3));
  names.insert(ev::approve(3));
  EXPECT_EQ(names.size(), 9u * 3u + 3u);
}

TEST(Deployment, RouteTableCoversEveryWirelessLabel) {
  for (std::size_t n : {2u, 3u, 5u}) {
    SynthesisRequest req;
    req.n_remotes = n;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      req.t_risky_min.push_back(1.0);
      req.t_safe_min.push_back(0.5);
    }
    const PatternConfig cfg = synthesize(req);
    const BuiltSystem sys = build_pattern_system(cfg);
    ASSERT_EQ(sys.automata.size(), n + 1);

    std::set<std::string> routed;
    for (const auto& r : sys.routes) routed.insert(r.root);

    // Every ??-received root of every automaton must be routed, and every
    // !-emitted root except the internal to_stop markers must be routed.
    for (const auto& a : sys.automata) {
      for (const auto& label : a.labels()) {
        if (label.prefix == hybrid::SyncPrefix::kRecvUnreliable) {
          EXPECT_TRUE(routed.count(label.root))
              << a.name() << " receives unrouted '" << label.root << "'";
        }
        if (label.prefix == hybrid::SyncPrefix::kSend) {
          EXPECT_TRUE(routed.count(label.root))
              << a.name() << " sends unrouted '" << label.root << "'";
        }
      }
    }
    // And the routes' endpoints are consistent with the naming.
    for (const auto& r : sys.routes)
      EXPECT_TRUE(r.src == 0 || r.dst == 0) << r.root << " not star-routed";
  }
}

TEST(Deployment, SupervisorVariablesExposed) {
  const PatternConfig cfg = PatternConfig::laser_tracheotomy();
  const hybrid::Automaton sup = make_supervisor(cfg);
  EXPECT_TRUE(sup.has_var(supervisor_clock_var()));
  EXPECT_TRUE(sup.has_var(supervisor_deadline_var(1)));
  EXPECT_TRUE(sup.has_var(supervisor_deadline_var(2)));
  EXPECT_TRUE(sup.has_var("approval_val"));
  EXPECT_EQ(sup.num_locations(), 3u * 2u + 1u);
}

TEST(Deployment, PatternTolleratesDuplicateDeliveries) {
  // Extension beyond the paper's loss-only fault model: every packet may
  // additionally be delivered twice.  The receivers are state-gated
  // (events only fire enabled edges), so duplicates must change nothing
  // about safety.
  const PatternConfig cfg = PatternConfig::laser_tracheotomy();
  BuiltSystem built = build_pattern_system(cfg);
  hybrid::Engine engine(std::move(built.automata));
  sim::Rng rng(61);
  net::StarNetwork network(engine.scheduler(), rng, 2);
  net::ChannelConfig channel;
  channel.delay = 0.001;
  channel.duplicate_prob = 0.8;
  channel.duplicate_lag = 0.05;
  network.configure_all([] { return std::make_unique<net::BernoulliLoss>(0.25); }, channel);
  net::NetEventRouter router(network, engine, built.routes);
  PteMonitor monitor(MonitorParams::from_config(cfg));
  monitor.attach(engine, {0, 1, 2});
  engine.init();

  sim::Rng stim(62);
  double t = 0.0;
  while (t < 1200.0) {
    t += stim.exponential(20.0);
    const std::string root = stim.bernoulli(0.7) ? ev::cmd_request(2) : ev::cmd_cancel(2);
    engine.scheduler().schedule_at(t, [&engine, root] { engine.inject(2, root); });
  }
  engine.run_until(1400.0);
  monitor.finalize(1400.0);
  EXPECT_TRUE(monitor.violations().empty()) << monitor.summary();
  EXPECT_GT(network.total_stats().duplicated, 0u);  // duplicates really flowed
  EXPECT_GT(monitor.episodes(2), 0u);               // and sessions really ran
}

TEST(Deployment, NoLeaseVariantLacksExpiryEdges) {
  const PatternConfig cfg = PatternConfig::laser_tracheotomy();
  const BuiltSystem with = build_pattern_system(cfg, ApprovalSpec{}, true);
  const BuiltSystem without = build_pattern_system(cfg, ApprovalSpec{}, false);
  // The lease variant has one more edge per remote entity (the Risky
  // Core expiry), the baseline has retransmission self-loops instead.
  const auto count_edges_from = [](const hybrid::Automaton& a, const char* loc,
                                   hybrid::TriggerKind kind) {
    std::size_t n = 0;
    for (hybrid::EdgeId e : a.edges_from(a.location_id(loc)))
      if (a.edge(e).kind == kind) ++n;
    return n;
  };
  EXPECT_EQ(count_edges_from(with.automata[1], "Risky Core", hybrid::TriggerKind::kTimed),
            1u);
  EXPECT_EQ(count_edges_from(without.automata[1], "Risky Core", hybrid::TriggerKind::kTimed),
            0u);
  EXPECT_EQ(count_edges_from(with.automata[0], "Cancel Lease xi1",
                             hybrid::TriggerKind::kTimed),
            0u);
  EXPECT_EQ(count_edges_from(without.automata[0], "Cancel Lease xi1",
                             hybrid::TriggerKind::kTimed),
            1u);  // the retransmission self-loop
}

TEST(Deployment, AblatedSupervisorDiffersStructurally) {
  const PatternConfig cfg = PatternConfig::laser_tracheotomy();
  const hybrid::Automaton sound = make_supervisor(cfg, ApprovalSpec{}, true, true);
  const hybrid::Automaton impatient = make_supervisor(cfg, ApprovalSpec{}, true, false);
  EXPECT_NE(hybrid::canonical_text(sound), hybrid::canonical_text(impatient));
}

}  // namespace
}  // namespace ptecps::core
