// Unit tests for the wireless substrate: loss models (with statistical
// checks as parameterized sweeps), channels, the star topology and the
// label-to-packet bridge.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/bridge.hpp"
#include "net/channel.hpp"
#include "net/loss_model.hpp"
#include "net/packet.hpp"
#include "net/star_network.hpp"

namespace ptecps::net {
namespace {

// Parameterized statistical check: the empirical loss rate of
// BernoulliLoss matches its parameter.
class BernoulliLossRate : public ::testing::TestWithParam<double> {};

TEST_P(BernoulliLossRate, EmpiricalRateMatches) {
  const double p = GetParam();
  BernoulliLoss model(p);
  sim::Rng rng(99);
  int lost = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) lost += model.lose(0.0, rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(lost) / n, p, 0.015);
}

INSTANTIATE_TEST_SUITE_P(Rates, BernoulliLossRate,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5, 0.9, 1.0));

TEST(GilbertElliott, StationaryLossMatchesTheory) {
  // p_gb = 0.1, p_bg = 0.3 -> stationary bad fraction = 0.1/0.4 = 0.25;
  // loss = 0.75*0.05 + 0.25*0.8 = 0.2375.
  GilbertElliottLoss model(0.1, 0.3, 0.05, 0.8);
  sim::Rng rng(7);
  int lost = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) lost += model.lose(0.0, rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.2375, 0.01);
}

TEST(GilbertElliott, InitialStateFollowsTheStationaryDistribution) {
  // Regression: the model used to always start Good, biasing the first
  // packets of EVERY run optimistic.  The initial state must be drawn
  // from P(bad) = p_gb/(p_gb+p_bg) = 0.2/(0.2+0.3) = 0.4 on first use.
  sim::Rng master(42);
  const int n = 20000;
  int bad_starts = 0;
  for (int i = 0; i < n; ++i) {
    GilbertElliottLoss model(0.2, 0.3, 0.0, 1.0);
    EXPECT_FALSE(model.state_drawn());
    sim::Rng rng = master.fork(static_cast<std::uint64_t>(i));
    // With loss_good = 0 and loss_bad = 1, the first packet's verdict IS
    // the state after the first step — and the stationary distribution
    // is invariant under that step.
    bad_starts += model.lose(0.0, rng) ? 1 : 0;
    EXPECT_TRUE(model.state_drawn());
  }
  EXPECT_NEAR(static_cast<double>(bad_starts) / n, 0.4, 0.015);
}

TEST(GilbertElliott, DegenerateChainsStartDeterministically) {
  sim::Rng rng(5);
  // p_gb = 0: the Bad state is unreachable, so every start is Good.
  GilbertElliottLoss never_bad(0.0, 0.3, 0.0, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(never_bad.lose(0.0, rng));
  // p_bg = 0 with p_gb > 0: Bad is absorbing — stationary mass 1 on Bad.
  GilbertElliottLoss always_bad(0.2, 0.0, 0.0, 1.0);
  EXPECT_TRUE(always_bad.lose(0.0, rng));
  EXPECT_TRUE(always_bad.in_bad_state());
}

TEST(CompoundLoss, LosesIffAnyComponentLoses) {
  sim::Rng rng(9);
  std::vector<std::unique_ptr<LossModel>> parts;
  parts.push_back(std::make_unique<ScriptedLoss>(std::vector<bool>{true, false, false}));
  parts.push_back(std::make_unique<ScriptedLoss>(std::vector<bool>{false, true, false}));
  CompoundLoss compound(std::move(parts));
  EXPECT_TRUE(compound.lose(0.0, rng));   // first part loses
  EXPECT_TRUE(compound.lose(0.0, rng));   // second part loses
  EXPECT_FALSE(compound.lose(0.0, rng));  // nobody loses
  EXPECT_EQ(compound.describe(), "compound(scripted(1/3 lost) + scripted(1/3 lost))");
}

TEST(CompoundLoss, EmpiricalRateMatchesIndependentComposition) {
  // Two independent Bernoulli components: P(lost) = 1 - (1-p)(1-q).
  sim::Rng rng(17);
  std::vector<std::unique_ptr<LossModel>> parts;
  parts.push_back(std::make_unique<BernoulliLoss>(0.2));
  parts.push_back(std::make_unique<BernoulliLoss>(0.1));
  CompoundLoss compound(std::move(parts));
  int lost = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) lost += compound.lose(0.0, rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(lost) / n, 1.0 - 0.8 * 0.9, 0.01);
}

TEST(GilbertElliott, ProducesBursts) {
  GilbertElliottLoss model(0.05, 0.2, 0.0, 1.0);
  sim::Rng rng(3);
  // Mean burst length = 1/p_bg = 5 consecutive losses.
  int bursts = 0, losses = 0;
  bool in_burst = false;
  for (int i = 0; i < 100000; ++i) {
    const bool lost = model.lose(0.0, rng);
    losses += lost ? 1 : 0;
    if (lost && !in_burst) ++bursts;
    in_burst = lost;
  }
  const double mean_burst = static_cast<double>(losses) / bursts;
  EXPECT_NEAR(mean_burst, 5.0, 0.5);
}

TEST(Interference, DutyCycleRespected) {
  InterferenceLoss model(10.0, 2.0, 1.0, 0.0);  // deterministic: lose iff in burst
  sim::Rng rng(1);
  EXPECT_TRUE(model.burst_active(0.5));
  EXPECT_TRUE(model.burst_active(11.9));
  EXPECT_FALSE(model.burst_active(5.0));
  EXPECT_TRUE(model.lose(1.0, rng));
  EXPECT_FALSE(model.lose(3.0, rng));
}

TEST(ReactiveJam, SensingOpensAJamWindowThatExpires) {
  // sense_prob 1, kill_prob 1: the first packet is sensed (and dies), the
  // window then kills everything for jam_len seconds and nothing after.
  ReactiveJamLoss model(1.0, 1.0, 2.0);
  sim::Rng rng(7);
  EXPECT_FALSE(model.jamming(0.0));
  EXPECT_TRUE(model.lose(1.0, rng));   // sensed, window [1, 3)
  EXPECT_TRUE(model.jamming(2.9));
  EXPECT_TRUE(model.lose(2.5, rng));   // inside the window
  EXPECT_FALSE(model.jamming(3.0));    // window closed...
  EXPECT_TRUE(model.lose(4.0, rng));   // ...but this packet re-triggers
}

TEST(ReactiveJam, SilentAttackerNeverLoses) {
  ReactiveJamLoss model(0.0, 1.0, 10.0);  // never senses: kill_prob moot
  sim::Rng rng(11);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(model.lose(0.1 * i, rng));
}

TEST(ReactiveJam, KillProbabilityAppliesInsideTheWindow) {
  // Certain sensing, coin-flip kills: roughly half the packets inside a
  // permanently refreshed window should die.
  ReactiveJamLoss model(1.0, 0.5, 100.0);
  sim::Rng rng(13);
  int losses = 0;
  for (int i = 0; i < 100000; ++i) losses += model.lose(0.0, rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(losses) / 100000.0, 0.5, 0.02);
}

TEST(Scripted, VerdictsFollowScript) {
  auto model = ScriptedLoss::lose_indices({1, 3}, 5);
  sim::Rng rng(1);
  EXPECT_FALSE(model->lose(0.0, rng));
  EXPECT_TRUE(model->lose(0.0, rng));
  EXPECT_FALSE(model->lose(0.0, rng));
  EXPECT_TRUE(model->lose(0.0, rng));
  EXPECT_FALSE(model->lose(0.0, rng));
  EXPECT_FALSE(model->lose(0.0, rng));  // beyond script: deliver
  EXPECT_EQ(model->packets_seen(), 6u);
}

TEST(Channel, DeliversAfterDelayAndCountsStats) {
  sim::Scheduler sched;
  sim::Rng rng(5);
  ChannelConfig cfg;
  cfg.delay = 0.25;
  Channel ch(sched, rng.fork(1), std::make_unique<PerfectLink>(), cfg);
  std::vector<double> arrivals;
  ch.set_delivery([&](const Packet& p) {
    arrivals.push_back(sched.now());
    EXPECT_EQ(p.label, 7u);
    EXPECT_EQ(p.dst, 3);
    EXPECT_DOUBLE_EQ(p.send_time, 1.0);  // stamped by the channel
  });
  sched.schedule_at(1.0, [&] { ch.send(Packet{7, 3, 0.0}); });
  sched.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_NEAR(arrivals[0], 1.25, 1e-9);
  EXPECT_EQ(ch.stats().sent, 1u);
  EXPECT_EQ(ch.stats().delivered, 1u);
}

TEST(Channel, BitErrorsAreDiscardedAtArrival) {
  // §II-B: a packet with bit errors is discarded at the receiver, so it
  // still travels and is counted only once the delay has elapsed.
  sim::Scheduler sched;
  sim::Rng rng(6);
  ChannelConfig cfg;
  cfg.delay = 0.25;
  cfg.bit_error_prob = 1.0;  // corrupt every packet
  Channel ch(sched, rng.fork(1), std::make_unique<PerfectLink>(), cfg);
  int delivered = 0;
  ch.set_delivery([&](const Packet&) { ++delivered; });
  for (hybrid::LabelId i = 0; i < 50; ++i) ch.send(Packet{i, 0, 0.0});
  sched.run_until(0.2);
  EXPECT_EQ(ch.stats().sent, 50u);
  EXPECT_EQ(ch.stats().corrupted, 0u);  // still in flight
  sched.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(ch.stats().corrupted, 50u);
  EXPECT_EQ(ch.stats().delivered, 0u);
}

TEST(Channel, RandomStreamIsPinned) {
  // Every draw of a link in its fixed order — loss, bit error (and the
  // unused draw after a fired one), jitter, duplicate — on one stream.
  // The counts and the digest of the (arrival time, label) pairs were
  // recorded when packets were CRC-checked byte frames whose flipped bit
  // that unused draw picked; a moved draw changes both.
  sim::Scheduler sched;
  sim::Rng rng(2026);
  ChannelConfig cfg;
  cfg.delay = 0.005;
  cfg.delay_jitter = 0.02;
  cfg.bit_error_prob = 0.3;
  cfg.acceptance_window = 0.015;
  cfg.duplicate_prob = 0.2;
  cfg.duplicate_lag = 0.004;
  Channel ch(sched, rng.fork(1), std::make_unique<BernoulliLoss>(0.1), cfg);
  std::uint64_t digest = 14695981039346656037ULL;  // FNV-1a, 64-bit
  auto mix = [&digest](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (v >> (8 * byte)) & 0xFFU;
      digest *= 1099511628211ULL;
    }
  };
  ch.set_delivery([&](const Packet& p) {
    mix(std::bit_cast<std::uint64_t>(sched.now()));
    mix(p.label);
  });
  for (hybrid::LabelId i = 0; i < 10000; ++i)
    sched.schedule_at(0.001 * i, [&ch, i] { ch.send(Packet{i % 7, 0, 0.0}); });
  sched.run();
  const ChannelStats& stats = ch.stats();
  EXPECT_EQ(stats.sent, 10000u);
  EXPECT_EQ(stats.lost, 969u);
  EXPECT_EQ(stats.corrupted, 3136u);
  EXPECT_EQ(stats.rejected_late, 4056u);
  EXPECT_EQ(stats.delivered, 3632u);
  EXPECT_EQ(stats.duplicated, 390u);
  EXPECT_EQ(digest, 0x1e3afafb1b0b6af8ULL);
}

TEST(Channel, LatePacketsRejectedByAcceptanceWindow) {
  sim::Scheduler sched;
  sim::Rng rng(8);
  ChannelConfig cfg;
  cfg.delay = 1.0;              // longer than the window
  cfg.acceptance_window = 0.5;  // §II-B: delays classified as lost
  Channel ch(sched, rng.fork(1), std::make_unique<PerfectLink>(), cfg);
  int delivered = 0;
  ch.set_delivery([&](const Packet&) { ++delivered; });
  ch.send(Packet{});
  sched.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(ch.stats().rejected_late, 1u);
}

TEST(Channel, LossModelDropsBeforeTransmission) {
  sim::Scheduler sched;
  sim::Rng rng(9);
  Channel ch(sched, rng.fork(1), std::make_unique<BernoulliLoss>(1.0), ChannelConfig{});
  int delivered = 0;
  ch.set_delivery([&](const Packet&) { ++delivered; });
  ch.send(Packet{});
  sched.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(ch.stats().lost, 1u);
  EXPECT_DOUBLE_EQ(ch.stats().delivery_ratio(), 0.0);
}

// Property sweep: with delay jitter straddling the acceptance window,
// the rejected-late fraction matches the fraction of the jitter range
// beyond the window.
class JitterWindow : public ::testing::TestWithParam<double> {};

TEST_P(JitterWindow, LateRejectionRateMatchesGeometry) {
  const double window = GetParam();
  sim::Scheduler sched;
  sim::Rng rng(41);
  ChannelConfig cfg;
  cfg.delay = 0.0;
  cfg.delay_jitter = 1.0;  // uniform in [0, 1)
  cfg.acceptance_window = window;
  Channel ch(sched, rng.fork(1), std::make_unique<PerfectLink>(), cfg);
  int delivered = 0;
  ch.set_delivery([&](const Packet&) { ++delivered; });
  const int n = 20000;
  for (int i = 0; i < n; ++i) ch.send(Packet{});
  sched.run();
  const double expected_late = window >= 1.0 ? 0.0 : 1.0 - window;
  EXPECT_NEAR(static_cast<double>(ch.stats().rejected_late) / n, expected_late, 0.02);
  EXPECT_EQ(ch.stats().delivered, static_cast<std::uint64_t>(delivered));
  EXPECT_EQ(ch.stats().sent, static_cast<std::uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Windows, JitterWindow,
                         ::testing::Values(0.25, 0.5, 0.75, 1.0));

TEST(Channel, DuplicateDeliveryCountedAndLagged) {
  sim::Scheduler sched;
  sim::Rng rng(43);
  ChannelConfig cfg;
  cfg.delay = 0.1;
  cfg.duplicate_prob = 1.0;
  cfg.duplicate_lag = 0.05;
  Channel ch(sched, rng.fork(1), std::make_unique<PerfectLink>(), cfg);
  std::vector<double> arrivals;
  ch.set_delivery([&](const Packet&) { arrivals.push_back(sched.now()); });
  sched.schedule_at(1.0, [&] { ch.send(Packet{}); });
  sched.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 1.1, 1e-9);
  EXPECT_NEAR(arrivals[1], 1.15, 1e-9);
  EXPECT_EQ(ch.stats().duplicated, 1u);
  EXPECT_EQ(ch.stats().delivered, 2u);
}

TEST(StarNetwork, TopologyForbidsRemoteToRemote) {
  sim::Scheduler sched;
  sim::Rng rng(10);
  StarNetwork net(sched, rng, 3);
  EXPECT_NO_THROW(net.channel_for(0, 2));
  EXPECT_NO_THROW(net.channel_for(2, 0));
  EXPECT_THROW(net.channel_for(1, 2), std::invalid_argument);  // §II-B
  EXPECT_THROW(net.channel_for(1, 1), std::invalid_argument);
  EXPECT_THROW(net.uplink(0), std::invalid_argument);
  EXPECT_THROW(net.downlink(4), std::invalid_argument);
}

TEST(StarNetwork, SendEventRoutesToProperLink) {
  sim::Scheduler sched;
  sim::Rng rng(11);
  StarNetwork net(sched, rng, 2);
  hybrid::LabelId got = hybrid::kNoLabel;
  EntityId got_dst = 99;
  net.uplink(2).set_delivery([&](const Packet& p) {
    got = p.label;
    got_dst = p.dst;
  });
  net.downlink(1).set_delivery([](const Packet&) {});
  net.downlink(2).set_delivery([](const Packet&) {});
  net.uplink(1).set_delivery([](const Packet&) {});
  net.send_event(2, 0, 42);
  sched.run();
  EXPECT_EQ(got, 42u);
  EXPECT_EQ(got_dst, kBaseStation);
  EXPECT_EQ(net.total_stats().sent, 1u);
  EXPECT_EQ(net.total_stats().delivered, 1u);
}

TEST(StarNetwork, DescribeNamesEveryLink) {
  sim::Scheduler sched;
  sim::Rng rng(14);
  StarNetwork net(sched, rng, 2);
  net.configure_downlink(2, std::make_unique<BernoulliLoss>(0.5), ChannelConfig{});
  const std::string table = net.describe();
  for (const char* link :
       {"uplink[xi1->xi0]", "downlink[xi0->xi1]", "uplink[xi2->xi0]", "downlink[xi0->xi2]"})
    EXPECT_NE(table.find(link), std::string::npos) << link << "\n" << table;
  // Rows go uplink then downlink, remote by remote.
  EXPECT_LT(table.find("downlink[xi0->xi1]"), table.find("uplink[xi2->xi0]"));
}

/// Automaton 0 receives "ping", automaton 1 sends it at t = 1, and the
/// rest idle: entity e runs automaton e, so remote 1 pings the base.
std::vector<hybrid::Automaton> ping_system(std::size_t n_automata) {
  using namespace hybrid;
  std::vector<Automaton> automata;
  for (std::size_t a = 0; a < n_automata; ++a) {
    Automaton& aut = automata.emplace_back("a" + std::to_string(a));
    aut.add_location("s0");
    aut.add_location("s1");
    aut.add_initial_location(0);
    if (a > 1) continue;
    Edge e;
    e.src = 0;
    e.dst = 1;
    if (a == 0) {
      e.kind = TriggerKind::kEvent;
      e.trigger = SyncLabel::recv_unreliable("ping");
    } else {
      e.kind = TriggerKind::kTimed;
      e.dwell = 1.0;
      e.emits.push_back(SyncLabel::send("ping"));
    }
    aut.add_edge(std::move(e));
  }
  return automata;
}

TEST(Bridge, RoutesWirelessAndDropsUnusedRoots) {
  hybrid::Engine engine(ping_system(2));
  sim::Rng rng(12);
  StarNetwork net(engine.scheduler(), rng, 1);
  // No automaton uses "nope", so even its repeat is dropped, not rejected.
  const std::vector<Route> routes = {{"ping", 1, 0}, {"nope", 0, 1}, {"nope", 1, 0}};
  NetEventRouter router(net, engine, routes);
  engine.init();
  engine.run_until(2.0);
  EXPECT_EQ(engine.current_location_name(0), "s1");
  EXPECT_EQ(router.wireless_sends(), 1u);
}

TEST(Bridge, ConstructorRejectsBadRoutes) {
  auto build = [](std::size_t n_remotes, const std::vector<Route>& routes) {
    hybrid::Engine engine(ping_system(n_remotes + 1));
    sim::Rng rng(13);
    StarNetwork net(engine.scheduler(), rng, n_remotes);
    NetEventRouter router(net, engine, routes);
  };
  EXPECT_NO_THROW(build(2, {{"ping", 1, 0}}));
  EXPECT_THROW(build(1, {{"ping", 1, 0}, {"ping", 0, 1}}), std::invalid_argument);  // twice
  EXPECT_THROW(build(2, {{"ping", 1, 2}}), std::invalid_argument);  // remote to remote
  EXPECT_THROW(build(1, {{"ping", 0, 2}}), std::invalid_argument);  // no such remote
}

}  // namespace
}  // namespace ptecps::net
