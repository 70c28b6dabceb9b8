// Property tests attacking Theorem 1 the way its statement demands:
// under ARBITRARY loss.  Exhaustive loss schedules over the first K
// wireless packets of a session (parameterized sweep), plus randomized
// configuration/loss/stimulus fuzzing.
#include <gtest/gtest.h>

#include <memory>

#include "casestudy/trial.hpp"
#include "core/config.hpp"
#include "core/deployment.hpp"
#include "core/events.hpp"
#include "core/monitor.hpp"
#include "core/synthesis.hpp"
#include "net/bridge.hpp"
#include "net/star_network.hpp"

namespace ptecps::core {
namespace {

/// Loss model sharing one global verdict script across all links.
struct SharedSchedule {
  std::uint64_t mask = 0;
  std::size_t bits = 0;
  std::size_t next = 0;
};

class SharedScheduleLoss final : public net::LossModel {
 public:
  explicit SharedScheduleLoss(std::shared_ptr<SharedSchedule> state)
      : state_(std::move(state)) {}
  bool lose(sim::SimTime, sim::Rng&) override {
    const std::size_t i = state_->next++;
    return i < state_->bits && ((state_->mask >> i) & 1ULL);
  }
  std::string describe() const override { return "shared-schedule"; }

 private:
  std::shared_ptr<SharedSchedule> state_;
};

struct RunOutcome {
  std::size_t violations = 0;
  bool recovered = false;
};

RunOutcome run_session(std::uint64_t mask, std::size_t bits, double toff) {
  auto state = std::make_shared<SharedSchedule>();
  state->mask = mask;
  state->bits = bits;
  const PatternConfig cfg = PatternConfig::laser_tracheotomy();
  sim::Rng rng(1);
  BuiltSystem built = build_pattern_system(cfg);
  hybrid::Engine engine(std::move(built.automata));
  net::StarNetwork network(engine.scheduler(), rng, 2);
  network.configure_all([&state] { return std::make_unique<SharedScheduleLoss>(state); },
                        net::ChannelConfig{0.0, 0.0, 0.0, 0.5});
  net::NetEventRouter router(network, engine, built.routes);
  PteMonitor monitor(MonitorParams::from_config(cfg));
  monitor.attach(engine, {0, 1, 2});
  engine.init();
  engine.run_until(14.0);
  engine.inject(2, events::cmd_request(2));
  if (toff > 0.0) {
    engine.run_until(25.0 + toff);
    engine.inject(2, events::cmd_cancel(2));
  }
  engine.run_until(220.0);
  monitor.finalize(220.0);

  RunOutcome out;
  out.violations = monitor.violations().size();
  out.recovered = true;
  for (std::size_t a = 0; a <= 2; ++a) {
    if (engine.current_location_name(a) != "Fall-Back") out.recovered = false;
  }
  return out;
}

// Exhaustive sweep, split into 16 parameterized shards of 2^10 / 16
// schedules each so failures localize.
class ExhaustiveLossSchedules : public ::testing::TestWithParam<int> {};

TEST_P(ExhaustiveLossSchedules, NoViolationsAndFullRecovery) {
  constexpr std::size_t kBits = 10;
  const std::uint64_t shard = static_cast<std::uint64_t>(GetParam());
  const std::uint64_t per_shard = (1ULL << kBits) / 16;
  for (std::uint64_t i = 0; i < per_shard; ++i) {
    const std::uint64_t mask = shard * per_shard + i;
    const RunOutcome out = run_session(mask, kBits, /*toff=*/4.0);
    ASSERT_EQ(out.violations, 0u) << "mask=" << mask;
    ASSERT_TRUE(out.recovered) << "mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ExhaustiveLossSchedules, ::testing::Range(0, 16));

// The surgeon's cancel timing interacts with the loss schedule; sweep it.
class CancelTimingSweep : public ::testing::TestWithParam<double> {};

TEST_P(CancelTimingSweep, AlternatingLossPatternsStaySafe) {
  const double toff = GetParam();
  for (std::uint64_t mask : {0x155ULL, 0x2AAULL, 0x0FFULL, 0x300ULL, 0x3FFULL}) {
    const RunOutcome out = run_session(mask, 10, toff);
    EXPECT_EQ(out.violations, 0u) << "mask=" << mask << " toff=" << toff;
  }
}

INSTANTIATE_TEST_SUITE_P(Timings, CancelTimingSweep,
                         ::testing::Values(0.0, 0.5, 2.0, 8.0, 19.5, 30.0));

/// Two back-to-back sessions with the adversarial window spanning both:
/// catches cross-session interference (stale leases, leftover deadlines,
/// a second lease granted while the first is still unwinding).
struct DualSessionCase {
  std::uint64_t mask;
  double second_request_at;
};

class DualSessionSchedules : public ::testing::TestWithParam<double> {};

TEST_P(DualSessionSchedules, BackToBackSessionsStaySafe) {
  const double second_at = GetParam();
  // 64 structured masks: alternating patterns, prefix bursts, suffix
  // bursts — cheap but diverse coverage of a 16-packet window.
  for (std::uint64_t k = 0; k < 64; ++k) {
    const std::uint64_t mask =
        (k << 10) ^ (k * 0x9E37ULL) ^ ((k & 7ULL) << 13);
    auto state = std::make_shared<SharedSchedule>();
    state->mask = mask & 0xFFFF;
    state->bits = 16;
    const PatternConfig cfg = PatternConfig::laser_tracheotomy();
    sim::Rng rng(1);
    BuiltSystem built = build_pattern_system(cfg);
    hybrid::Engine engine(std::move(built.automata));
    net::StarNetwork network(engine.scheduler(), rng, 2);
    network.configure_all([&state] { return std::make_unique<SharedScheduleLoss>(state); },
                          net::ChannelConfig{0.0, 0.0, 0.0, 0.5});
    net::NetEventRouter router(network, engine, built.routes);
    PteMonitor monitor(MonitorParams::from_config(cfg));
    monitor.attach(engine, {0, 1, 2});
    engine.init();

    engine.run_until(14.0);
    engine.inject(2, events::cmd_request(2));
    engine.run_until(20.0);
    engine.inject(2, events::cmd_cancel(2));
    engine.run_until(second_at);
    engine.inject(2, events::cmd_request(2));
    engine.run_until(second_at + 200.0);
    monitor.finalize(second_at + 200.0);
    ASSERT_TRUE(monitor.violations().empty())
        << "mask=" << mask << " second_at=" << second_at << "\n"
        << monitor.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(SecondRequestTiming, DualSessionSchedules,
                         ::testing::Values(30.0, 45.0, 60.0, 75.0, 120.0));

TEST(Fuzz, SynthesizedConfigsUnderRandomLossNeverViolate) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng meta(seed * 7919);
    SynthesisRequest req;
    req.n_remotes = 2 + meta.uniform_int(3);
    for (std::size_t i = 0; i + 1 < req.n_remotes; ++i) {
      req.t_risky_min.push_back(meta.uniform(0.2, 3.0));
      req.t_safe_min.push_back(meta.uniform(0.2, 2.0));
    }
    req.initializer_lease = meta.uniform(5.0, 25.0);
    req.t_wait_max = meta.uniform(0.5, 3.0);
    req.t_fb_min_0 = meta.uniform(1.0, 5.0);
    req.delivery_slack = 0.1;
    const PatternConfig cfg = synthesize(req);
    const double p = meta.uniform(0.0, 0.9);

    sim::Rng rng(seed);
    BuiltSystem built = build_pattern_system(cfg);
    hybrid::Engine engine(std::move(built.automata));
    net::StarNetwork network(engine.scheduler(), rng, cfg.n_remotes);
    network.configure_all([p] { return std::make_unique<net::BernoulliLoss>(p); },
                          net::ChannelConfig{0.002, 0.01, 0.001, 0.5});
    net::NetEventRouter router(network, engine, built.routes);
    PteMonitor monitor(MonitorParams::from_config(cfg));
    std::vector<std::size_t> entity_of(cfg.n_remotes + 1);
    for (std::size_t i = 0; i <= cfg.n_remotes; ++i) entity_of[i] = i;
    monitor.attach(engine, entity_of);
    engine.init();

    sim::Rng stim(seed ^ 0xBEEF);
    double t = 0.0;
    const std::size_t n = cfg.n_remotes;
    while (t < 600.0) {
      t += stim.exponential(10.0);
      const std::string root =
          stim.bernoulli(0.6) ? events::cmd_request(n) : events::cmd_cancel(n);
      engine.scheduler().schedule_at(t, [&engine, n, root] { engine.inject(n, root); });
    }
    engine.run_until(800.0);
    monitor.finalize(800.0);
    EXPECT_TRUE(monitor.violations().empty())
        << "seed=" << seed << " N=" << cfg.n_remotes << " p=" << p << "\n"
        << monitor.summary();
  }
}

TEST(Fuzz, ElaboratedVentilatorUnderRandomLossNeverViolates) {
  // Same property on the full case-study system (Theorem 2: elaboration
  // preserves the guarantee), across loss models.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (int model = 0; model < 3; ++model) {
      casestudy::TrialOptions opt;
      opt.seed = seed;
      opt.duration = 600.0;
      switch (model) {
        case 0:
          opt.loss_factory = [] { return std::make_unique<net::BernoulliLoss>(0.4); };
          break;
        case 1:
          opt.loss_factory = [] {
            return std::make_unique<net::GilbertElliottLoss>(0.2, 0.3, 0.1, 0.95);
          };
          break;
        default:
          break;  // default interference model
      }
      const casestudy::TrialResult r = casestudy::run_trial(opt);
      EXPECT_EQ(r.failures, 0u) << "seed=" << seed << " model=" << model << "\n"
                                << r.summary();
    }
  }
}

}  // namespace
}  // namespace ptecps::core
