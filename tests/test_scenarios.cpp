// The scenario library: builder lowering, the named registry, the
// prover ⇄ sampler cross-validation layer, and the PR-4 bugfix
// regressions (dropped VerifySpec::delivery_min).
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "attack/attacker.hpp"
#include "campaign/context.hpp"
#include "campaign/runner.hpp"
#include "scenarios/builder.hpp"
#include "scenarios/crossval.hpp"
#include "scenarios/registry.hpp"
#include "util/text.hpp"

namespace ptecps::scenarios {
namespace {

// ---------------------------------------------------------------------------
// Regression: to_verify_input delivery-window derivation
// ---------------------------------------------------------------------------

TEST(VerifyInputDeliveryWindow, ExplicitMinSurvivesAChannelDerivedMax) {
  // The seed bug: an explicit delivery_min was silently discarded
  // whenever delivery_max was left to the channel, so the prover checked
  // an adversary that could deliver faster than the deployment's floor.
  campaign::ScenarioSpec spec;
  spec.mode = campaign::RunMode::kVerify;
  spec.channel = net::ChannelConfig{0.005, 0.0, 0.0, 0.5};
  spec.verify.delivery_min = 0.2;
  spec.verify.delivery_max = 0.0;  // derive from the channel
  const verify::VerifyInput input = spec.verify_input();
  EXPECT_DOUBLE_EQ(input.delivery_min, 0.2);
  EXPECT_DOUBLE_EQ(input.delivery_max, 0.5);  // acceptance window
}

TEST(VerifyInputDeliveryWindow, BothBoundsDefaultToTheChannel) {
  campaign::ScenarioSpec spec;
  spec.mode = campaign::RunMode::kVerify;
  spec.channel = net::ChannelConfig{0.01, 0.02, 0.0, 0.0};  // no acceptance window
  const verify::VerifyInput input = spec.verify_input();
  EXPECT_DOUBLE_EQ(input.delivery_min, 0.01);
  EXPECT_DOUBLE_EQ(input.delivery_max, 0.03);  // delay + jitter
}

TEST(VerifyInputDeliveryWindow, ExplicitBoundsAreKept) {
  campaign::ScenarioSpec spec;
  spec.mode = campaign::RunMode::kVerify;
  spec.verify.delivery_min = 0.1;
  spec.verify.delivery_max = 0.4;
  const verify::VerifyInput input = spec.verify_input();
  EXPECT_DOUBLE_EQ(input.delivery_min, 0.1);
  EXPECT_DOUBLE_EQ(input.delivery_max, 0.4);
}

TEST(VerifyInputDeliveryWindow, ExplicitZeroFloorIsNotDerivedUp) {
  // delivery_min = 0 is the instant-delivery adversary, not "unset" —
  // the unset sentinel is negative.  Deriving it up to channel.delay
  // would weaken the checked adversary.
  campaign::ScenarioSpec spec;
  spec.mode = campaign::RunMode::kVerify;
  spec.channel = net::ChannelConfig{0.005, 0.0, 0.0, 0.5};
  spec.verify.delivery_min = 0.0;
  spec.verify.delivery_max = 0.4;
  const verify::VerifyInput input = spec.verify_input();
  EXPECT_DOUBLE_EQ(input.delivery_min, 0.0);
  EXPECT_DOUBLE_EQ(input.delivery_max, 0.4);
}

TEST(VerifyInputDeliveryWindow, EmptyWindowThrowsInsteadOfProceeding) {
  campaign::ScenarioSpec spec;
  spec.mode = campaign::RunMode::kVerify;
  spec.channel = net::ChannelConfig{0.005, 0.0, 0.0, 0.5};
  spec.verify.delivery_min = 0.7;  // above the derived max of 0.5
  EXPECT_THROW(spec.verify_input(), std::invalid_argument);
  spec.verify.delivery_min = 0.4;
  spec.verify.delivery_max = 0.2;  // explicitly inverted
  EXPECT_THROW(spec.verify_input(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

TEST(ScenarioBuilder, StimulusScriptDrivesSessions) {
  ScenarioParams params;
  params.name = "scripted";
  params.mode = campaign::RunMode::kMonteCarlo;
  params.script.period = 45.0;
  params.script.phase = 15.0;
  params.script.on_for = 25.0;
  params.horizon = 120.0;
  params.seed_count = 1;
  const campaign::ScenarioSpec spec = build(params);
  ASSERT_TRUE(spec.drive != nullptr);

  campaign::SimulationContext ctx(spec, 1);
  const campaign::RunResult r = ctx.execute();
  EXPECT_GE(r.session.sessions, 1u);      // requests actually reached the system
  EXPECT_GT(r.session.episodes[2], 0u);   // the initializer went risky
  EXPECT_EQ(r.violations, 0u);
}

TEST(ScenarioBuilder, EmptyScriptLeavesDefaultDrive) {
  ScenarioParams params;
  params.mode = campaign::RunMode::kMonteCarlo;
  const campaign::ScenarioSpec spec = build(params);
  EXPECT_TRUE(spec.drive == nullptr);
}

TEST(ScenarioBuilder, ActionBeyondHorizonThrows) {
  ScenarioParams params;
  params.horizon = 50.0;
  params.script.actions = {Action::inject(60.0, 2, "evt.x")};
  EXPECT_THROW(build(params), std::invalid_argument);
}

TEST(ScenarioBuilder, ActionEntityOutOfRangeThrows) {
  ScenarioParams params;  // laser config: N = 2
  params.script.actions = {Action::inject(10.0, 5, "evt.x")};
  EXPECT_THROW(build(params), std::invalid_argument);
}

TEST(ScenarioBuilder, ChainedBridgeCompoundsLossAndDelayPerHop) {
  ScenarioParams params;
  params.name = "chained";
  params.mode = campaign::RunMode::kMonteCarlo;
  params.topology = Topology::kChainedBridge;
  params.relay_loss = 0.05;
  params.attacker = attack::AttackerModel::bernoulli(0.1);
  params.channel.delay = 0.01;
  params.seed_count = 1;
  const campaign::ScenarioSpec spec = build(params);
  ASSERT_TRUE(spec.configure_links != nullptr);

  campaign::SimulationContext ctx(spec, 1);
  // Remote 1 is one hop out: just the end-to-end model.  Remote 2 is two
  // hops out: the end-to-end model plus one relay draw.
  EXPECT_EQ(ctx.network().uplink(1).loss_model().describe(), "bernoulli(p=0.1)");
  const std::string far = ctx.network().uplink(2).loss_model().describe();
  EXPECT_TRUE(far.find("compound(") == 0) << far;
  EXPECT_TRUE(far.find("bernoulli(p=0.05)") != std::string::npos) << far;
}

TEST(ScenarioBuilder, ChainedBridgeSetsExplicitDeliveryMin) {
  ScenarioParams params;
  params.topology = Topology::kChainedBridge;
  params.channel.delay = 0.01;
  const campaign::ScenarioSpec spec = build(params);
  EXPECT_DOUBLE_EQ(spec.verify.delivery_min, 0.01);
  const verify::VerifyInput input = spec.verify_input();
  EXPECT_DOUBLE_EQ(input.delivery_min, 0.01);
  EXPECT_DOUBLE_EQ(input.delivery_max, 0.5);
}

TEST(ScenarioBuilder, ChainedBridgeWithoutAcceptanceWindowCoversTheWorstPath) {
  // Without an acceptance window the channel-derived max would be the
  // single-hop delay + jitter — the prover would miss the slower
  // multi-hop deliveries the simulator really performs (an unsound
  // proof).  The builder must pin the max to the worst path.
  ScenarioParams params;  // laser config: N = 2 -> worst path 2 hops
  params.topology = Topology::kChainedBridge;
  params.channel = net::ChannelConfig{0.01, 0.005, 0.0, 0.0};
  const campaign::ScenarioSpec spec = build(params);
  const verify::VerifyInput input = spec.verify_input();
  EXPECT_DOUBLE_EQ(input.delivery_min, 0.01);
  EXPECT_DOUBLE_EQ(input.delivery_max, 0.025);  // 2 * delay + jitter
}

TEST(ScenarioBuilder, ChainedBridgeRejectsPathsOutrunningTheAcceptanceWindow) {
  ScenarioParams params;
  params.topology = Topology::kChainedBridge;
  params.channel.delay = 0.3;            // 2 hops -> 0.6 s worst path
  params.channel.acceptance_window = 0.5;
  EXPECT_THROW(build(params), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Registry-wide cross-validation (the PR-4 acceptance criterion)
// ---------------------------------------------------------------------------

TEST(ScenarioRegistry, HasAtLeastSixUniquelyNamedScenarios) {
  const auto& entries = registry();
  EXPECT_GE(entries.size(), 6u);
  std::set<std::string> names;
  for (const auto& e : entries) {
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate scenario name " << e.name;
    EXPECT_NE(e.summary, "");
    ASSERT_NE(e.make, nullptr);
    EXPECT_NE(find_scenario(e.name), nullptr);
  }
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
}

TEST(ScenarioRegistry, RejectsEntriesThatOptOutOfVerification) {
  // Every entry declares an expected prover verdict; a Monte-Carlo-only
  // factory would make that untestable, so build_scenario refuses it.
  RegistryEntry entry;
  entry.name = "mc-only";
  entry.make = +[] {
    ScenarioParams p;
    p.mode = campaign::RunMode::kMonteCarlo;
    return p;
  };
  EXPECT_THROW(build_scenario(entry), std::invalid_argument);
}

TEST(ScenarioRegistry, EveryScenarioCrossValidatesInBothModes) {
  const RegistryTuning tuning = RegistryTuning::smoke();
  const std::vector<campaign::ScenarioSpec> specs = build_all(tuning);
  for (const auto& spec : specs) EXPECT_EQ(spec.mode, campaign::RunMode::kBoth);

  const campaign::CampaignReport report = campaign::CampaignRunner().run(specs);
  EXPECT_TRUE(report.ok()) << report.summary();

  const CrossValidationReport crossval = cross_validate(report);
  ASSERT_EQ(crossval.checks.size(), registry().size());
  EXPECT_TRUE(crossval.ok()) << crossval.summary();

  for (std::size_t i = 0; i < registry().size(); ++i) {
    const auto& entry = registry()[i];
    const auto& outcome = report.scenarios[i];
    ASSERT_TRUE(outcome.verification.has_value()) << entry.name;
    EXPECT_EQ(outcome.verification->status, entry.expected) << entry.name;
    if (entry.expected == verify::VerifyStatus::kViolation) {
      // The broken scenarios exercise the whole counterexample pipeline:
      // found, concretized, and reproduced in the engine.
      ASSERT_TRUE(outcome.verification->counterexample.has_value()) << entry.name;
      EXPECT_TRUE(outcome.verification->replay_attempted) << entry.name;
      EXPECT_TRUE(outcome.verification->replay_reproduced) << entry.name;
      // ... and the sampler sees the same problem on ordinary seeds.
      EXPECT_GT(outcome.total_violations, 0u) << entry.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-validation verdict rules
// ---------------------------------------------------------------------------

TEST(CrossValidation, FlagsSampledViolationsInAProvedScenario) {
  campaign::CampaignReport report;
  report.scenarios.resize(1);
  campaign::ScenarioOutcome& s = report.scenarios[0];
  s.name = "fake";
  s.verification.emplace();
  s.verification->status = verify::VerifyStatus::kProved;
  s.runs.resize(2);
  s.runs[1].violations = 3;

  const CrossValidationReport crossval = cross_validate(report);
  ASSERT_EQ(crossval.checks.size(), 1u);
  EXPECT_FALSE(crossval.checks[0].consistent);
  EXPECT_FALSE(crossval.ok());
  EXPECT_EQ(crossval.checks[0].sampled_violations, 3u);
  EXPECT_EQ(crossval.checks[0].violating_runs, 1u);
}

TEST(CrossValidation, ProverOnlyViolationIsConsistent) {
  campaign::CampaignReport report;
  report.scenarios.resize(1);
  campaign::ScenarioOutcome& s = report.scenarios[0];
  s.name = "fake";
  s.verification.emplace();
  s.verification->status = verify::VerifyStatus::kViolation;
  s.verification->replay_attempted = true;
  s.verification->replay_reproduced = true;
  s.runs.resize(2);  // sampled clean

  // A kVerify-mode scenario (no Monte-Carlo runs at all) is likewise
  // consistent, but must not claim the sampler corroborated anything.
  report.scenarios.resize(2);
  campaign::ScenarioOutcome& verify_only = report.scenarios[1];
  verify_only.name = "verify-only";
  verify_only.verification.emplace();
  verify_only.verification->status = verify::VerifyStatus::kViolation;

  const CrossValidationReport crossval = cross_validate(report);
  EXPECT_TRUE(crossval.ok()) << crossval.summary();
  ASSERT_EQ(crossval.checks.size(), 2u);
  EXPECT_NE(crossval.checks[1].detail.find("no Monte-Carlo runs"), std::string::npos)
      << crossval.checks[1].detail;
}

TEST(CrossValidation, FailedReplayAndOutOfBudgetAreLoud) {
  campaign::CampaignReport report;
  report.scenarios.resize(2);
  report.scenarios[0].name = "no-replay";
  report.scenarios[0].verification.emplace();
  report.scenarios[0].verification->status = verify::VerifyStatus::kViolation;
  report.scenarios[0].verification->replay_attempted = true;
  report.scenarios[0].verification->replay_reproduced = false;
  report.scenarios[1].name = "oob";
  report.scenarios[1].verification.emplace();
  report.scenarios[1].verification->status = verify::VerifyStatus::kOutOfBudget;

  const CrossValidationReport crossval = cross_validate(report);
  ASSERT_EQ(crossval.checks.size(), 2u);
  EXPECT_FALSE(crossval.checks[0].consistent);
  EXPECT_FALSE(crossval.checks[1].consistent);
}

TEST(CrossValidation, MonteCarloOnlyScenariosAreSkipped) {
  campaign::CampaignReport report;
  report.scenarios.resize(1);
  report.scenarios[0].name = "mc-only";  // no verification outcome
  const CrossValidationReport crossval = cross_validate(report);
  EXPECT_TRUE(crossval.checks.empty());
  EXPECT_TRUE(crossval.ok());
}

TEST(CrossValidation, EveryAttackerFamilyAgreesAcrossBothLowerings) {
  // One deployment, every attacker family: the stochastic lowering (what
  // the sampler draws losses from) and the prover lowering (ammunition)
  // must never produce contradictory verdicts.  The base deployment is
  // the laser case study, proved even under a 4-loss adversary, so the
  // sampler observing a violation under ANY family would be a lowering
  // bug, not an attack.
  const attack::AttackerModel families[] = {
      attack::AttackerModel::none(),
      attack::AttackerModel::bernoulli(0.3),
      attack::AttackerModel::gilbert_elliott(0.05, 0.4, 0.02, 0.8),
      attack::AttackerModel::interference(2.0, 0.5, 0.9, 0.02),
      attack::AttackerModel::scripted({false, true, false, true}),
      attack::AttackerModel::sustained_jammer(0.8),
      attack::AttackerModel::reactive_jammer(0.8, 1.0, 0.9),
  };
  std::vector<campaign::ScenarioSpec> specs;
  for (const attack::AttackerModel& family : families) {
    const RegistryEntry* entry = find_scenario("laser-tracheotomy");
    ASSERT_NE(entry, nullptr);
    ScenarioParams p = params_for(*entry);
    p.name = util::cat("laser-", attack::attacker_kind_str(family.kind));
    p.attacker = family;
    p.attacker.with_intensity(0.5).with_budget(4);
    p.seed_count = 2;
    p.horizon = 100.0;
    apply_tuning(p, RegistryTuning::smoke());
    specs.push_back(build(p));
    // A budgeted attacker owns the prover's ammunition: floor(0.5*4).
    // The benign kind keeps the scenario's own (smoke-capped) bound.
    if (family.kind != attack::AttackerModel::Kind::kNone) {
      EXPECT_EQ(specs.back().verify.max_losses, 2u) << p.name;
    }
  }

  const campaign::CampaignReport report = campaign::CampaignRunner().run(specs);
  EXPECT_TRUE(report.ok()) << report.summary();
  const CrossValidationReport crossval = cross_validate(report);
  ASSERT_EQ(crossval.checks.size(), specs.size());
  EXPECT_TRUE(crossval.ok()) << crossval.summary();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(report.scenarios[i].verification.has_value()) << specs[i].name;
    EXPECT_EQ(report.scenarios[i].verification->status, verify::VerifyStatus::kProved)
        << specs[i].name;
    EXPECT_EQ(report.scenarios[i].total_violations, 0u) << specs[i].name;
  }
}

}  // namespace
}  // namespace ptecps::scenarios
