// Campaign runtime tests: label interning, equivalence of the interned
// router with the old string-scanning broadcast, SimulationContext vs
// hand-wired assembly, and thread-count independence of campaign reports.
#include <gtest/gtest.h>

#include <memory>

#include "campaign/context.hpp"
#include "campaign/runner.hpp"
#include "core/constraints.hpp"
#include "core/deployment.hpp"
#include "core/events.hpp"
#include "core/monitor.hpp"
#include "hybrid/engine.hpp"
#include "hybrid/label_table.hpp"
#include "net/bridge.hpp"
#include "net/loss_model.hpp"
#include "net/star_network.hpp"

namespace ptecps {
namespace {

using core::PatternConfig;

// ---------------------------------------------------------------------------
// LabelTable
// ---------------------------------------------------------------------------

TEST(LabelTable, InternRoundTrip) {
  hybrid::LabelTable table;
  const hybrid::LabelId a = table.intern("evt.xi2.to.xi0.Req");
  const hybrid::LabelId b = table.intern("evt.xi0.to.xi1.LeaseReq");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.intern("evt.xi2.to.xi0.Req"), a);  // idempotent
  EXPECT_EQ(table.root_of(a), "evt.xi2.to.xi0.Req");
  EXPECT_EQ(table.root_of(b), "evt.xi0.to.xi1.LeaseReq");
  EXPECT_EQ(table.size(), 2u);
}

TEST(LabelTable, DenseIdsAndMissingRoots) {
  hybrid::LabelTable table;
  EXPECT_EQ(table.find("nope"), hybrid::kNoLabel);
  EXPECT_EQ(table.intern("a"), 0u);
  EXPECT_EQ(table.intern("b"), 1u);
  EXPECT_EQ(table.intern("c"), 2u);
  EXPECT_EQ(table.find("b"), 1u);
  EXPECT_EQ(table.find("nope"), hybrid::kNoLabel);
}

TEST(LabelTable, EngineInternsEveryAutomatonLabel) {
  core::BuiltSystem built = core::build_pattern_system(PatternConfig::laser_tracheotomy());
  std::vector<std::vector<std::string>> roots;
  for (const auto& a : built.automata) roots.push_back(a.label_roots());
  hybrid::Engine engine(std::move(built.automata));
  for (const auto& automaton_roots : roots) {
    for (const auto& root : automaton_roots)
      EXPECT_NE(engine.label_id(root), hybrid::kNoLabel) << root;
  }
  EXPECT_EQ(engine.label_id("evt.not.a.real.root"), hybrid::kNoLabel);
}

// ---------------------------------------------------------------------------
// Interned broadcast == old string-scanning broadcast
// ---------------------------------------------------------------------------

/// The pre-interning BroadcastRouter algorithm, verbatim: scan every
/// automaton's edges for a string-equal reception root per emission.
class StringScanRouter final : public hybrid::EventRouter {
 public:
  void route(hybrid::Engine& engine, std::size_t src_automaton,
             const hybrid::SyncLabel& label, hybrid::LabelId) override {
    for (std::size_t i = 0; i < engine.num_automata(); ++i) {
      if (i == src_automaton) continue;
      bool receives = false;
      for (const auto& e : engine.automaton(i).edges()) {
        if (e.kind == hybrid::TriggerKind::kEvent && e.trigger.root == label.root) {
          receives = true;
          break;
        }
      }
      if (receives) engine.deliver(i, engine.label_id(label.root));
    }
  }
};

TEST(BroadcastRouter, InternedRoutingMatchesStringScan) {
  // Run the same session twice — default (interned) broadcast vs the old
  // string-scanning algorithm — and require identical traces.
  auto run = [](hybrid::EventRouter* router) {
    core::BuiltSystem built = core::build_pattern_system(PatternConfig::laser_tracheotomy());
    hybrid::Engine engine(std::move(built.automata));
    if (router != nullptr) engine.set_router(router);
    engine.init();
    engine.run_until(14.0);
    engine.inject(2, core::events::cmd_request(2));
    engine.run_until(120.0);
    return engine;
  };
  StringScanRouter reference;
  const hybrid::Engine interned = run(nullptr);
  const hybrid::Engine scanned = run(&reference);

  EXPECT_EQ(interned.transitions_taken(), scanned.transitions_taken());
  const auto& a = interned.trace().records();
  const auto& b = scanned.trace().records();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].t, b[i].t) << "record " << i;
    EXPECT_EQ(a[i].automaton, b[i].automaton) << "record " << i;
    EXPECT_EQ(static_cast<int>(a[i].kind), static_cast<int>(b[i].kind)) << "record " << i;
    EXPECT_EQ(a[i].from, b[i].from) << "record " << i;
    EXPECT_EQ(a[i].to, b[i].to) << "record " << i;
    EXPECT_EQ(a[i].detail, b[i].detail) << "record " << i;
  }
}

// ---------------------------------------------------------------------------
// SimulationContext == hand-wired assembly (the bit-for-bit port property)
// ---------------------------------------------------------------------------

TEST(SimulationContext, MatchesHandWiredAssembly) {
  // The historical wiring, exactly as the benches used to write it.
  const PatternConfig cfg = PatternConfig::laser_tracheotomy();
  sim::Rng rng(3);
  core::BuiltSystem built = core::build_pattern_system(cfg);
  hybrid::Engine engine(std::move(built.automata));
  net::StarNetwork network(engine.scheduler(), rng, 2);
  network.configure_all([] { return std::make_unique<net::BernoulliLoss>(0.4); },
                        net::ChannelConfig{0.0, 0.0, 0.0, 0.5});
  net::NetEventRouter router(network, engine, built.routes);
  core::PteMonitor monitor(core::MonitorParams::from_config(cfg, 60.0));
  monitor.attach(engine, {0, 1, 2});
  engine.init();
  engine.run_until(14.0);
  engine.inject(2, core::events::cmd_request(2));
  engine.run_until(200.0);
  monitor.finalize(200.0);

  // The same run through a SimulationContext with the same seed.
  campaign::ScenarioSpec spec;
  spec.name = "equiv";
  spec.dwell_bound = 60.0;
  spec.loss = [](std::uint64_t) -> net::StarNetwork::LossFactory {
    return [] { return std::make_unique<net::BernoulliLoss>(0.4); };
  };
  spec.drive = [](campaign::SimulationContext& ctx) {
    ctx.run_until(14.0);
    ctx.inject(2, core::events::cmd_request(2));
    ctx.run_until(200.0);
  };
  campaign::SimulationContext ctx(spec, 3);
  const campaign::RunResult r = ctx.execute();

  EXPECT_EQ(r.violations, monitor.violations().size());
  EXPECT_EQ(r.session.transitions, engine.transitions_taken());
  EXPECT_EQ(r.session.episodes[1], monitor.episodes(1));
  EXPECT_EQ(r.session.episodes[2], monitor.episodes(2));
  EXPECT_DOUBLE_EQ(r.session.max_dwell[1], monitor.max_dwell(1));
  EXPECT_DOUBLE_EQ(r.session.max_dwell[2], monitor.max_dwell(2));
  EXPECT_EQ(r.network.sent, network.total_stats().sent);
  EXPECT_EQ(r.network.delivered, network.total_stats().delivered);
  EXPECT_EQ(r.network.lost, network.total_stats().lost);
}

TEST(SimulationContext, PrototypeSharingChangesNothing) {
  campaign::ScenarioSpec spec;
  spec.name = "proto";
  spec.loss = [](std::uint64_t) -> net::StarNetwork::LossFactory {
    return [] { return std::make_unique<net::BernoulliLoss>(0.3); };
  };
  spec.drive = [](campaign::SimulationContext& ctx) {
    ctx.run_until(14.0);
    ctx.inject(2, core::events::cmd_request(2));
    ctx.run_until(200.0);
  };
  const auto proto = campaign::ScenarioPrototype::build(spec);
  {
    // Runs share the prototype's compiled automata; none holds a copy.
    campaign::SimulationContext first(spec, 1, proto);
    campaign::SimulationContext second(spec, 2, proto);
    EXPECT_EQ(&first.engine().automaton(0), &second.engine().automaton(0));
  }
  for (std::uint64_t seed : {7ull, 8ull, 9ull}) {
    campaign::SimulationContext fresh(spec, seed);
    campaign::SimulationContext shared(spec, seed, proto);
    const campaign::RunResult a = fresh.execute();
    const campaign::RunResult b = shared.execute();
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.session.transitions, b.session.transitions);
    EXPECT_EQ(a.network.sent, b.network.sent);
    EXPECT_EQ(a.network.delivered, b.network.delivered);
  }
}

// ---------------------------------------------------------------------------
// CampaignRunner
// ---------------------------------------------------------------------------

campaign::ScenarioSpec lossy_session_spec(const char* name, double p, std::size_t seeds) {
  campaign::ScenarioSpec spec;
  spec.name = name;
  spec.dwell_bound = 60.0;
  spec.loss = [p](std::uint64_t) -> net::StarNetwork::LossFactory {
    return [p] { return std::make_unique<net::BernoulliLoss>(p); };
  };
  spec.drive = [](campaign::SimulationContext& ctx) {
    ctx.run_until(14.0);
    ctx.inject(2, core::events::cmd_request(2));
    ctx.run_until(200.0);
  };
  spec.seed_range(500, seeds);
  return spec;
}

TEST(CampaignRunner, ReportIndependentOfThreadCount) {
  const std::vector<campaign::ScenarioSpec> specs = {
      lossy_session_spec("p30", 0.3, 12), lossy_session_spec("p60", 0.6, 12)};
  campaign::CampaignOptions one;
  one.threads = 1;
  campaign::CampaignOptions four;
  four.threads = 4;
  const campaign::CampaignReport a = campaign::CampaignRunner(one).run(specs);
  const campaign::CampaignReport b = campaign::CampaignRunner(four).run(specs);

  ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
  EXPECT_EQ(a.total_runs, b.total_runs);
  EXPECT_EQ(a.total_violations, b.total_violations);
  for (std::size_t s = 0; s < a.scenarios.size(); ++s) {
    const auto& sa = a.scenarios[s];
    const auto& sb = b.scenarios[s];
    ASSERT_EQ(sa.runs.size(), sb.runs.size());
    for (std::size_t i = 0; i < sa.runs.size(); ++i) {
      EXPECT_EQ(sa.runs[i].seed, sb.runs[i].seed);  // deterministic merge order
      EXPECT_EQ(sa.runs[i].violations, sb.runs[i].violations);
      EXPECT_EQ(sa.runs[i].session.transitions, sb.runs[i].session.transitions);
      EXPECT_EQ(sa.runs[i].network.sent, sb.runs[i].network.sent);
    }
  }
}

TEST(CampaignRunner, RunExceptionsAreIsolated) {
  campaign::ScenarioSpec bad;
  bad.name = "throws";
  bad.seeds = {1, 2};
  bad.custom_run = [](const campaign::ScenarioSpec&, std::uint64_t seed) -> campaign::RunResult {
    if (seed == 1) throw std::runtime_error("boom");
    campaign::RunResult r;
    r.seed = seed;
    return r;
  };
  const campaign::CampaignReport rep = campaign::CampaignRunner().run(bad);
  EXPECT_EQ(rep.failed_runs, 1u);
  ASSERT_EQ(rep.errors.size(), 1u);
  EXPECT_NE(rep.errors[0].find("boom"), std::string::npos);
  ASSERT_EQ(rep.scenarios[0].runs.size(), 1u);  // the surviving run
  EXPECT_EQ(rep.scenarios[0].runs[0].seed, 2u);
}

TEST(CampaignRunner, JsonReportIsWellFormedEnough) {
  const campaign::CampaignReport rep =
      campaign::CampaignRunner().run(lossy_session_spec("json", 0.2, 3));
  const std::string json = rep.json();
  EXPECT_NE(json.find("\"total_runs\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"json\""), std::string::npos);
  // Balanced braces/brackets (cheap sanity, not a parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ScenarioSpec, SeedHelpers) {
  campaign::ScenarioSpec spec;
  spec.seed_range(100, 4);
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{100, 101, 102, 103}));

  spec.forked_seeds(42, 4);
  ASSERT_EQ(spec.seeds.size(), 4u);
  // Deterministic and pairwise distinct.
  campaign::ScenarioSpec again;
  again.forked_seeds(42, 4);
  EXPECT_EQ(spec.seeds, again.seeds);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = i + 1; j < 4; ++j) EXPECT_NE(spec.seeds[i], spec.seeds[j]);
}

}  // namespace
}  // namespace ptecps
