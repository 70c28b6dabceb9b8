#include "fuzz/grammar.hpp"

#include <cmath>
#include <exception>

#include "core/synthesis.hpp"
#include "scenarios/canonical.hpp"
#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::fuzz {

namespace {

using attack::AttackerModel;
using scenarios::ScenarioDocument;
using scenarios::ScenarioParams;
using scenarios::Topology;

// ---------------------------------------------------------------------------
// Quantized knob sets (see the header: the grid is the point)
// ---------------------------------------------------------------------------

constexpr double kIntensities[] = {0.25, 0.5, 0.75, 1.0};
constexpr double kBernoulliP[] = {0.05, 0.15, 0.3};
constexpr double kGePgb[] = {0.05, 0.1};
constexpr double kGePbg[] = {0.3, 0.5};
constexpr double kGeLossBad[] = {0.6, 0.8};
constexpr double kIntfPeriod[] = {1.5, 2.5};
constexpr double kIntfLossBurst[] = {0.7, 0.9};
constexpr double kSustainedKill[] = {0.1, 0.25};
constexpr double kReactiveSense[] = {0.4, 0.8};
constexpr double kReactiveJam[] = {0.5, 1.0};
constexpr double kReactiveKill[] = {0.7, 0.9};
constexpr double kDelays[] = {0.005, 0.02};
constexpr double kJitters[] = {0.0, 0.01};
constexpr double kWindows[] = {0.25, 0.5};
constexpr double kDupProbs[] = {0.0, 0.05};
/// Dwell ceilings as fractions of ξ1's lease, by tier: broken tiers have
/// a violation reachable with zero losses, edge tiers straddle the
/// boundary the flip-region metric hunts.
constexpr double kBrokenFrac[] = {0.35, 0.5, 0.65};
constexpr double kEdgeFrac[] = {0.9, 1.0, 1.1};
constexpr double kHighFrac = 1.3;
constexpr double kHorizons[] = {60.0, 120.0};
constexpr std::uint64_t kSeedBases[] = {1, 101};
constexpr std::size_t kSeedCounts[] = {2, 3};
/// Attacker ammunition budgets are drawn from {0, …, kMaxBudget}; the
/// budget lowers onto the prover's loss ammunition (build()), so this
/// bounds per-execution proof cost.
constexpr std::size_t kMaxBudget = 3;
/// Exhaustive-exploration state cap per execution (keeps one fuzz
/// execution bounded; out-of-budget is a fine fuzzing outcome).
constexpr std::size_t kMaxStates = 200'000;

template <typename T, std::size_t N>
const T& pick(sim::Rng& rng, const T (&set)[N]) {
  return set[rng.uniform_int(N)];
}

/// Fixed Rng stream of pool slot `slot` for an N-remote deployment —
/// the same PatternConfig in every campaign that ever draws it.
std::uint64_t pool_stream(std::size_t n, std::size_t slot) {
  return 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(slot) * 0x10001ULL +
         static_cast<std::uint64_t>(n);
}

AttackerModel draw_attacker(sim::Rng& rng) {
  switch (rng.uniform_int(7)) {
    case 0: return AttackerModel::none();
    case 1: return AttackerModel::bernoulli(pick(rng, kBernoulliP));
    case 2:
      return AttackerModel::gilbert_elliott(pick(rng, kGePgb), pick(rng, kGePbg), 0.02,
                                            pick(rng, kGeLossBad));
    case 3: {
      const double period = pick(rng, kIntfPeriod);
      return AttackerModel::interference(period, 0.4 * period, pick(rng, kIntfLossBurst),
                                         0.02, rng.uniform_int(2) == 0 ? 0.0 : 0.5);
    }
    case 4: {
      // Deterministic loss scripts: alternating / front-loaded patterns
      // of two quantized lengths.
      const std::size_t len = rng.uniform_int(2) == 0 ? 4 : 8;
      const bool front = rng.uniform_int(2) == 0;
      std::vector<bool> verdicts;
      for (std::size_t i = 0; i < len; ++i)
        verdicts.push_back(front ? i < len / 2 : i % 2 == 0);
      return AttackerModel::scripted(std::move(verdicts));
    }
    case 5: return AttackerModel::sustained_jammer(pick(rng, kSustainedKill));
    default:
      return AttackerModel::reactive_jammer(pick(rng, kReactiveSense),
                                            pick(rng, kReactiveJam),
                                            pick(rng, kReactiveKill));
  }
}

void draw_intensity_budget(sim::Rng& rng, AttackerModel& a) {
  if (a.kind == AttackerModel::Kind::kNone) return;
  a.with_intensity(pick(rng, kIntensities));
  a.with_budget(rng.uniform_int(kMaxBudget + 1));
}

void draw_channel(sim::Rng& rng, ScenarioParams& p) {
  p.channel.delay = pick(rng, kDelays);
  p.channel.delay_jitter = pick(rng, kJitters);
  p.channel.acceptance_window = pick(rng, kWindows);
  p.channel.duplicate_prob = pick(rng, kDupProbs);
  p.channel.duplicate_lag = p.channel.duplicate_prob > 0.0 ? 0.01 : 0.0;
}

void draw_dwell(sim::Rng& rng, ScenarioParams& p) {
  const double lease = p.config.entity(1).t_run_max;
  switch (rng.uniform_int(4)) {
    case 0: p.dwell_bound = 0.0; break;
    case 1: p.dwell_bound = lease * pick(rng, kBrokenFrac); break;
    case 2: p.dwell_bound = lease * pick(rng, kEdgeFrac); break;
    default: p.dwell_bound = lease * kHighFrac; break;
  }
}

void draw_script(sim::Rng& rng, ScenarioParams& p) {
  const std::size_t n = p.config.n_remotes;
  p.script = scenarios::StimulusScript{};
  const std::uint64_t shape = rng.uniform_int(3);
  if (shape == 0) return;  // run straight to the horizon
  // One full session cycle per period, derived from the (pool-slot
  // deterministic) timing configuration.
  p.script.period = p.config.t_fb_min_0 + p.config.entity(n).occupancy() +
                    2.0 * p.config.t_wait_max + 2.0;
  p.script.phase = 2.0;
  p.script.on_for =
      rng.uniform_int(2) == 0 ? 0.0 : 0.6 * p.config.entity(n).t_run_max;
  if (shape == 2) {
    // A mid-session uplink kill on ξ1 — the adversarial stimulus the
    // replay layer exercises.
    p.script.actions.push_back(scenarios::Action::kill_uplink(
        p.script.phase + 0.5 * p.script.period, 1));
  }
}

void draw_verify(sim::Rng& rng, ScenarioParams& p) {
  p.verify = campaign::VerifySpec{};
  p.verify.max_losses = 1 + rng.uniform_int(2);
  p.verify.max_injections = 1 + rng.uniform_int(2);
  p.verify.max_input_changes = rng.uniform_int(2);
  p.verify.max_states = kMaxStates;
}

/// A deployment size N and a pool slot, then that slot's configuration
/// from its fixed stream.
core::PatternConfig draw_config(sim::Rng& rng, const GrammarOptions& opts) {
  const std::size_t n = 2 + rng.uniform_int(opts.max_remotes >= 2 ? opts.max_remotes - 1 : 1);
  const std::size_t slot = rng.uniform_int(opts.config_pool ? opts.config_pool : 1);
  sim::Rng config_rng(pool_stream(n, slot));
  return random_config(config_rng, n);
}

ScenarioParams draw_params(sim::Rng& rng, const GrammarOptions& opts) {
  ScenarioParams p;
  p.config = draw_config(rng, opts);
  draw_dwell(rng, p);
  p.attacker = draw_attacker(rng);
  draw_intensity_budget(rng, p.attacker);
  draw_channel(rng, p);
  p.topology = rng.uniform_int(3) == 0 ? Topology::kChainedBridge : Topology::kStar;
  draw_script(rng, p);
  draw_verify(rng, p);
  p.mode = campaign::RunMode::kBoth;
  p.horizon = pick(rng, kHorizons);
  p.seed_base = pick(rng, kSeedBases);
  p.seed_count = pick(rng, kSeedCounts);
  p.with_lease = rng.uniform_int(4) != 0;
  p.deadline_wait = rng.uniform_int(4) != 0;
  return p;
}

/// Validity gate: a candidate leaves the grammar only if build()
/// accepts it end to end (script within horizon, chained worst path
/// inside the acceptance window, non-empty delivery window, …).
bool builds(const ScenarioParams& p) {
  try {
    (void)scenarios::build(p);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

ScenarioDocument finish(ScenarioParams p) {
  normalize_name(p);
  ScenarioDocument doc;
  doc.params = std::move(p);
  return doc;
}

}  // namespace

core::PatternConfig random_config(sim::Rng& rng, std::size_t n_remotes) {
  core::SynthesisRequest request;
  request.n_remotes = n_remotes;
  for (std::size_t i = 0; i + 1 < n_remotes; ++i) {
    request.t_risky_min.push_back(0.5 + rng.uniform(0.0, 2.0));
    request.t_safe_min.push_back(0.25 + rng.uniform(0.0, 1.0));
  }
  request.initializer_lease = 6.0 + rng.uniform(0.0, 8.0);
  request.t_wait_max = 1.0 + rng.uniform(0.0, 1.5);
  request.t_fb_min_0 = 3.0 + rng.uniform(0.0, 4.0);
  return core::synthesize(request);
}

void normalize_name(ScenarioParams& params) {
  params.name = "fuzz";
  const std::string digest = scenarios::params_digest(params);
  params.name = util::cat("fuzz-", digest.substr(0, 12));
}

ScenarioDocument generate(sim::Rng& rng, const GrammarOptions& options) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    ScenarioParams p = draw_params(rng, options);
    if (builds(p)) return finish(std::move(p));
  }
  // The quantized sets are chosen to always compose (worst chained path
  // 3 * 0.02 + 0.01 = 0.07 s < the tightest 0.25 s window), so running
  // dry is a grammar bug, not an input condition.
  PTE_REQUIRE(false, "fuzz grammar failed to draw a valid scenario in 64 attempts");
  return {};
}

ScenarioDocument flip_probe(sim::Rng& rng, const ScenarioDocument& seed,
                            const GrammarOptions& options) {
  ScenarioParams p = seed.params;
  const double lease = p.config.entity(1).t_run_max;
  const double ratio = lease > 0.0 && p.dwell_bound > 0.0 ? p.dwell_bound / lease : 0.0;
  // Tier boundaries mirror structure_bucket: re-draw the fraction WITHIN
  // the edge tier so the candidate lands in the same structural bucket
  // with a different verdict boundary — the directed move that pairs a
  // proved with a violated execution.
  if (ratio >= 0.85 && ratio <= 1.15) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const double f = pick(rng, kEdgeFrac);
      if (std::abs(f - ratio) <= 1e-9) continue;
      p.dwell_bound = lease * f;
      if (builds(p)) return finish(std::move(p));
      break;
    }
  }
  // Not edge-tier, every redraw hit the seed's own fraction, or the
  // candidate does not build: spend the exec on a fresh document.
  return generate(rng, options);
}

std::string structure_bucket(const ScenarioParams& params) {
  const double lease = params.config.entity(1).t_run_max;
  const double ratio = lease > 0.0 ? params.dwell_bound / lease : 0.0;
  const char* tier = "solid";
  if (params.dwell_bound > 0.0) {
    if (ratio < 0.85) {
      tier = "broken";
    } else if (ratio <= 1.15) {
      tier = "edge";
    } else {
      tier = "high";
    }
  }
  // "attacked" means the PROVER sees ammunition (an attacker with a
  // positive loss budget) — a budget-0 attacker is prover-equivalent to
  // calm, and splitting on mere presence would carve regions the
  // exhaustive checker cannot distinguish.
  const bool armed = params.attacker.kind != AttackerModel::Kind::kNone &&
                     params.attacker.losses() > 0;
  return util::cat(params.topology == Topology::kStar ? "star" : "chained-bridge", "|",
                   armed ? "attacked" : "calm", "|n", params.config.n_remotes, "|",
                   tier);
}

std::string prover_projection(const ScenarioParams& params) {
  // Start from defaults and copy ONLY what moves the exhaustive
  // checker's DISCRETE-state fingerprint set: sampler-only knobs must
  // digest identically or the guided scheduler would mistake stochastic
  // variety for coverage potential.  Channel timing is deliberately
  // excluded too — it reshapes zones (clock regions), not the discrete
  // key set the StateSketch fingerprints, so two candidates differing
  // only in delay/jitter would buy a duplicate sketch.  The dwell
  // ceiling enters as its QUANTIZED RATIO to ξ1's lease rather than the
  // absolute value: the ratio is what decides the verdict, and keeping
  // distinct ratios distinct is what lets the scheduler probe both
  // sides of a flip boundary (0.9 vs 1.1 of the lease are different
  // cells; the same ratio over two configs of different absolute
  // timing is not).
  ScenarioParams q;
  q.name = "projection";
  q.config = params.config;
  q.approval = params.approval;
  q.with_lease = params.with_lease;
  q.deadline_wait = params.deadline_wait;
  const double lease = params.config.entity(1).t_run_max;
  const double ratio = params.dwell_bound > 0.0 && lease > 0.0
                           ? std::round(params.dwell_bound / lease * 100.0) / 100.0
                           : 0.0;
  if (ratio > 1.15) {
    // A ceiling above the lease never trips: prover-equivalent to none.
    q.dwell_bound = 0.0;
  } else if (ratio > 0.0 && ratio < 0.85) {
    // Comfortably-broken ceilings all truncate the exploration at the
    // same first dwell exceedance — one sketch class regardless of the
    // exact fraction.
    q.dwell_bound = 0.5;
  } else {
    // Edge ratios stay distinct: this is where the exact value decides
    // the verdict, and where the flip probe needs fresh cells.
    q.dwell_bound = ratio;
  }
  q.topology = params.topology;
  q.verify = params.verify;
  q.verify.max_states = 0;  // a cap, not a deployment property
  q.verify.replay = true;
  if (params.attacker.kind != AttackerModel::Kind::kNone && params.attacker.budget > 0)
    q.verify.max_losses = params.attacker.losses();
  return scenarios::params_digest(q);
}

}  // namespace ptecps::fuzz
