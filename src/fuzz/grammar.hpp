// Structure-aware scenario grammar: the repo's random-scenario
// generator.  It draws documents over the full schema-v2
// ScenarioDocument space — Theorem-1-consistent timing, topology,
// channel timing, every attacker family, intensity and ammunition
// budget, stimulus scripts, verify budgets — and emits only
// canonically-valid ones (every candidate passes scenarios::build()
// before it leaves).
//
// The grammar draws from QUANTIZED knob sets rather than continuous
// ranges.  Continuous draws would make every candidate's prover-visible
// deployment unique, which destroys the corpus: no two executions could
// ever share a discrete-state fingerprint, so "coverage" would grow by
// exactly one sketch per execution regardless of strategy.  Quantization
// makes the scenario space a large-but-finite grid the fuzzer can
// actually cover, collide on, and measure progress against — the same
// reason AFL buckets hit counts into powers of two.
#pragma once

#include <cstddef>
#include <string>

#include "core/config.hpp"
#include "scenarios/builder.hpp"
#include "scenarios/serialize.hpp"
#include "sim/random.hpp"

namespace ptecps::fuzz {

struct GrammarOptions {
  /// Deployment sizes drawn from {2, …, max_remotes}.  (N == 1 is
  /// outside the PTE pattern's domain — Rule 2 quantifies over entity
  /// pairs — and core::synthesize rejects it.)
  std::size_t max_remotes = 3;
  /// Distinct synthesized timing configurations per deployment size.
  /// Each pool slot is a fixed Rng stream, so slot k of size N is the
  /// same PatternConfig in every campaign — the grid the coverage
  /// metric is defined over.
  std::size_t config_pool = 6;
};

/// A random Theorem-1-consistent timing configuration for an
/// `n_remotes`-remote deployment: per-pair risky/safe safeguards
/// (0.5–2.5 s, 0.25–1.25 s), the initializer lease (6–14 s), T^max_wait
/// (1–2.5 s) and T^min_fb,0 (3–7 s) drawn uniformly, then completed by
/// core::synthesize, which throws on n_remotes < 2.  Each pool slot of
/// the grammar is one such draw.
core::PatternConfig random_config(sim::Rng& rng, std::size_t n_remotes);

/// A fresh document drawn uniformly from the quantized scenario grid.
/// Always canonically valid; named "fuzz-<digest12>" from its content.
scenarios::ScenarioDocument generate(sim::Rng& rng, const GrammarOptions& options = {});

/// Directed flip probe: re-draws ONLY the dwell fraction of an
/// edge-tier seed (0.9 / 1.0 / 1.1 of ξ1's lease), so the candidate
/// stays in the seed's structural bucket while straddling the verdict
/// boundary.  The guided scheduler aims this at edge-tier corpus
/// entries whose bucket has seen a single verdict so far — the cheapest
/// way to turn a near-miss into a verdict-flip region.  Falls back to a
/// fresh generate() when the seed is not edge-tier, when eight redraws
/// all land on the seed's own fraction, or when the candidate does not
/// build.
scenarios::ScenarioDocument flip_probe(sim::Rng& rng, const scenarios::ScenarioDocument& seed,
                                       const GrammarOptions& options = {});

/// Structural bucket "<topology>|<calm-or-attacked>|n<N>|<dwell-tier>"
/// — the granularity at which verdict-flip regions are counted.  The
/// dwell tier classifies dwell_bound against ξ1's lease t_run_max:
/// "solid" (no explicit ceiling), "broken" (comfortably below the lease
/// — a violation is reachable without a single loss), "edge"
/// (straddling the lease boundary, where the verdict genuinely depends
/// on the exact ratio), "high" (above it).  A bucket holding both a
/// proved and a violated execution is one flip region — interesting
/// because inside that region, nearby parameter values separate safe
/// deployments from unsafe ones.  (Attacker identity is deliberately
/// coarsened to prover-visible ammunition — "attacked" iff the loss
/// budget the checker receives is positive: the flip boundary is a
/// timing property, per-family buckets would need far larger exec
/// budgets to pair verdicts, and a budget-0 attacker is
/// prover-equivalent to calm.)
std::string structure_bucket(const scenarios::ScenarioParams& params);

/// Content digest of the SKETCH-relevant projection of `params`: timing
/// configuration, approval, lease/deadline toggles, the dwell ceiling
/// as a quantized ratio of ξ1's lease, topology, and verify budgets
/// (including the attacker-budget lowering).  Everything that cannot
/// move the exhaustive checker's discrete-state fingerprint set is
/// projected out: sampler-only knobs (attacker family and stochastic
/// parameters without a budget, seeds, horizon, stimulus script), but
/// also channel timing — delay and jitter reshape clock zones, not the
/// discrete key set the sketch fingerprints — and pure caps like
/// verify.max_states.  The guided scheduler dedups on this key:
/// re-executing an already-fingerprinted cell cannot yield new
/// coverage, so the exec goes to a fresh cell instead.
std::string prover_projection(const scenarios::ScenarioParams& params);

/// Canonical fuzz naming: `params.name` becomes "fuzz-<digest12>" where
/// the digest is computed content-first (with the name pinned to
/// "fuzz"), so identical content always carries an identical name and
/// therefore an identical final params_digest.
void normalize_name(scenarios::ScenarioParams& params);

}  // namespace ptecps::fuzz
