// Declarative scenario specifications for the campaign runtime.
//
// A ScenarioSpec describes one family of Monte-Carlo runs: the pattern
// configuration, the network conditions, the stimulus script, and the
// seeds.  The campaign layer exists because the paper's claims (Theorem 1
// under arbitrary loss, Rule 1/Rule 2 monitoring) are statements over
// *distributions* of executions — one scenario spec fans out over many
// seeds and many perturbed configurations, replacing the bespoke
// scheduler/engine/network wiring every bench used to hand-roll.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/monitor.hpp"
#include "core/pattern.hpp"
#include "net/channel.hpp"
#include "net/star_network.hpp"
#include "sim/random.hpp"
#include "verify/checker.hpp"
#include "verify/model.hpp"

namespace ptecps::campaign {

class SimulationContext;

/// How a scenario's claims are established: sampled (Monte-Carlo over the
/// seeds), proved (exhaustive zone reachability under the bounded
/// adversary — see src/verify/), or both.
enum class RunMode { kMonteCarlo, kVerify, kBoth };

/// Parameters of a scenario's `verify` / `both` mode.
struct VerifySpec {
  /// Adversary budgets (see verify::VerifyOptions).
  std::size_t max_losses = 2;
  std::size_t max_injections = 2;
  /// Environment writes (ApprovalCondition / ParticipationCondition
  /// collapse or recovery) the adversary may perform.
  std::size_t max_input_changes = 1;
  std::size_t max_states = 1'000'000;
  /// Worker threads for the exhaustive check; 0 (the default) resolves
  /// to the hardware concurrency (util::resolve_threads).  The verdict and
  /// counterexample are bit-identical at every value; the resolved count
  /// is reported back as VerificationOutcome::threads_used.
  std::size_t threads = 0;
  /// Delivery-delay window the prover assumes for surviving messages.
  /// Each bound resolves independently: delivery_min is explicit when
  /// >= 0 (0 is a legitimate floor — the instant-delivery adversary) and
  /// derived from the channel's propagation delay when negative;
  /// delivery_max is explicit when > 0 and derived from the acceptance
  /// window Δ otherwise.  The resolved window must be non-empty
  /// (min <= max).
  double delivery_min = -1.0;
  double delivery_max = 0.0;
  /// Stimuli the adversary may inject (event roots on the initializer's
  /// automaton); empty = surgeon request + cancel commands.
  std::vector<std::string> stimuli_roots;
  /// Replay a found counterexample through hybrid::Engine + PteMonitor
  /// and record whether it reproduced.
  bool replay = true;

  /// The checker options this spec asks for: its adversary budgets,
  /// state budget and thread count (POR and subsumption stay on).
  verify::VerifyOptions options() const;

  bool operator==(const VerifySpec&) const = default;
};

/// Per-run session statistics collected from the engine and monitor —
/// the campaign-level analogue of one Table I row cell.
struct SessionRecord {
  /// episodes[i] = risky entries of entity ξi (index 0 unused).
  std::vector<std::size_t> episodes;
  /// max_dwell[i] = longest continuous risky dwelling of ξi (s).
  std::vector<double> max_dwell;
  /// lease_stops[i] = lease-expiry forced stops of ξi (evtToStop
  /// emissions — the quantity Table I counts).
  std::vector<std::size_t> lease_stops;
  /// Supervisor departures from Fall-Back (core::SessionTracker's
  /// session count).
  std::size_t sessions = 0;
  /// Sessions still open at the horizon — right-censored: their true
  /// reset duration is unknown but at least what `max_system_reset`
  /// reports for them (core::SessionTracker semantics).
  std::size_t censored_sessions = 0;
  /// Worst whole-system reset observed (censored sessions contribute
  /// their elapsed time as a lower bound); 0 without sessions.
  double max_system_reset = 0.0;
  std::uint64_t transitions = 0;
  std::uint64_t wireless_sends = 0;
};

/// Everything one run produced.  Aggregation across runs happens in the
/// CampaignRunner, in deterministic (spec, seed) order.
struct RunResult {
  std::uint64_t seed = 0;
  std::size_t violations = 0;
  std::vector<core::PteViolation> violation_list;
  SessionRecord session;
  net::ChannelStats network;
  /// Scenario-specific metrics filled by ScenarioSpec::annotate.
  std::vector<double> metrics;
  double wall_seconds = 0.0;
};

struct ScenarioSpec {
  std::string name;

  // -- system under test ---------------------------------------------------
  core::PatternConfig config = core::PatternConfig::laser_tracheotomy();
  core::ApprovalSpec approval;
  bool with_lease = true;
  bool deadline_wait = true;

  // -- mode ----------------------------------------------------------------
  /// kMonteCarlo: seeds × runs.  kVerify: exhaustive check only (seeds
  /// unused).  kBoth: seeds × runs plus the exhaustive check.
  RunMode mode = RunMode::kMonteCarlo;
  VerifySpec verify;

  // -- monitoring ----------------------------------------------------------
  /// Rule 1 dwell bound; <= 0 uses config.risky_dwell_bound().
  double dwell_bound = 0.0;
  /// Monitor against a different config's safeguards (constraint-ablation
  /// scenarios perturb `config` but judge against the reference timing).
  std::optional<core::PatternConfig> monitor_config;

  // -- network -------------------------------------------------------------
  net::ChannelConfig channel{0.0, 0.0, 0.0, 0.5};
  /// Loss-model factory for one run (applied to all links); the run's seed
  /// lets schedule-style adversaries derive per-run state.  Default:
  /// PerfectLink everywhere.
  std::function<net::StarNetwork::LossFactory(std::uint64_t run_seed)> loss;
  /// Per-link customization applied after the global `loss`/`channel`
  /// setup, before the run starts — non-star topologies (a chained-bridge
  /// deployment compounds per-hop delay and relay loss onto each remote's
  /// links) and per-link adversaries (a scripted drop on one uplink) are
  /// expressed here.
  std::function<void(net::StarNetwork&, std::uint64_t run_seed)> configure_links;

  // -- execution -----------------------------------------------------------
  double horizon = 200.0;
  /// Drives one run after init(): injections, mid-run link manipulation,
  /// staged run_until calls.  Default: run straight to the horizon.
  std::function<void(SimulationContext&)> drive;
  /// Post-run hook: derive scenario-specific metrics from the live
  /// context (final locations, variable values, …) into result.metrics
  /// before the context is torn down.
  std::function<void(SimulationContext&, RunResult&)> annotate;
  /// Full per-run override bypassing the pattern-system wiring entirely
  /// (e.g. the laser-tracheotomy case-study trial with physiology).  When
  /// set, the context/prototype machinery is not used for this spec.
  std::function<RunResult(const ScenarioSpec&, std::uint64_t seed)> custom_run;

  /// One run per seed, executed independently; results are merged in seed
  /// order regardless of which thread finished first.
  std::vector<std::uint64_t> seeds = {1};

  /// seeds = base, base+1, … (the classic bench convention).
  ScenarioSpec& seed_range(std::uint64_t base, std::size_t count);
  /// seeds derived through Rng::fork(i) from one master — decorrelated
  /// streams whose derivation is independent of thread interleaving.
  ScenarioSpec& forked_seeds(std::uint64_t master_seed, std::size_t count);

  /// Build the verifier's input for this spec (pattern system + routing
  /// table + monitor parameters + adversary stimuli).  Requires a
  /// pattern-system spec (no custom_run).
  verify::VerifyInput verify_input() const;
};

}  // namespace ptecps::campaign
