// Declarative scenario construction: one ScenarioParams describes a whole
// N-entity PTE deployment — timing configuration, network topology and
// attacker model, stimulus script, run mode and adversary budgets — and
// build() lowers it onto the campaign runtime (a campaign::ScenarioSpec
// with the loss factory, per-link topology wiring, and drive script
// assembled consistently for BOTH execution modes: the Monte-Carlo
// sampler and the exhaustive prover see the same deployment).
//
// The hostile environment is ONE attack::AttackerModel: build() lowers
// it to a stochastic net::LossModel factory for the sampler and — when
// the attacker declares a budget — to the prover's loss ammunition
// (verify.max_losses = attacker.losses()), so one document drives both
// backends from the same intensity knob.
//
// This replaces the per-bench hand-wiring the repo grew up with: the §V
// laser tracheotomy and the factory press used to be the only two
// deployments anyone ran, because each one was ~60 lines of scheduler /
// engine / network / monitor assembly.  A ScenarioParams is ~10 lines,
// and registry.hpp keeps a library of named ones.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/attacker.hpp"
#include "campaign/scenario.hpp"
#include "core/config.hpp"
#include "core/pattern.hpp"
#include "net/channel.hpp"
#include "net/loss_model.hpp"

namespace ptecps::scenarios {

/// How the remote entities reach the base station.
///   kStar          — the paper's §II-B sink topology: one hop per remote.
///   kChainedBridge — remote i sits i hops from the sink behind a daisy
///                    chain of relay bridges: its links get hop-scaled
///                    propagation delay and one independent relay-loss
///                    draw per intermediate hop (CompoundLoss).  The
///                    prover sees the same deployment through its
///                    delivery window: an explicit delivery_min (one hop)
///                    with the acceptance-window-derived max.
enum class Topology { kStar, kChainedBridge };

/// One scripted action of a run's drive (applied at time `t`, in order).
struct Action {
  enum class Kind { kInject, kKillUplink, kKillDownlink, kSetVar };
  double t = 0.0;
  Kind kind = Kind::kInject;
  net::EntityId entity = 0;
  /// kInject: event root; kSetVar: variable name.
  std::string name;
  /// kSetVar only.
  double value = 0.0;

  static Action inject(double t, net::EntityId entity, std::string root);
  static Action kill_uplink(double t, net::EntityId remote);
  static Action kill_downlink(double t, net::EntityId remote);
  static Action set_var(double t, net::EntityId entity, std::string var, double value);

  bool operator==(const Action&) const = default;
};

/// The run's stimulus script: a periodic initializer duty cycle (the
/// surgeon / production-controller pattern every bench used) merged with
/// explicit timed actions.  Empty script = run straight to the horizon.
struct StimulusScript {
  /// > 0: inject cmd_request(N) at phase, phase+period, … (< horizon).
  double period = 0.0;
  double phase = 10.0;
  /// > 0: inject cmd_cancel(N) this long after each request.
  double on_for = 0.0;
  std::vector<Action> actions;

  bool empty() const { return period <= 0.0 && actions.empty(); }

  bool operator==(const StimulusScript&) const = default;
};

struct ScenarioParams {
  std::string name = "scenario";

  // -- system under test ---------------------------------------------------
  core::PatternConfig config = core::PatternConfig::laser_tracheotomy();
  core::ApprovalSpec approval;
  bool with_lease = true;
  bool deadline_wait = true;
  /// Rule 1 dwell ceiling to judge against; <= 0 uses the config's bound.
  double dwell_bound = 0.0;

  // -- network -------------------------------------------------------------
  Topology topology = Topology::kStar;
  /// kChainedBridge: per-hop relay loss probability (each intermediate
  /// hop draws independently).
  double relay_loss = 0.02;
  net::ChannelConfig channel{0.005, 0.0, 0.0, 0.5};
  /// The hostile environment, applied to every link of the deployment
  /// factory-style (each link of each run gets a fresh stochastic
  /// instance, so stateful models never leak state across links or
  /// runs).  When the attacker declares a budget, build() also lowers
  /// it onto verify.max_losses — the attacker, not the hand-set verify
  /// block, then owns the prover's loss ammunition.
  attack::AttackerModel attacker;

  // -- execution -----------------------------------------------------------
  double horizon = 200.0;
  StimulusScript script;
  std::uint64_t seed_base = 1;
  std::size_t seed_count = 8;

  // -- mode ----------------------------------------------------------------
  campaign::RunMode mode = campaign::RunMode::kBoth;
  campaign::VerifySpec verify;

  /// Field-wise equality — the serialization round-trip test's oracle
  /// (scenarios/serialize.hpp): from_json(to_json(p)) == p exactly.
  bool operator==(const ScenarioParams&) const = default;
};

/// Lower `params` onto the campaign runtime.  Throws std::invalid_argument
/// (PTE_REQUIRE) on inconsistent parameters — a scripted action beyond the
/// horizon, a chained topology whose worst-case path outruns the receiver
/// acceptance window, an empty delivery window.
campaign::ScenarioSpec build(const ScenarioParams& params);

}  // namespace ptecps::scenarios
