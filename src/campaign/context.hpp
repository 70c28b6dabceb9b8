// SimulationContext: the scheduler/rng/network/engine/monitor wiring that
// every bench and example used to duplicate, assembled once, correctly,
// from a ScenarioSpec.
//
// One context is one run.  Construction follows the canonical order the
// original benches used (rng → system → engine → network → router →
// monitor → init), so a context-driven run is event-for-event identical
// to the historical hand-wired code for the same seed.
//
// For campaigns the per-run construction cost matters: a ScenarioPrototype
// builds, validates and compiles a spec's system once (automata, label
// table, per-location edge tables), keeps its route list, and looks up
// once what every run's observers match on (the Fall-Back and waiting
// location ids, the lease-stop label ids).  Every run's engine shares
// that compiled system read-only.  A run copies no automaton, interns no
// label, copies no route and compares or formats no name: starting its
// engine costs one refcount bump, and its router only builds the dense
// label-id index over the prototype's routes.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/scenario.hpp"
#include "core/analysis.hpp"
#include "hybrid/engine.hpp"
#include "net/bridge.hpp"
#include "net/star_network.hpp"

namespace ptecps::campaign {

/// The spec's system, built, validated and compiled once, shared
/// (read-only) by all of the spec's runs — including runs on different
/// campaign threads.
struct ScenarioPrototype {
  /// The automata and every table the engine derives from them.
  std::shared_ptr<const hybrid::CompiledSystem> system;
  /// The wireless routes every run's router indexes.
  std::vector<net::Route> routes;
  /// Per automaton, the locations every run's SessionTracker counts as
  /// Fall-Back and as waiting ("Requesting").
  std::vector<std::vector<hybrid::LocId>> fall_back;
  std::vector<std::vector<hybrid::LocId>> waiting;
  /// (evtToStop label id, entity) of every remote whose lease can force
  /// a stop: the emissions each run counts as lease stops.
  std::vector<std::pair<hybrid::LabelId, std::size_t>> stop_ids;

  /// Rejects custom_run specs, which build their own systems, and
  /// systems with an automaton that has no Fall-Back location.
  static std::shared_ptr<const ScenarioPrototype> build(const ScenarioSpec& spec);
};

class SimulationContext {
 public:
  /// Wire one run of `spec` with `seed`.  Without a prototype the system
  /// is built and compiled from scratch — the standalone/one-shot path.
  /// The context keeps a reference to `spec`, which must outlive it (the
  /// rvalue overload is deleted so a temporary can't bind).
  /// The raw-pointer overload is the campaign hot path: a worker reuses
  /// the runner's prototype for thousands of runs, and the run's engine
  /// already takes the one refcount bump (on the compiled system) a run
  /// needs; a shared_ptr copy of the prototype would add two more.  The
  /// prototype need only outlive the constructor call.
  SimulationContext(const ScenarioSpec& spec, std::uint64_t seed,
                    const ScenarioPrototype* prototype);
  SimulationContext(const ScenarioSpec& spec, std::uint64_t seed,
                    std::shared_ptr<const ScenarioPrototype> prototype = nullptr);
  SimulationContext(ScenarioSpec&&, std::uint64_t,
                    std::shared_ptr<const ScenarioPrototype> = nullptr) = delete;

  hybrid::Engine& engine() { return *engine_; }
  net::StarNetwork& network() { return *network_; }
  net::NetEventRouter& router() { return *router_; }
  core::PteMonitor& monitor() { return *monitor_; }
  core::SessionTracker& session_tracker() { return *session_tracker_; }
  sim::Rng& rng() { return rng_; }
  const ScenarioSpec& spec() const { return spec_; }
  std::uint64_t seed() const { return seed_; }

  // -- scripting helpers (the vocabulary of the §V scenario scripts) -------
  /// Inject a stimulus to entity `e`'s automaton (reliable, local).
  void inject(net::EntityId entity, const std::string& root);
  void run_until(double t);
  /// Kill one link for the rest of the run (BernoulliLoss(1.0)).
  void kill_uplink(net::EntityId remote);
  void kill_downlink(net::EntityId remote);
  /// Write a variable of entity `e`'s automaton (sensor spoofing etc.).
  void set_entity_var(net::EntityId entity, const std::string& var, double value);

  /// Run spec.drive (default: straight to the horizon) and collect.
  RunResult execute();
  /// Finalize the monitor and gather statistics (idempotent).
  RunResult collect();

 private:
  /// Entity `entity`'s automaton (entity e runs automaton e); throws on
  /// an entity the spec lacks, since scripts name entities from documents.
  std::size_t automaton_of(net::EntityId entity) const;

  const ScenarioSpec& spec_;
  std::uint64_t seed_;
  sim::Rng rng_;
  std::unique_ptr<hybrid::Engine> engine_;
  std::unique_ptr<net::StarNetwork> network_;
  std::unique_ptr<net::NetEventRouter> router_;
  std::unique_ptr<core::PteMonitor> monitor_;
  /// Counts sessions (supervisor departures from Fall-Back), measures
  /// whole-system reset times and right-censors sessions still open at
  /// the horizon (Theorem 1 statistics).
  std::unique_ptr<core::SessionTracker> session_tracker_;
  std::vector<std::size_t> lease_stops_;
  bool collected_ = false;
  RunResult result_;
};

}  // namespace ptecps::campaign
