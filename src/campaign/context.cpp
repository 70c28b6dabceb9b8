#include "campaign/context.hpp"

#include "core/deployment.hpp"
#include "core/events.hpp"
#include "net/loss_model.hpp"
#include "util/require.hpp"

namespace ptecps::campaign {

namespace {

/// Build the spec's pattern system, compile its automata, and look up
/// the location and label ids every run's observers match on.
ScenarioPrototype compile_prototype(const ScenarioSpec& spec) {
  core::BuiltSystem built = core::build_pattern_system(spec.config, spec.approval,
                                                       spec.with_lease, spec.deadline_wait);
  ScenarioPrototype proto;
  proto.system = hybrid::compile_system(std::move(built.automata));
  proto.routes = std::move(built.routes);
  // Every pattern automaton has a Fall-Back location.
  proto.fall_back = core::SessionTracker::fall_back_sets(proto.system->automata, {});
  proto.waiting = core::SessionTracker::waiting_sets(proto.system->automata);
  for (std::size_t i = 1; i <= spec.config.n_remotes; ++i) {
    const hybrid::LabelId id = proto.system->labels.find(core::events::to_stop(i));
    if (id != hybrid::kNoLabel) proto.stop_ids.emplace_back(id, i);
  }
  return proto;
}

}  // namespace

std::shared_ptr<const ScenarioPrototype> ScenarioPrototype::build(const ScenarioSpec& spec) {
  PTE_REQUIRE(spec.custom_run == nullptr,
              "custom_run scenarios bypass the prototype machinery");
  return std::make_shared<const ScenarioPrototype>(compile_prototype(spec));
}

SimulationContext::SimulationContext(const ScenarioSpec& spec, std::uint64_t seed,
                                     std::shared_ptr<const ScenarioPrototype> prototype)
    : SimulationContext(spec, seed, prototype.get()) {}

SimulationContext::SimulationContext(const ScenarioSpec& spec, std::uint64_t seed,
                                     const ScenarioPrototype* prototype)
    : spec_(spec), seed_(seed), rng_(seed) {
  // Construction order mirrors the historical hand-wired benches so a
  // context run is event-for-event identical for the same seed.
  ScenarioPrototype standalone;
  if (!prototype) {
    standalone = compile_prototype(spec);
    prototype = &standalone;
  }
  // A run's verdicts come from its monitor: nothing reads an engine trace.
  engine_ = std::make_unique<hybrid::Engine>(prototype->system,
                                             hybrid::EngineOptions{.record_trace = false});

  network_ = std::make_unique<net::StarNetwork>(engine_->scheduler(), rng_,
                                                spec.config.n_remotes);
  const net::StarNetwork::LossFactory factory =
      spec.loss ? spec.loss(seed)
                : net::StarNetwork::LossFactory(
                      [] { return std::make_unique<net::PerfectLink>(); });
  network_->configure_all(factory, spec.channel);
  if (spec.configure_links) spec.configure_links(*network_, seed);

  router_ = std::make_unique<net::NetEventRouter>(*network_, *engine_, prototype->routes);

  const core::PatternConfig& monitor_config =
      spec.monitor_config ? *spec.monitor_config : spec.config;
  monitor_ = std::make_unique<core::PteMonitor>(
      core::MonitorParams::from_config(monitor_config, spec.dwell_bound));
  std::vector<std::size_t> entity_of(spec.config.n_remotes + 1);
  for (std::size_t i = 0; i <= spec.config.n_remotes; ++i) entity_of[i] = i;
  monitor_->attach(*engine_, std::move(entity_of));

  // Sessions and whole-system reset measurement (Theorem 1's empirical
  // counterpart), including right-censoring of sessions cut by the
  // horizon.
  session_tracker_ = std::make_unique<core::SessionTracker>(*engine_, prototype->fall_back,
                                                            prototype->waiting);

  // Lease-expiry forced stops (evtToStop emissions) per entity.  Match by
  // the interned id the engine hands every observer — integer compares
  // per emission, no string hashed or compared.
  lease_stops_.assign(spec.config.n_remotes + 1, 0);
  if (!prototype->stop_ids.empty()) {
    engine_->add_emit_observer([this, stop_ids = prototype->stop_ids](
                                   std::size_t, sim::SimTime, const hybrid::SyncLabel&,
                                   hybrid::LabelId id) {
      for (const auto& [stop_id, entity] : stop_ids) {
        if (id == stop_id) {
          ++lease_stops_[entity];
          return;
        }
      }
    });
  }

  engine_->init();
}

std::size_t SimulationContext::automaton_of(net::EntityId entity) const {
  PTE_REQUIRE(entity <= spec_.config.n_remotes, "entity id out of range");
  return entity;
}

void SimulationContext::inject(net::EntityId entity, const std::string& root) {
  engine_->inject(automaton_of(entity), root);
}

void SimulationContext::run_until(double t) { engine_->run_until(t); }

void SimulationContext::kill_uplink(net::EntityId remote) {
  network_->uplink(remote).set_loss_model(std::make_unique<net::BernoulliLoss>(1.0));
}

void SimulationContext::kill_downlink(net::EntityId remote) {
  network_->downlink(remote).set_loss_model(std::make_unique<net::BernoulliLoss>(1.0));
}

void SimulationContext::set_entity_var(net::EntityId entity, const std::string& var,
                                       double value) {
  const std::size_t a = automaton_of(entity);
  engine_->set_var(a, engine_->automaton(a).var_id(var), value);
}

RunResult SimulationContext::execute() {
  if (spec_.drive) {
    spec_.drive(*this);
  } else {
    run_until(spec_.horizon);
  }
  return collect();
}

RunResult SimulationContext::collect() {
  if (collected_) return result_;
  collected_ = true;
  monitor_->finalize(engine_->now());

  result_.seed = seed_;
  result_.violations = monitor_->violations().size();
  result_.violation_list = monitor_->violations();

  const std::size_t n = spec_.config.n_remotes;
  result_.session.episodes.assign(n + 1, 0);
  result_.session.max_dwell.assign(n + 1, 0.0);
  for (std::size_t i = 1; i <= n; ++i) {
    result_.session.episodes[i] = monitor_->episodes(i);
    result_.session.max_dwell[i] = monitor_->max_dwell(i);
  }
  result_.session.lease_stops = lease_stops_;
  session_tracker_->finalize(engine_->now());
  result_.session.sessions = session_tracker_->session_count();
  result_.session.censored_sessions = session_tracker_->censored_count();
  result_.session.max_system_reset = session_tracker_->max_system_reset();
  result_.session.transitions = engine_->transitions_taken();
  result_.session.wireless_sends = router_->wireless_sends();
  result_.network = network_->total_stats();
  if (spec_.annotate) spec_.annotate(*this, result_);
  return result_;
}

}  // namespace ptecps::campaign
