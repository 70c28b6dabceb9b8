#include "casestudy/trial.hpp"

#include "casestudy/ventilator.hpp"
#include "core/events.hpp"
#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::casestudy {

net::StarNetwork::LossFactory default_interference_loss() {
  // One 802.11g interferer 2 m from the base station (§V setup): its
  // traffic bursts hit ALL four ZigBee links at the same wall-clock
  // moments, so the loss process is time-correlated and shared across
  // links (same period/phase on every channel), not i.i.d. per packet:
  // 5 s bursts every 20 s during which ~95 % of packets die, against a
  // ~3 % background loss (what survives MAC-level retries).  Average
  // loss ≈ 26 %.
  return [] { return std::make_unique<net::InterferenceLoss>(20.0, 5.0, 0.95, 0.03); };
}

std::string TrialResult::summary() const {
  return util::cat("emissions=", emissions, " failures=", failures, " evtToStop=",
                   evt_to_stop, " pauses=", ventilator_pauses, " sessions=", sessions,
                   " aborts=", aborts, " fires=", fire_events, " minSpO2=",
                   util::fmt_double(min_spo2 * 100.0, 1), "% maxPause=",
                   util::fmt_double(max_pause, 1), "s maxEmission=",
                   util::fmt_double(max_emission, 1), "s");
}

LaserTracheotomySystem::LaserTracheotomySystem(TrialOptions options)
    : options_(std::move(options)) {
  PTE_REQUIRE(options_.config.n_remotes == 2,
              "the laser tracheotomy case study is the N=2 instance (ventilator + scalpel)");
  rng_ = std::make_unique<sim::Rng>(options_.seed);

  // --- automata (ξ0 supervisor, ξ1 ventilator, ξ2 laser scalpel).
  core::ApprovalSpec approval;
  approval.var_name = "SpO2_measured";
  approval.init = options_.patient.spo2_init;
  approval.threshold = options_.spo2_threshold;

  core::BuiltSystem built = core::build_pattern_system(
      options_.config, approval, options_.with_lease, options_.supervisor_deadline_wait);
  if (options_.elaborate_ventilator) {
    built.automata[1] = make_ventilator_design(options_.config, options_.with_lease).automaton;
  }

  hybrid::EngineOptions engine_options;
  engine_options.record_trace = options_.record_trace;
  engine_ = std::make_unique<hybrid::Engine>(std::move(built.automata), engine_options);

  // --- wireless substrate.
  network_ = std::make_unique<net::StarNetwork>(engine_->scheduler(), *rng_, 2);
  const net::StarNetwork::LossFactory factory =
      options_.loss_factory ? options_.loss_factory : default_interference_loss();
  network_->configure_all(factory, options_.channel);
  router_ = std::make_unique<net::NetEventRouter>(*network_, *engine_, built.routes);

  // --- monitor (must observe the initial transitions).
  monitor_ = std::make_unique<core::PteMonitor>(
      core::MonitorParams::from_config(options_.config, options_.dwell_bound));
  monitor_->attach(*engine_, {0, 1, 2});

  // --- statistics observers.
  const auto& scalpel = engine_->automaton(scalpel_index());
  const hybrid::LocId scalpel_risky_core = scalpel.location_id("Risky Core");
  const auto& supervisor = engine_->automaton(supervisor_index());
  const hybrid::LocId supervisor_fb = supervisor.location_id("Fall-Back");
  engine_->add_transition_observer([this, scalpel_risky_core, supervisor_fb](
                                       std::size_t a, sim::SimTime, hybrid::LocId from,
                                       hybrid::LocId to, const std::string&) {
    if (a == scalpel_index() && to == scalpel_risky_core) ++emissions_;
    if (a == supervisor_index() && from == supervisor_fb && from != to) ++sessions_;
    if (a == supervisor_index() && to != hybrid::kNoLoc) {
      const std::string& from_name =
          from == hybrid::kNoLoc ? "" : engine_->automaton(a).location(from).name;
      const std::string& to_name = engine_->automaton(a).location(to).name;
      if (util::starts_with(to_name, "Abort") && !util::starts_with(from_name, "Abort"))
        ++aborts_;
    }
  });
  engine_->add_emit_observer(
      [this, scalpel_stop = engine_->label_id(core::events::to_stop(2)),
       vent_stop = engine_->label_id(core::events::to_stop(1))](
          std::size_t, sim::SimTime, const hybrid::SyncLabel&, hybrid::LabelId id) {
        if (id == scalpel_stop) ++evt_to_stop_;
        if (id == vent_stop) ++vent_to_stop_;
      });

  // --- ventilation predicate: the pump runs iff the cylinder moves, i.e.
  // the ventilator dwells in one of the Fig. 2 pump locations (elaborated
  // design) or in the bare pattern's Fall-Back.
  const auto& vent = engine_->automaton(ventilator_index());
  if (options_.elaborate_ventilator) {
    vent_pump_out_ = vent.location_id("PumpOut");
    vent_pump_in_ = vent.location_id("PumpIn");
  } else {
    vent_fall_back_ = vent.location_id("Fall-Back");
  }

  // --- human-in-the-loop and physiology processes.
  surgeon_ = std::make_unique<SurgeonProcess>(*engine_, scalpel_index(), 2,
                                              rng_->fork(7001), options_.surgeon);
  patient_ = std::make_unique<PatientModel>(
      *engine_, options_.patient, [this] { return ventilated(); },
      [this] { return laser_on(); });
  oximeter_ = std::make_unique<OximeterProcess>(
      *engine_, supervisor_index(),
      engine_->automaton(supervisor_index()).var_id(approval.var_name), *patient_,
      rng_->fork(7002), options_.oximeter);

  engine_->init();
  patient_->start();
  oximeter_->start();
}

bool LaserTracheotomySystem::ventilated() const {
  const hybrid::LocId loc = engine_->current_location(ventilator_index());
  if (options_.elaborate_ventilator) return loc == vent_pump_out_ || loc == vent_pump_in_;
  return loc == vent_fall_back_;
}

bool LaserTracheotomySystem::laser_on() const {
  const hybrid::LocId loc = engine_->current_location(scalpel_index());
  return engine_->automaton(scalpel_index()).location(loc).risky;
}

void LaserTracheotomySystem::run(double duration) {
  engine_->run_until(engine_->now() + duration);
}

TrialResult LaserTracheotomySystem::result() {
  if (!finalized_) {
    monitor_->finalize(engine_->now());
    finalized_ = true;
  }
  TrialResult r;
  r.emissions = emissions_;
  r.evt_to_stop = evt_to_stop_;
  r.vent_to_stop = vent_to_stop_;
  r.failures = monitor_->violations().size();
  r.violations = monitor_->violations();
  r.ventilator_pauses = monitor_->episodes(1);
  r.sessions = sessions_;
  r.aborts = aborts_;
  r.surgeon_requests = surgeon_->requests();
  r.surgeon_cancels = surgeon_->cancels();
  r.fire_events = patient_->fire_events();
  r.min_spo2 = patient_->min_spo2();
  r.max_pause = monitor_->max_dwell(1);
  r.max_emission = monitor_->max_dwell(2);
  r.network = network_->total_stats();
  return r;
}

TrialResult run_trial(const TrialOptions& options) {
  LaserTracheotomySystem system(options);
  system.run(options.duration);
  return system.result();
}

}  // namespace ptecps::casestudy
