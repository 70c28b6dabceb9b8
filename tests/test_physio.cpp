// Tests for the simulated physical world of the case study: patient
// physiology (the §V human subject substitute), the oximeter sensor and
// the surgeon process — verifying that the physical dynamics justify the
// paper's configuration choices (3 s oxygen washout before lasing, SpO2
// threshold aborts, bounded breath-hold).
#include <gtest/gtest.h>

#include "casestudy/oximeter.hpp"
#include "casestudy/patient.hpp"
#include "casestudy/surgeon.hpp"
#include "casestudy/trial.hpp"
#include "core/events.hpp"

namespace ptecps::casestudy {
namespace {

/// A trivial host engine so the patient has a scheduler to step on.
hybrid::Automaton idle_automaton() {
  hybrid::Automaton a("idle");
  a.add_location("only");
  a.add_initial_location(0);
  return a;
}

struct PhysioHarness {
  hybrid::Engine engine{std::vector<hybrid::Automaton>{idle_automaton()}};
  bool ventilated = true;
  bool laser = false;
  PatientModel patient;

  explicit PhysioHarness(PatientParams params = {})
      : patient(engine, params, [this] { return ventilated; }, [this] { return laser; }) {
    engine.init();
    patient.start();
  }
  void run_for(double dt) { engine.run_until(engine.now() + dt); }
};

TEST(Patient, SteadyStateWhileVentilated) {
  PhysioHarness h;
  h.run_for(60.0);
  EXPECT_NEAR(h.patient.lung_o2(), 0.95, 0.01);
  EXPECT_NEAR(h.patient.spo2(), 0.99, 0.01);
  EXPECT_NEAR(h.patient.trachea_o2(), 0.90, 0.01);
  EXPECT_EQ(h.patient.fire_events(), 0u);
}

TEST(Patient, TracheaWashoutJustifiesEnterSafeguard) {
  // The paper's T^min_risky:1→2 = 3 s exists so the trachea deoxygenates
  // before the laser fires.  After 3 s of pause the trachea O2 fraction
  // must be below the ignition threshold.
  PhysioHarness h;
  h.run_for(30.0);  // settle ventilated
  h.ventilated = false;
  h.run_for(3.0);
  EXPECT_LT(h.patient.trachea_o2(), PatientParams{}.ignition_threshold);
  // ... and 1 s is NOT enough (the safeguard is load-bearing):
  PhysioHarness h2;
  h2.run_for(30.0);
  h2.ventilated = false;
  h2.run_for(1.0);
  EXPECT_GT(h2.patient.trachea_o2(), PatientParams{}.ignition_threshold);
}

TEST(Patient, FireWhenLasingIntoOxygenRichTrachea) {
  PhysioHarness h;
  h.run_for(30.0);
  h.laser = true;  // laser on while still ventilated: ignition hazard
  h.run_for(1.0);
  EXPECT_EQ(h.patient.fire_events(), 1u);
  // The latch holds while the laser stays on...
  h.run_for(5.0);
  EXPECT_EQ(h.patient.fire_events(), 1u);
  // ...and re-arms after it turns off and on again.
  h.laser = false;
  h.run_for(1.0);
  h.laser = true;
  h.run_for(1.0);
  EXPECT_EQ(h.patient.fire_events(), 2u);
}

TEST(Patient, BreathHoldDesaturatesPastThreshold) {
  // A stuck (no-lease) pause must eventually drive SpO2 below the 92 %
  // abort threshold — that is the supervisor's recovery trigger in the
  // baseline trials — but a lease-bounded 44 s pause must not crash it
  // catastrophically.
  PhysioHarness h;
  h.run_for(60.0);
  h.ventilated = false;
  h.run_for(44.0);  // worst-case with-lease pause
  const double spo2_lease_worst = h.patient.spo2();
  EXPECT_GT(spo2_lease_worst, 0.90);
  h.run_for(76.0);  // a 2-minute stuck pause
  EXPECT_LT(h.patient.spo2(), 0.92);
  EXPECT_GE(h.patient.lung_o2(), PatientParams{}.lung_floor);
  // Recovery once ventilation restarts.
  h.ventilated = true;
  h.run_for(60.0);
  EXPECT_GT(h.patient.spo2(), 0.95);
}

TEST(Patient, MinSpO2Tracked) {
  PhysioHarness h;
  h.run_for(20.0);
  h.ventilated = false;
  h.run_for(60.0);
  h.ventilated = true;
  h.run_for(60.0);
  EXPECT_LT(h.patient.min_spo2(), h.patient.spo2());
}

TEST(Oximeter, QuantizesAndWritesSupervisorVariable) {
  hybrid::Automaton supervisor("sup");
  const hybrid::VarId spo2 = supervisor.add_var("SpO2_measured", 0.98);
  supervisor.add_location("only");
  supervisor.add_initial_location(0);
  hybrid::Engine engine({std::move(supervisor)});
  bool ventilated = true;
  PatientModel patient(engine, PatientParams{}, [&] { return ventilated; },
                       [] { return false; });
  OximeterParams oparams;
  oparams.noise_sd = 0.0;  // deterministic for the quantization check
  OximeterProcess oximeter(engine, 0, spo2, patient, sim::Rng(5), oparams);
  engine.init();
  patient.start();
  oximeter.start();
  engine.run_until(10.0);
  EXPECT_GT(oximeter.samples(), 25u);  // ~3 Hz
  const double reading = engine.var(0, spo2);
  // Quantized to 1 %: the reading times 100 is integral.
  EXPECT_NEAR(reading * 100.0, std::round(reading * 100.0), 1e-9);
  EXPECT_NEAR(reading, patient.spo2(), 0.011);
}

TEST(Surgeon, ArmsTonInFallBackAndToffWhenEmitting) {
  // Surgeon drives the real initializer automaton through a full cycle.
  const auto cfg = core::PatternConfig::laser_tracheotomy();
  hybrid::Automaton scalpel = core::make_initializer(cfg);
  hybrid::Engine engine({std::move(scalpel)});
  SurgeonParams params;
  params.mean_ton = 5.0;
  params.mean_toff = 4.0;
  SurgeonProcess surgeon(engine, 0, 2, sim::Rng(9), params);
  engine.init();
  // The request fires eventually; without a supervisor the approval never
  // comes, so the scalpel bounces Requesting -> Fall-Back and re-arms.
  engine.run_until(120.0);
  EXPECT_GE(surgeon.requests(), 3u);
  EXPECT_EQ(surgeon.cancels(), 0u);  // never reached Risky Core
  // Now walk it into emission by hand: deliver the approval.
  engine.run_until(engine.now());
  // Wait until it is Requesting again, then approve.
  const hybrid::LocId requesting = engine.automaton(0).location_id("Requesting");
  while (engine.current_location(0) != requesting) engine.run_until(engine.now() + 0.5);
  engine.deliver(0, core::events::approve(2));
  engine.run_until(engine.now() + cfg.entity(2).t_enter_max + 0.1);
  // Emission started; Toff ~ Exp(4) may already have cancelled it.
  const std::string loc = engine.current_location_name(0);
  EXPECT_TRUE(loc == "Risky Core" || loc == "Exiting 1") << loc;
  // The surgeon cancels (or the lease expires) and the Ton timer re-arms
  // at Fall-Back: within 30 s the scalpel is home or requesting again.
  engine.run_until(engine.now() + 30.0);
  EXPECT_GE(surgeon.cancels(), 1u);
  const std::string end_loc = engine.current_location_name(0);
  EXPECT_TRUE(end_loc == "Fall-Back" || end_loc == "Requesting") << end_loc;
}

TEST(Trial, NoLeaseForgetfulSurgeonCausesFireHazard) {
  // Without leases and with a surgeon who never cancels, the laser keeps
  // emitting after the supervisor's bookkeeping gives up and restarts the
  // ventilator: oxygen flows into a lasing airway — the paper's
  // motivating catastrophe, visible as a physical fire event plus
  // embedding violations.  (The lease variant of the same scenario is
  // WithLeaseSurvivesForgetfulSurgeonWithoutAborts below.)
  TrialOptions opt;
  opt.seed = 31;
  opt.duration = 1800.0;
  opt.with_lease = false;
  opt.surgeon.mean_toff = 1e9;  // surgeon always forgets
  const TrialResult r = run_trial(opt);
  EXPECT_GT(r.failures, 0u) << r.summary();
  EXPECT_GT(r.max_emission, 60.0);
  EXPECT_GT(r.fire_events, 0u);
  EXPECT_EQ(r.evt_to_stop, 0u);
}

TEST(Trial, WithLeaseSurvivesForgetfulSurgeonWithoutAborts) {
  TrialOptions opt;
  opt.seed = 31;
  opt.duration = 1800.0;
  opt.with_lease = true;
  opt.surgeon.mean_toff = 1e9;
  const TrialResult r = run_trial(opt);
  EXPECT_EQ(r.failures, 0u) << r.summary();
  EXPECT_EQ(r.evt_to_stop, r.emissions);  // every emission ended by lease
  EXPECT_GT(r.min_spo2, 0.90);            // pauses bounded: no deep desaturation
}

}  // namespace
}  // namespace ptecps::casestudy
