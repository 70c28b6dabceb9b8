// Oximeter sensor process — stand-in for the Nonin 9843 of §V, wired to
// the supervisor (it is part of entity ξ0, so its reading reaches the
// supervisor reliably).  Samples the patient's true SpO2 periodically,
// adds measurement noise, quantizes to the device resolution and writes
// the supervisor's ApprovalCondition variable via Engine::set_var — which
// immediately re-evaluates the supervisor's abort condition edges.
#pragma once

#include "casestudy/patient.hpp"
#include "hybrid/engine.hpp"
#include "sim/random.hpp"

namespace ptecps::casestudy {

struct OximeterParams {
  double period = 1.0 / 3.0;  // ~3 Hz sampling
  double noise_sd = 0.004;    // measurement noise
  double quantum = 0.01;      // 1 % display resolution
};

class OximeterProcess {
 public:
  OximeterProcess(hybrid::Engine& engine, std::size_t supervisor_automaton,
                  hybrid::VarId spo2_var, const PatientModel& patient, sim::Rng rng,
                  OximeterParams params = {});

  void start();

  std::size_t samples() const { return samples_; }

 private:
  void sample();

  hybrid::Engine& engine_;
  std::size_t supervisor_;
  hybrid::VarId spo2_var_;
  const PatientModel& patient_;
  sim::Rng rng_;
  OximeterParams params_;
  std::size_t samples_ = 0;
  bool started_ = false;
};

}  // namespace ptecps::casestudy
