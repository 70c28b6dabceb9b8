#include "casestudy/oximeter.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace ptecps::casestudy {

OximeterProcess::OximeterProcess(hybrid::Engine& engine, std::size_t supervisor_automaton,
                                 hybrid::VarId spo2_var, const PatientModel& patient,
                                 sim::Rng rng, OximeterParams params)
    : engine_(engine), supervisor_(supervisor_automaton), spo2_var_(spo2_var),
      patient_(patient), rng_(rng), params_(params) {
  PTE_REQUIRE(params_.period > 0.0, "oximeter period must be positive");
  PTE_REQUIRE(params_.quantum > 0.0, "oximeter quantum must be positive");
}

void OximeterProcess::start() {
  PTE_REQUIRE(!started_, "oximeter already started");
  started_ = true;
  engine_.scheduler().schedule_in(params_.period, [this] { sample(); });
}

void OximeterProcess::sample() {
  double reading = patient_.spo2() + rng_.normal(0.0, params_.noise_sd);
  reading = std::clamp(reading, 0.0, 1.0);
  // Device resolution (the Nonin 9843 reports integer percent).
  reading = std::round(reading / params_.quantum) * params_.quantum;
  ++samples_;
  engine_.set_var(supervisor_, spo2_var_, reading);
  engine_.scheduler().schedule_in(params_.period, [this] { sample(); });
}

}  // namespace ptecps::casestudy
