#include "campaign/scenario.hpp"

#include <algorithm>

#include "core/deployment.hpp"
#include "core/events.hpp"
#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::campaign {

verify::VerifyOptions VerifySpec::options() const {
  verify::VerifyOptions out;
  out.max_losses = max_losses;
  out.max_injections = max_injections;
  out.max_input_changes = max_input_changes;
  out.max_states = max_states;
  out.threads = threads;
  return out;
}

ScenarioSpec& ScenarioSpec::seed_range(std::uint64_t base, std::size_t count) {
  seeds.clear();
  for (std::size_t i = 0; i < count; ++i) seeds.push_back(base + i);
  return *this;
}

ScenarioSpec& ScenarioSpec::forked_seeds(std::uint64_t master_seed, std::size_t count) {
  sim::Rng master(master_seed);
  seeds.clear();
  for (std::size_t i = 0; i < count; ++i) seeds.push_back(master.fork(i).next_u64());
  return *this;
}

verify::VerifyInput ScenarioSpec::verify_input() const {
  PTE_REQUIRE(custom_run == nullptr, "verify mode needs a pattern-system spec");
  core::BuiltSystem built =
      core::build_pattern_system(config, approval, with_lease, deadline_wait);

  // Entity e runs automaton e, so an entity id is an automaton index.
  verify::VerifyInput input;
  for (net::Route& r : built.routes)
    input.routes.push_back(verify::VerifyInput::Route{std::move(r.root), r.src, r.dst});
  input.automata = std::move(built.automata);

  const core::PatternConfig& mon_config = monitor_config ? *monitor_config : config;
  input.monitor = core::MonitorParams::from_config(mon_config, dwell_bound);

  // Adversary stimuli: the initializer's human commands by default.
  const std::size_t n = config.n_remotes;
  const std::size_t initializer = n;
  if (verify.stimuli_roots.empty()) {
    input.stimuli.push_back({initializer, core::events::cmd_request(n)});
    input.stimuli.push_back({initializer, core::events::cmd_cancel(n)});
  } else {
    for (const std::string& root : verify.stimuli_roots)
      input.stimuli.push_back({initializer, root});
  }

  // Adversarial environment writes: the supervisor's ApprovalCondition
  // and every participant's ParticipationCondition may collapse below
  // their thresholds (and the approval may recover) at any instant —
  // this is what reaches the Abort / LeaseDeny paths exhaustively.
  const std::size_t supervisor = 0;
  input.toggles.push_back({supervisor, approval.var_name, approval.threshold - 1.0});
  input.toggles.push_back({supervisor, approval.var_name, approval.init});
  const core::ParticipationSpec participation;
  for (std::size_t i = 1; i < n; ++i)
    input.toggles.push_back({i, participation.var_name, participation.threshold - 1.0});

  // Delivery window: each bound resolves independently — explicit, or
  // derived from the channel (any delay from the base propagation up to
  // the acceptance window Δ; jitter and late rejection are subsumed by
  // that worst case).  An explicit delivery_min must not be discarded
  // just because delivery_max is left to the channel, or the prover
  // would check a weaker adversary (it could deliver faster than the
  // deployment's floor ever allows); conversely an explicit floor of 0
  // (the instant-delivery adversary) must not be "derived" up to the
  // channel delay — hence the negative unset sentinel.
  const double derived_max = channel.acceptance_window > 0.0
                                 ? std::max(channel.acceptance_window, channel.delay)
                                 : channel.delay + channel.delay_jitter;
  input.delivery_min = verify.delivery_min >= 0.0 ? verify.delivery_min : channel.delay;
  input.delivery_max = verify.delivery_max > 0.0 ? verify.delivery_max : derived_max;
  PTE_REQUIRE(input.delivery_min <= input.delivery_max,
              util::cat("scenario '", name, "': delivery window [",
                        input.delivery_min, ", ", input.delivery_max, "] is empty"));
  return input;
}

}  // namespace ptecps::campaign
