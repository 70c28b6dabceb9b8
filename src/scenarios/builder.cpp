#include "scenarios/builder.hpp"

#include <algorithm>
#include <utility>

#include "campaign/context.hpp"
#include "core/events.hpp"
#include "net/star_network.hpp"
#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::scenarios {

// ---------------------------------------------------------------------------
// Actions
// ---------------------------------------------------------------------------

Action Action::inject(double t, net::EntityId entity, std::string root) {
  Action a;
  a.t = t;
  a.kind = Kind::kInject;
  a.entity = entity;
  a.name = std::move(root);
  return a;
}

Action Action::kill_uplink(double t, net::EntityId remote) {
  Action a;
  a.t = t;
  a.kind = Kind::kKillUplink;
  a.entity = remote;
  return a;
}

Action Action::kill_downlink(double t, net::EntityId remote) {
  Action a;
  a.t = t;
  a.kind = Kind::kKillDownlink;
  a.entity = remote;
  return a;
}

Action Action::set_var(double t, net::EntityId entity, std::string var, double value) {
  Action a;
  a.t = t;
  a.kind = Kind::kSetVar;
  a.entity = entity;
  a.name = std::move(var);
  a.value = value;
  return a;
}

// ---------------------------------------------------------------------------
// build()
// ---------------------------------------------------------------------------

namespace {

/// The full action list of one run: the periodic initializer duty cycle
/// expanded over the horizon, merged with the explicit actions, in time
/// order (stable: simultaneous actions keep script order).
std::vector<Action> expand_script(const ScenarioParams& params) {
  std::vector<Action> actions;
  const std::size_t n = params.config.n_remotes;
  if (params.script.period > 0.0) {
    for (double t = params.script.phase; t < params.horizon; t += params.script.period) {
      actions.push_back(Action::inject(t, n, core::events::cmd_request(n)));
      const double cancel_at = t + params.script.on_for;
      if (params.script.on_for > 0.0 && cancel_at < params.horizon)
        actions.push_back(Action::inject(cancel_at, n, core::events::cmd_cancel(n)));
    }
  }
  for (const Action& a : params.script.actions) {
    PTE_REQUIRE(a.t <= params.horizon,
                util::cat("scenario '", params.name, "': action at t=", a.t,
                          " lies beyond the horizon ", params.horizon));
    PTE_REQUIRE(a.entity <= n, util::cat("scenario '", params.name,
                                         "': action targets entity ", a.entity,
                                         " of an N=", n, " deployment"));
    actions.push_back(a);
  }
  std::stable_sort(actions.begin(), actions.end(),
                   [](const Action& a, const Action& b) { return a.t < b.t; });
  return actions;
}

void apply(const Action& a, campaign::SimulationContext& ctx) {
  switch (a.kind) {
    case Action::Kind::kInject: ctx.inject(a.entity, a.name); break;
    case Action::Kind::kKillUplink: ctx.kill_uplink(a.entity); break;
    case Action::Kind::kKillDownlink: ctx.kill_downlink(a.entity); break;
    case Action::Kind::kSetVar: ctx.set_entity_var(a.entity, a.name, a.value); break;
  }
}

/// One link's loss model in a chained-bridge deployment: the end-to-end
/// attacker model plus an independent relay draw per intermediate hop.
std::unique_ptr<net::LossModel> chained_model(const attack::AttackerModel& attacker,
                                              double relay_loss, std::size_t hops) {
  std::vector<std::unique_ptr<net::LossModel>> parts;
  parts.push_back(attacker.make());
  for (std::size_t h = 1; h < hops; ++h)
    parts.push_back(std::make_unique<net::BernoulliLoss>(relay_loss));
  if (parts.size() == 1) return std::move(parts.front());
  return std::make_unique<net::CompoundLoss>(std::move(parts));
}

}  // namespace

campaign::ScenarioSpec build(const ScenarioParams& params) {
  PTE_REQUIRE(params.horizon > 0.0,
              util::cat("scenario '", params.name, "': horizon must be positive"));

  campaign::ScenarioSpec spec;
  spec.name = params.name;
  spec.config = params.config;
  spec.approval = params.approval;
  spec.with_lease = params.with_lease;
  spec.deadline_wait = params.deadline_wait;
  spec.dwell_bound = params.dwell_bound;
  spec.mode = params.mode;
  spec.verify = params.verify;
  spec.channel = params.channel;
  spec.horizon = params.horizon;
  spec.seed_range(params.seed_base, params.seed_count);

  PTE_REQUIRE(params.attacker.intensity >= 0.0 && params.attacker.intensity <= 1.0,
              util::cat("scenario '", params.name, "': attacker intensity ",
                        params.attacker.intensity, " out of [0,1]"));
  // An attacker that declares its own ammunition owns the prover's loss
  // budget: floor(intensity * budget) messages, scaling with the same
  // knob the stochastic lowering uses.  Deliberately applied AFTER any
  // RegistryTuning caps (which act on params.verify) — sweeping the
  // intensity must be able to RAISE the budget past the smoke profile,
  // or every frontier would saturate at the cap.
  if (params.attacker.kind != attack::AttackerModel::Kind::kNone &&
      params.attacker.budget > 0) {
    spec.verify.max_losses = params.attacker.losses();
  }

  // Chained-bridge deployments configure every link individually below,
  // so the global factory would only build 2N models per run to be
  // immediately replaced.
  if (params.attacker.kind != attack::AttackerModel::Kind::kNone &&
      params.topology == Topology::kStar) {
    spec.loss = [attacker = params.attacker](std::uint64_t) {
      return net::StarNetwork::LossFactory([attacker] { return attacker.make(); });
    };
  }

  if (params.topology == Topology::kChainedBridge) {
    const std::size_t n = params.config.n_remotes;
    // The farthest remote's packets must still be acceptably young on
    // arrival, or the topology silently degenerates to 100 % loss.
    const double worst_path =
        params.channel.delay * static_cast<double>(n) + params.channel.delay_jitter;
    PTE_REQUIRE(params.channel.acceptance_window <= 0.0 ||
                    worst_path <= params.channel.acceptance_window,
                util::cat("scenario '", params.name, "': chained-bridge worst path ",
                          worst_path, " s exceeds the acceptance window ",
                          params.channel.acceptance_window, " s"));
    spec.configure_links = [channel = params.channel, attacker = params.attacker,
                            relay = params.relay_loss, n](net::StarNetwork& network,
                                                          std::uint64_t) {
      for (std::size_t r = 1; r <= n; ++r) {
        net::ChannelConfig cfg = channel;
        cfg.delay = channel.delay * static_cast<double>(r);  // r hops from the sink
        network.configure_uplink(r, chained_model(attacker, relay, r), cfg);
        network.configure_downlink(r, chained_model(attacker, relay, r), cfg);
      }
    };
    // The prover's window: the closest remote is one hop away (explicit
    // delivery_min); with an acceptance window the derived max already
    // covers every hop count (older packets count as losses), but
    // WITHOUT one the channel-derived max would be the single-hop
    // delay + jitter — slower multi-hop deliveries the simulator really
    // performs would fall outside the proved window, so pin the max to
    // the worst path explicitly.
    if (spec.verify.delivery_min < 0.0) spec.verify.delivery_min = params.channel.delay;
    if (spec.verify.delivery_max <= 0.0 && params.channel.acceptance_window <= 0.0)
      spec.verify.delivery_max = worst_path;
  }

  if (!params.script.empty()) {
    spec.drive = [actions = expand_script(params),
                  horizon = params.horizon](campaign::SimulationContext& ctx) {
      for (const Action& a : actions) {
        ctx.run_until(a.t);
        apply(a, ctx);
      }
      ctx.run_until(horizon);
    };
  }
  return spec;
}

}  // namespace ptecps::scenarios
