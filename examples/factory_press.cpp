// A second application domain for the PTE pattern: an industrial
// hydraulic press cell (the kind of wireless factory control loop the
// paper's introduction motivates).
//
// Three wirelessly-linked remote entities around a base station:
//   xi1  conveyor   (Participant) — "risky" = halted for press access;
//                    elaborated at Fall-Back with a belt-motor automaton
//                    (the same trick as the paper's ventilator/Fig. 2)
//   xi2  clamp      (Participant) — "risky" = engaged on the workpiece
//   xi3  press      (Initializer) — "risky" = ram descending
//
// PTE order: the belt must halt before the clamp engages (workpiece would
// shift), and the clamp must engage a safeguard interval before the ram
// descends; release happens in exactly the reverse order.  Leases bound
// every risky dwelling, so a lost release command can never leave the
// clamp crushing a workpiece or the line halted indefinitely.
//
// Run:  ./factory_press [--loss 0.35] [--duration 900]
#include <cstdio>
#include <memory>

#include "core/constraints.hpp"
#include "core/deployment.hpp"
#include "core/events.hpp"
#include "core/monitor.hpp"
#include "core/synthesis.hpp"
#include "hybrid/elaboration.hpp"
#include "net/bridge.hpp"
#include "net/star_network.hpp"
#include "util/cli.hpp"

using namespace ptecps;

namespace {

/// Belt motor: a simple hybrid automaton (Def. 3) advancing the belt
/// position between pallet stops 0.8 m apart at 0.4 m/s, pausing 1 s at
/// each stop — the conveyor's stand-alone behavior while in Fall-Back.
hybrid::Automaton make_belt_motor() {
  using namespace hybrid;
  Automaton a("belt_motor");
  const VarId pos = a.add_var("belt_pos", 0.0);
  const LocId advance = a.add_location("Advance");
  const LocId dwell = a.add_location("AtStop");
  const Guard track{std::vector<LinearConstraint>{atleast(pos, 0.0), atmost(pos, 0.8)}};
  a.set_invariant(advance, track);
  a.set_invariant(dwell, track);
  a.set_flow(advance, Flow{}.rate(pos, 0.4));
  Edge stop;
  stop.src = advance;
  stop.dst = dwell;
  stop.kind = TriggerKind::kCondition;
  stop.guard = Guard{atleast(pos, 0.8)};
  stop.note = "pallet at stop";
  a.add_edge(std::move(stop));
  Edge go;
  go.src = dwell;
  go.dst = advance;
  go.kind = TriggerKind::kTimed;
  go.dwell = 1.0;
  go.reset.set(pos, 0.0);  // next pallet pitch
  a.add_edge(std::move(go));
  a.add_initial_location(advance);
  a.set_initial_data(InitialData::kAnyInInvariant);
  a.validate();
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv, {"duration", "loss"});
  const double loss = args.get_double("loss", 0.15);
  const double duration = args.get_double("duration", 900.0);

  // Physics-driven safeguards: the belt needs 1.5 s to settle before the
  // clamp may engage; the clamp needs 0.8 s of grip before the ram moves.
  core::SynthesisRequest request;
  request.n_remotes = 3;
  request.t_risky_min = {1.5, 0.8};
  request.t_safe_min = {0.5, 0.4};
  request.initializer_lease = 6.0;  // one press stroke worth of lease
  request.t_wait_max = 1.0;
  request.t_fb_min_0 = 3.0;
  const core::PatternConfig config = core::synthesize(request);
  std::printf("=== Factory press cell (PTE chain: belt < clamp < press) ===\n\n%s\n",
              config.describe().c_str());
  std::printf("Theorem 1: %s\n\n", core::check_theorem1(config).message().c_str());

  // Build the pattern and elaborate the conveyor with the belt motor —
  // the belt physically runs only while the conveyor entity is in
  // Fall-Back (elaboration freezes belt_pos elsewhere).
  core::BuiltSystem built = core::build_pattern_system(config);
  const hybrid::Automaton belt = make_belt_motor();
  built.automata[1] = hybrid::elaborate(built.automata[1], "Fall-Back", belt).automaton;

  hybrid::Engine engine(std::move(built.automata));
  sim::Rng rng(77);
  net::StarNetwork network(engine.scheduler(), rng, 3);
  network.configure_all([loss] { return std::make_unique<net::BernoulliLoss>(loss); },
                        net::ChannelConfig{0.002, 0.004, 0.002, 0.25});
  net::NetEventRouter router(network, engine, built.routes);

  core::PteMonitor monitor(core::MonitorParams::from_config(config));
  monitor.attach(engine, {0, 1, 2, 3});
  engine.init();

  // Production controller: the press requests a stroke every ~15 s and
  // occasionally aborts one midway.
  sim::Rng stim(13);
  double t = 0.0;
  std::size_t strokes_requested = 0;
  while (t < duration) {
    t += stim.exponential(15.0);
    ++strokes_requested;
    engine.scheduler().schedule_at(
        t, [&engine] { engine.inject(3, core::events::cmd_request(3)); });
    if (stim.bernoulli(0.2)) {
      const double cancel_at = t + stim.uniform(1.0, 8.0);
      engine.scheduler().schedule_at(cancel_at, [&engine] {
        engine.inject(3, core::events::cmd_cancel(3));
      });
    }
  }
  engine.run_until(duration);
  monitor.finalize(duration);

  std::printf("after %.0f s at %.0f%% loss (%zu stroke requests):\n", duration, loss * 100.0,
              strokes_requested);
  std::printf("  completed press strokes: %zu\n", monitor.episodes(3));
  std::printf("  clamp engagements:       %zu (max %.2f s)\n", monitor.episodes(2),
              monitor.max_dwell(2));
  std::printf("  belt halts:              %zu (max %.2f s)\n", monitor.episodes(1),
              monitor.max_dwell(1));
  std::printf("  belt position now:       %.3f m (%s)\n",
              engine.var(1, engine.automaton(1).var_id("belt_pos")),
              engine.current_location_name(1).c_str());
  std::printf("  PTE violations:          %zu %s\n", monitor.violations().size(),
              monitor.violations().empty() ? "— ordering and leases held under loss."
                                           : "(unexpected!)");
  return monitor.violations().empty() ? 0 : 1;
}
