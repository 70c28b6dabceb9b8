// Quickstart: guarantee PTE safety for your own wireless CPS in five
// steps.
//
//   1. describe the application: how many remote entities, what safeguard
//      intervals the physics demands;
//   2. synthesize configuration time constants satisfying Theorem 1's
//      closed-form constraints c1–c7 (or bring your own and check them);
//   3. build the Supervisor / Initializer / Participant pattern automata
//      and the wireless routing table;
//   4. wire them to a (lossy!) star network and a PTE safety monitor;
//   5. run — and watch the leases keep the PTE rules intact no matter
//      what the network does.
//
// Run:  ./quickstart [--loss 0.5] [--duration 600]
#include <cstdio>
#include <memory>

#include "core/constraints.hpp"
#include "core/deployment.hpp"
#include "core/events.hpp"
#include "core/monitor.hpp"
#include "core/synthesis.hpp"
#include "net/bridge.hpp"
#include "net/star_network.hpp"
#include "util/cli.hpp"

using namespace ptecps;

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv, {"duration", "loss"});
  const double loss = args.get_double("loss", 0.2);
  const double duration = args.get_double("duration", 600.0);

  // 1. The application: three remote entities forming the PTE chain
  //    xi1 < xi2 < xi3 (xi3 is the Initializer).  Entering each risky
  //    state needs 2 s of spacing below it; exiting needs 1 s.
  core::SynthesisRequest request;
  request.n_remotes = 3;
  request.t_risky_min = {2.0, 2.0};
  request.t_safe_min = {1.0, 1.0};
  request.initializer_lease = 12.0;  // xi3 may stay risky for 12 s per lease
  request.t_wait_max = 1.5;
  request.t_fb_min_0 = 4.0;

  // 2. Closed-form synthesis; the result provably satisfies c1–c7.
  const core::PatternConfig config = core::synthesize(request);
  std::printf("synthesized configuration:\n%s\n", config.describe().c_str());
  std::printf("Theorem 1 check: %s\n\n", core::check_theorem1(config).message().c_str());

  // 3. Pattern automata + routing table.
  core::BuiltSystem built = core::build_pattern_system(config);

  // 4. Engine + lossy star network + monitor.
  hybrid::Engine engine(std::move(built.automata));
  sim::Rng rng(2024);
  net::StarNetwork network(engine.scheduler(), rng, config.n_remotes);
  network.configure_all(
      [loss] { return std::make_unique<net::BernoulliLoss>(loss); },
      net::ChannelConfig{/*delay=*/0.005, /*jitter=*/0.01, /*bit_error=*/0.01,
                         /*acceptance_window=*/0.5});
  net::NetEventRouter router(network, engine, built.routes);

  core::PteMonitor monitor(core::MonitorParams::from_config(config));
  monitor.attach(engine, {0, 1, 2, 3});
  engine.init();

  // 5. Drive it: the initializer (xi3) requests every ~20 s.
  sim::Rng stim(7);
  double t = 0.0;
  while (t < duration) {
    t += stim.exponential(20.0);
    engine.scheduler().schedule_at(
        t, [&engine] { engine.inject(3, core::events::cmd_request(3)); });
  }
  engine.run_until(duration);
  monitor.finalize(duration);

  std::printf("after %.0f s at %.0f%% packet loss:\n", duration, loss * 100.0);
  std::printf("  wireless packets: %llu sent, %llu delivered, %llu lost, %llu corrupted\n",
              static_cast<unsigned long long>(network.total_stats().sent),
              static_cast<unsigned long long>(network.total_stats().delivered),
              static_cast<unsigned long long>(network.total_stats().lost),
              static_cast<unsigned long long>(network.total_stats().corrupted));
  for (std::size_t e = 1; e <= config.n_remotes; ++e)
    std::printf("  xi%zu: %zu risky episode(s), max dwell %.2f s (bound %.2f s)\n", e,
                monitor.episodes(e), monitor.max_dwell(e), config.risky_dwell_bound());
  std::printf("  PTE violations: %zu  %s\n", monitor.violations().size(),
              monitor.violations().empty() ? "— the leases held." : "(unexpected!)");
  return monitor.violations().empty() ? 0 : 1;
}
