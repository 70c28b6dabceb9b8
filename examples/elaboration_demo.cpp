// The elaboration methodology (§IV-C) as an API tour: independence
// (Def. 2), simplicity (Def. 3), atomic elaboration E(A, v, A′), the
// semantic guarantees (parent flow inside, child frozen outside), the
// projection back to the pattern, and the Theorem 2 compliance check —
// everything a designer needs to refine a design-pattern automaton into a
// concrete device without forfeiting the PTE safety proof.
//
// Run:  ./elaboration_demo [--dot]
#include <cstdio>

#include "casestudy/ventilator.hpp"
#include "core/compliance.hpp"
#include "core/config.hpp"
#include "core/events.hpp"
#include "core/pattern.hpp"
#include "hybrid/dot_export.hpp"
#include "hybrid/elaboration.hpp"
#include "hybrid/engine.hpp"
#include "hybrid/independence.hpp"
#include "util/cli.hpp"

using namespace ptecps;

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv, {"dot"});
  const bool dot = args.has_flag("dot");
  const auto config = core::PatternConfig::laser_tracheotomy();

  // The two ingredients: the Participant pattern automaton and the
  // stand-alone ventilator of Fig. 2.
  const hybrid::Automaton pattern = core::make_participant(config, 1);
  const hybrid::Automaton vent = casestudy::make_standalone_ventilator();
  std::printf("=== ingredients ===\n");
  std::printf("pattern: %zu locations / %zu edges;  child: %zu locations / %zu edges\n\n",
              pattern.num_locations(), pattern.num_edges(), vent.num_locations(),
              vent.num_edges());

  // Preconditions of E(A, v, A'):
  std::printf("Definition 2 (independence):  %s\n",
              hybrid::check_independent(pattern, vent).message().c_str());
  std::printf("Definition 3 (simplicity):    %s\n\n",
              hybrid::check_simple(vent).message().c_str());

  // The elaboration itself.
  const hybrid::Elaboration design = hybrid::elaborate(pattern, "Fall-Back", vent);
  std::printf("=== E(A_ptcpnt,1, Fall-Back, A'_vent) ===\n%s\n",
              hybrid::to_text(design.automaton).c_str());
  if (dot) std::printf("--- DOT ---\n%s\n", hybrid::to_dot(design.automaton).c_str());

  // Semantics: run it and watch the pump freeze while leased.
  hybrid::Engine engine({design.automaton});
  engine.init();
  const hybrid::VarId h = engine.automaton(0).var_id("Hvent");
  engine.run_until(4.0);
  const double h_pumping = engine.var(0, h);
  // The lease arrives: leave the pump.
  engine.deliver(0, engine.label_id(core::events::lease_req(1)));
  engine.run_until(10.0);  // deep in Entering/Risky Core
  const double h_frozen = engine.var(0, h);
  std::printf("=== semantics check ===\n");
  std::printf("Hvent after 4 s of pumping:        %.3f m (moving)\n", h_pumping);
  std::printf("Hvent 6 s into the leased episode: %.3f m (frozen: pump halted)\n",
              h_frozen);
  std::printf("current location: %s (projects to pattern location '%s')\n\n",
              engine.current_location_name(0).c_str(),
              hybrid::project_location({design.info},
                                       engine.current_location_name(0)).c_str());

  // Theorem 2 compliance of the full case-study design.
  const hybrid::Automaton supervisor = core::make_supervisor(config);
  const hybrid::Automaton scalpel = core::make_initializer(config);
  core::ComplianceInput input;
  input.config = &config;
  input.designs = {&supervisor, &design.automaton, &scalpel};
  input.plans.resize(3);
  input.plans[1].at.emplace_back("Fall-Back", &vent);
  const hybrid::CheckResult result = core::check_theorem2(input);
  std::printf("=== Theorem 2 compliance of the whole design ===\n%s\n",
              result.ok ? "PASS — the elaborated system inherits the PTE guarantee"
                        : result.message().c_str());
  return result.ok ? 0 : 1;
}
