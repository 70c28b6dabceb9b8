// Assembly of a complete PTE wireless CPS from a configuration: the
// pattern automata for ξ0..ξN plus the wireless routing table for the
// star network (which event root travels on which uplink/downlink).
//
// Entity ξe runs automata[e]: the supervisor is automaton 0, remote ξi
// is automaton i.  This is the one place that fixes the correspondence;
// the router (net::NetEventRouter), the monitor wiring, the prover's
// routes and the campaign's scripting helpers all rely on it, so none of
// them carries an entity-to-automaton map.
//
// This is the "turn the design pattern into a running system" entry
// point used by the examples and the case study.  Participants can be
// elaborated afterwards (hybrid::elaborate) — elaboration preserves
// location names, event roots, and risky classification, so the routing
// table and monitor wiring remain valid (Theorem 2).
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/pattern.hpp"
#include "net/bridge.hpp"

namespace ptecps::core {

struct BuiltSystem {
  /// automata[0] = ξ0 (Supervisor), automata[i] = ξi; i = 1..N-1
  /// Participants, automata[N] = the Initializer.
  std::vector<hybrid::Automaton> automata;
  /// Every wireless route, as net::NetEventRouter takes them.
  std::vector<net::Route> routes;
};

/// Build the N+1 pattern automata and the routing table.  `deadline_wait`
/// forwards to make_supervisor (false = the unsound ablation).
BuiltSystem build_pattern_system(const PatternConfig& config,
                                 const ApprovalSpec& approval = {},
                                 bool with_lease = true, bool deadline_wait = true);

}  // namespace ptecps::core
