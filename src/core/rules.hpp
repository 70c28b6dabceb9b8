// Offline PTE rule checking — Definition 1 and the two PTE safety rules
// applied directly to recorded risky-dwelling intervals.
//
// The online PteMonitor judges transitions as they happen; this checker
// audits a completed execution from its interval data, using the
// *containment* formulation of Definition 1: for each pair ξi < ξi+1,
// every risky interval U of ξi+1 must be properly temporally embedded in
// some risky interval L of ξi:
//     L.begin <= U.begin - T^min_risky:i→i+1          (p1)
//     L ⊇ U                                           (p2)
//     L.end   >= U.end + T^min_safe:i+1→i             (p3)
// plus Rule 1 (every interval's duration bounded).
//
// Having two independent implementations of the same safety definition
// (transition-driven and interval-driven) lets the property tests check
// them against each other on randomized executions — a classic defence
// against "the monitor is wrong in the same way the system is".
#pragma once

#include <vector>

#include "core/monitor.hpp"

namespace ptecps::core {

/// intervals[i-1] holds entity ξi's risky intervals in chronological
/// order (e.g. from PteMonitor::intervals).
struct OfflineInput {
  MonitorParams params;
  std::vector<std::vector<RiskyInterval>> intervals;
  sim::SimTime end = 0.0;  // horizon; open intervals are judged up to here
};

/// All violations found; empty means the execution satisfies the PTE
/// safety rules.
std::vector<PteViolation> check_pte_offline(const OfflineInput& input);

}  // namespace ptecps::core
