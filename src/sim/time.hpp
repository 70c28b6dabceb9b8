// Simulated time.  The whole library measures time in seconds as double;
// SimTime is an alias (not a strong type) because time values flow through
// flow and crossing-time arithmetic constantly.  kTimeEps centralizes the
// tolerance used when comparing event times.
#pragma once

#include <cmath>

namespace ptecps::sim {

using SimTime = double;

/// Tolerance for comparing simulated times (1 ns at second scale).
inline constexpr SimTime kTimeEps = 1e-9;

/// a == b up to kTimeEps.
inline bool time_eq(SimTime a, SimTime b) { return std::fabs(a - b) <= kTimeEps; }

inline constexpr SimTime kSimTimeInfinity = 1e18;

}  // namespace ptecps::sim
