#include "hybrid/elaboration.hpp"

#include <algorithm>

#include "hybrid/structural.hpp"
#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::hybrid {

Elaboration elaborate(const Automaton& a, const std::string& location_v,
                      const Automaton& a_prime) {
  const CheckResult indep = check_independent(a, a_prime);
  PTE_REQUIRE(indep.ok, util::cat("E(", a.name(), ", ", location_v, ", ", a_prime.name(),
                                  "): not independent — ", indep.message()));
  const CheckResult simple = check_simple(a_prime);
  PTE_REQUIRE(simple.ok, util::cat("E(", a.name(), ", ", location_v, ", ", a_prime.name(),
                                   "): child not simple — ", simple.message()));
  const LocId v = a.location_id(location_v);

  ElaborationInfo info;
  info.parent_name = a.name();
  info.child_name = a_prime.name();
  info.elaborated_location = location_v;
  info.var_offset = a.num_vars();
  info.child_var_count = a_prime.num_vars();
  for (const auto& loc : a_prime.locations()) info.child_locations.push_back(loc.name);
  for (LocId i : a_prime.initial_locations())
    info.child_initial_locations.push_back(a_prime.location(i).name);

  Automaton out(a.name());

  // ---- variables: parent's, then child's (shifted), then maybe a clock.
  for (VarId x = 0; x < a.num_vars(); ++x) out.add_var(a.var_name(x), a.var_init(x));
  for (VarId x = 0; x < a_prime.num_vars(); ++x)
    out.add_var(a_prime.var_name(x), a_prime.var_init(x));

  const bool v_has_timed_egress = [&] {
    for (const auto& e : a.edges())
      if (e.src == v && e.kind == TriggerKind::kTimed) return true;
    return false;
  }();
  std::optional<VarId> clock;
  if (v_has_timed_egress) {
    std::string clock_name = location_v + "_dwell_clock";
    // Guaranteed-fresh name (independence makes collision unlikely; be safe).
    while (out.has_var(clock_name)) clock_name += "_";
    clock = out.add_var(clock_name, 0.0);
    info.dwell_clock = clock_name;
  }

  // ---- locations.  Parent locations except v keep their order (v's slot
  // is skipped); child locations follow.
  std::vector<LocId> parent_map(a.num_locations(), kNoLoc);
  for (LocId i = 0; i < a.num_locations(); ++i) {
    if (i == v) continue;
    const auto& loc = a.location(i);
    const LocId ni = out.add_location(loc.name, loc.risky);
    out.set_invariant(ni, loc.invariant);
    out.set_flow(ni, loc.flow);  // child vars default to rate 0: frozen outside A′
    parent_map[i] = ni;
  }
  const Location& loc_v = a.location(v);
  std::vector<LocId> child_map(a_prime.num_locations(), kNoLoc);
  for (LocId i = 0; i < a_prime.num_locations(); ++i) {
    const auto& loc = a_prime.location(i);
    // Child locations inherit v's risky classification (see header).
    const LocId ni = out.add_location(loc.name, loc_v.risky);
    out.set_invariant(ni, Guard::conjunction(loc_v.invariant,
                                             loc.invariant.shifted(info.var_offset)));
    Flow merged = Flow::merged(loc_v.flow, loc.flow.shifted(info.var_offset));
    if (clock) merged.rate(*clock, 1.0);  // accumulate dwell across A′
    out.set_flow(ni, merged);
    child_map[i] = ni;
  }

  // ---- edges of A.
  auto child_targets = [&]() {
    std::vector<LocId> t;
    for (LocId i : a_prime.initial_locations()) t.push_back(child_map[i]);
    return t;
  }();

  for (const auto& e : a.edges()) {
    const bool from_v = e.src == v;
    const bool to_v = e.dst == v;
    // Sources: either the mapped parent location, or every child location.
    std::vector<LocId> srcs;
    if (from_v) {
      for (LocId c : child_map) srcs.push_back(c);
    } else {
      srcs.push_back(parent_map[e.src]);
    }
    // Destinations: either the mapped parent location, or the child's
    // initial locations.
    std::vector<LocId> dsts;
    if (to_v) {
      dsts = child_targets;
    } else {
      dsts.push_back(parent_map[e.dst]);
    }
    for (LocId s : srcs) {
      for (LocId d : dsts) {
        Edge ne = e;
        ne.src = s;
        ne.dst = d;
        if (from_v && e.kind == TriggerKind::kTimed) {
          // "dwell in v reaches T" becomes "accumulated clock reaches T".
          PTE_CHECK(clock.has_value(), "timed egress without elaboration clock");
          ne.kind = TriggerKind::kCondition;
          ne.guard = Guard::conjunction(e.guard, Guard(atleast(*clock, e.dwell)));
          ne.dwell = 0.0;
          ne.note = e.note.empty() ? util::cat("total dwell in ", location_v, " == ",
                                               util::fmt_compact(e.dwell))
                                   : e.note;
        }
        if (to_v && clock) {
          ne.reset = e.reset;  // copy, then extend
          ne.reset.set(*clock, 0.0);
        }
        out.add_edge(std::move(ne));
      }
    }
  }

  // ---- edges of A′ (variable ids shifted).
  for (const auto& e : a_prime.edges()) {
    Edge ne;
    ne.src = child_map[e.src];
    ne.dst = child_map[e.dst];
    ne.kind = e.kind;
    ne.trigger = e.trigger;
    ne.dwell = e.dwell;
    ne.guard = e.guard.shifted(info.var_offset);
    ne.reset = e.reset.shifted(info.var_offset);
    ne.emits = e.emits;
    ne.note = e.note;
    out.add_edge(std::move(ne));
  }

  // ---- initial states.
  for (LocId i : a.initial_locations()) {
    if (i == v) {
      for (LocId c : child_targets) out.add_initial_location(c);
    } else {
      out.add_initial_location(parent_map[i]);
    }
  }
  out.set_initial_data(a.initial_data());

  out.validate();
  return Elaboration{std::move(out), std::move(info)};
}

ParallelElaboration elaborate_parallel(const Automaton& a,
                                       const std::vector<std::string>& locations,
                                       const std::vector<const Automaton*>& children) {
  PTE_REQUIRE(locations.size() == children.size(),
              "parallel elaboration needs one child per location");
  // Distinct locations.
  for (std::size_t i = 0; i < locations.size(); ++i)
    for (std::size_t j = i + 1; j < locations.size(); ++j)
      PTE_REQUIRE(locations[i] != locations[j],
                  util::cat("parallel elaboration at duplicate location '", locations[i], "'"));
  // Mutual independence of {A, A1..Ak}.
  std::vector<const Automaton*> all{&a};
  all.insert(all.end(), children.begin(), children.end());
  const CheckResult indep = check_mutually_independent(all);
  PTE_REQUIRE(indep.ok, util::cat("parallel elaboration: ", indep.message()));

  ParallelElaboration out{a, {}};
  for (std::size_t k = 0; k < locations.size(); ++k) {
    Elaboration step = elaborate(out.automaton, locations[k], *children[k]);
    out.automaton = std::move(step.automaton);
    out.steps.push_back(std::move(step.info));
  }
  return out;
}

std::string project_location(const std::vector<ElaborationInfo>& steps,
                             const std::string& elaborated_location) {
  // Apply the inverse mappings from the last elaboration backwards: a
  // child location collapses to the location it elaborated.
  std::string name = elaborated_location;
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    const auto& step = *it;
    if (std::find(step.child_locations.begin(), step.child_locations.end(), name) !=
        step.child_locations.end())
      name = step.elaborated_location;
  }
  return name;
}

CheckResult verify_elaboration(const Automaton& candidate, const Automaton& a,
                               const std::string& location_v, const Automaton& a_prime) {
  CheckResult r;
  const CheckResult indep = check_independent(a, a_prime);
  if (!indep.ok) {
    r.ok = false;
    r.problems = indep.problems;
    return r;
  }
  const CheckResult simple = check_simple(a_prime);
  if (!simple.ok) {
    r.ok = false;
    r.problems = simple.problems;
    return r;
  }
  const Elaboration expected = elaborate(a, location_v, a_prime);
  if (!structurally_equal(candidate, expected.automaton)) {
    r.ok = false;
    r.problems.push_back(util::cat("candidate does not equal E(", a.name(), ", ", location_v,
                                   ", ", a_prime.name(), "); first difference: ",
                                   first_difference(candidate, expected.automaton)));
  }
  return r;
}

}  // namespace ptecps::hybrid
