#include "hybrid/wellformed.hpp"

#include <algorithm>
#include <functional>
#include <queue>

#include "util/text.hpp"

namespace ptecps::hybrid {

std::string WellformedReport::message() const {
  if (ok) return "ok";
  std::vector<std::string> parts;
  if (!unreachable_locations.empty())
    parts.push_back("unreachable: " + util::join(unreachable_locations, ", "));
  if (!sink_locations.empty()) parts.push_back("sinks: " + util::join(sink_locations, ", "));
  if (!zero_time_cycles.empty())
    parts.push_back("possible zero-time cycles: " + util::join(zero_time_cycles, "; "));
  return util::join(parts, " | ");
}

WellformedReport check_wellformed(const Automaton& a) {
  WellformedReport report;

  // Reachability over the location graph.
  std::vector<bool> reachable(a.num_locations(), false);
  std::queue<LocId> frontier;
  for (LocId i : a.initial_locations()) {
    reachable[i] = true;
    frontier.push(i);
  }
  while (!frontier.empty()) {
    const LocId v = frontier.front();
    frontier.pop();
    for (EdgeId ei : a.edges_from(v)) {
      const LocId w = a.edge(ei).dst;
      if (!reachable[w]) {
        reachable[w] = true;
        frontier.push(w);
      }
    }
  }
  for (LocId i = 0; i < a.num_locations(); ++i) {
    if (!reachable[i]) report.unreachable_locations.push_back(a.location(i).name);
  }

  // Sink locations (no egress).
  for (LocId i = 0; i < a.num_locations(); ++i) {
    if (a.edges_from(i).empty()) report.sink_locations.push_back(a.location(i).name);
  }

  // Potential zero-time cycles: DFS over the sub-graph of condition edges
  // without minimum dwell (those can fire instantaneously in sequence) —
  // but a pair of consecutive guards that contradict each other on some
  // variable (e.g. Fig. 2's Hvent <= 0 followed by Hvent >= 0.3) cannot
  // fire at the same instant, so such cycles are excluded.  This is a
  // heuristic: resets along the cycle are not modelled.
  auto single_var_interval = [](const Guard& g, VarId v, double& lo, double& hi) {
    for (const auto& c : g.constraints()) {
      if (c.expr.terms().size() != 1 || c.expr.terms()[0].first != v) continue;
      const double coef = c.expr.terms()[0].second;
      if (coef == 0.0) continue;
      const double bound = -c.expr.constant() / coef;
      const bool lower = (c.cmp == Cmp::kGe || c.cmp == Cmp::kGt) == (coef > 0.0);
      if (lower)
        lo = std::max(lo, bound);
      else
        hi = std::min(hi, bound);
    }
  };
  auto guards_contradict = [&](const Guard& g1, const Guard& g2) {
    std::vector<VarId> vars;
    for (const Guard* g : {&g1, &g2})
      for (const auto& c : g->constraints())
        if (c.expr.terms().size() == 1) vars.push_back(c.expr.terms()[0].first);
    for (VarId v : vars) {
      double lo = -1e300, hi = 1e300;
      single_var_interval(g1, v, lo, hi);
      single_var_interval(g2, v, lo, hi);
      if (lo > hi) return true;
    }
    return false;
  };

  struct InstantEdge {
    LocId dst;
    const Guard* guard;
  };
  std::vector<std::vector<InstantEdge>> instant_succ(a.num_locations());
  for (const auto& e : a.edges()) {
    if (e.kind == TriggerKind::kCondition && e.guard.min_dwell() <= 0.0)
      instant_succ[e.src].push_back(InstantEdge{e.dst, &e.guard});
  }
  // Standard colored DFS for a cycle within the instantaneous sub-graph;
  // `guard_stack` carries the guards taken along the DFS path so a found
  // cycle can be screened for consecutive-guard contradictions.
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(a.num_locations(), Color::kWhite);
  std::vector<LocId> stack;
  std::vector<const Guard*> guard_stack;
  std::function<void(LocId)> dfs = [&](LocId v) {
    color[v] = Color::kGray;
    stack.push_back(v);
    for (const InstantEdge& edge : instant_succ[v]) {
      const LocId w = edge.dst;
      if (color[w] == Color::kGray) {
        // Found a cycle: the loop slice of the stack plus the closing edge.
        const auto it = std::find(stack.begin(), stack.end(), w);
        const std::size_t start = static_cast<std::size_t>(it - stack.begin());
        std::vector<const Guard*> cycle_guards(guard_stack.begin() +
                                                   static_cast<std::ptrdiff_t>(start),
                                               guard_stack.end());
        cycle_guards.push_back(edge.guard);
        bool instantaneous = true;
        for (std::size_t k = 0; k < cycle_guards.size(); ++k) {
          if (guards_contradict(*cycle_guards[k],
                                *cycle_guards[(k + 1) % cycle_guards.size()])) {
            instantaneous = false;
            break;
          }
        }
        if (instantaneous) {
          std::vector<std::string> names;
          for (auto jt = it; jt != stack.end(); ++jt) names.push_back(a.location(*jt).name);
          names.push_back(a.location(w).name);
          report.zero_time_cycles.push_back(util::join(names, " -> "));
        }
      } else if (color[w] == Color::kWhite) {
        guard_stack.push_back(edge.guard);
        dfs(w);
        guard_stack.pop_back();
      }
    }
    stack.pop_back();
    color[v] = Color::kBlack;
  };
  for (LocId i = 0; i < a.num_locations(); ++i) {
    if (color[i] == Color::kWhite) dfs(i);
  }

  report.ok = report.unreachable_locations.empty() && report.sink_locations.empty() &&
              report.zero_time_cycles.empty();
  return report;
}

}  // namespace ptecps::hybrid
