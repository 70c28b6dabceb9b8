#include "verify/model.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::verify {

namespace {

enum class VarClass { kGlobalClock, kDeadline, kConstant };

struct VarInfo {
  VarClass cls = VarClass::kConstant;
  double init = 0.0;
  std::size_t deadline_index = 0;  // kDeadline only
};

/// Classify every variable of `aut` into the supported fragment.
std::vector<VarInfo> classify_vars(const hybrid::Automaton& aut) {
  std::vector<VarInfo> info(aut.num_vars());
  for (hybrid::VarId v = 0; v < aut.num_vars(); ++v) info[v].init = aut.var_init(v);

  std::vector<bool> written(aut.num_vars(), false);
  std::vector<bool> non_now_plus_write(aut.num_vars(), false);
  for (const auto& e : aut.edges()) {
    for (const auto& a : e.reset.assignments()) {
      written[a.var] = true;
      if (a.kind != hybrid::Reset::Kind::kNowPlus) non_now_plus_write[a.var] = true;
    }
  }

  for (hybrid::VarId v = 0; v < aut.num_vars(); ++v) {
    bool always_one = true;
    bool always_zero = true;
    for (hybrid::LocId l = 0; l < aut.num_locations(); ++l) {
      const double r = aut.location(l).flow.rate_of(v);
      if (r != 1.0) always_one = false;
      if (r != 0.0) always_zero = false;
    }
    const std::string& name = aut.var_name(v);
    if (always_one && !written[v]) {
      info[v].cls = VarClass::kGlobalClock;
    } else if (always_zero && written[v] && !non_now_plus_write[v]) {
      info[v].cls = VarClass::kDeadline;
    } else if (always_zero && !written[v]) {
      info[v].cls = VarClass::kConstant;
    } else {
      PTE_REQUIRE(false,
                  util::cat("verify: variable '", name, "' of automaton '", aut.name(),
                            "' is outside the timed fragment (needs rate 1 everywhere "
                            "and no resets, or rate 0 with only set_now_plus resets, "
                            "or rate 0 and never written)"));
    }
  }
  return info;
}

}  // namespace

CompiledModel compile_model(const VerifyInput& input, std::size_t max_in_flight) {
  PTE_REQUIRE(input.monitor.n_entities >= 2, "verify: PTE needs at least two entities");
  PTE_REQUIRE(input.automata.size() == input.monitor.n_entities + 1,
              "verify: need the supervisor plus one automaton per PTE entity");
  PTE_REQUIRE(max_in_flight >= 1, "verify: need at least one message slot");

  CompiledModel model;
  model.monitor = input.monitor;
  model.max_in_flight = max_in_flight;
  model.delivery_min = input.delivery_min;
  model.delivery_max = input.delivery_max;
  PTE_REQUIRE(model.delivery_min >= 0.0 && model.delivery_max >= model.delivery_min,
              "verify: bad delivery window");

  const std::size_t n_automata = input.automata.size();

  // -- variable classification + deadline table ----------------------------
  std::vector<std::vector<VarInfo>> vars(n_automata);
  for (std::size_t a = 0; a < n_automata; ++a) {
    vars[a] = classify_vars(input.automata[a]);
    for (hybrid::VarId v = 0; v < vars[a].size(); ++v) {
      if (vars[a][v].cls != VarClass::kDeadline) continue;
      vars[a][v].deadline_index = model.deadlines.size();
      // Φ0 gives D its initial value d0, written "at t = 0": the guard
      // clock - D >= c is age >= d0 + c for an age clock started at 0.
      model.deadlines.push_back(CompiledModel::DeadlineVar{
          a, v, input.automata[a].var_init(v),
          util::cat(input.automata[a].name(), ".", input.automata[a].var_name(v))});
    }
  }

  // -- toggleable input variables -------------------------------------------
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  // input_index[a][v] = index into model.inputs, or kNone.
  std::vector<std::vector<std::size_t>> input_index(n_automata);
  for (std::size_t a = 0; a < n_automata; ++a)
    input_index[a].assign(input.automata[a].num_vars(), kNone);
  for (const auto& t : input.toggles) {
    PTE_REQUIRE(t.automaton < n_automata, "verify: toggle for unknown automaton");
    const auto& aut = input.automata[t.automaton];
    const hybrid::VarId v = aut.var_id(t.var);
    PTE_REQUIRE(vars[t.automaton][v].cls == VarClass::kConstant,
                util::cat("verify: toggle target '", t.var, "' of '", aut.name(),
                          "' is not a frozen constant input"));
    std::size_t& idx = input_index[t.automaton][v];
    if (idx == kNone) {
      idx = model.inputs.size();
      model.inputs.push_back(CompiledModel::InputVar{
          t.automaton, v, util::cat(aut.name(), ".", t.var), {aut.var_init(v)}});
    }
    auto& values = model.inputs[idx].values;
    std::size_t vi = kNone;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] == t.value) vi = i;
    }
    if (vi == kNone) {
      vi = values.size();
      values.push_back(t.value);
    }
    model.toggles.push_back(CompiledModel::CompiledToggle{idx, vi});
  }

  // -- routing table --------------------------------------------------------
  std::map<std::string, const VerifyInput::Route*> route_of;
  for (const auto& r : input.routes) {
    PTE_REQUIRE(r.src_automaton < n_automata && r.dst_automaton < n_automata,
                util::cat("verify: route '", r.root, "' references unknown automaton"));
    PTE_REQUIRE(route_of.emplace(r.root, &r).second,
                util::cat("verify: duplicate route for '", r.root, "'"));
  }

  // -- clock layout ---------------------------------------------------------
  const std::size_t n_entities = input.monitor.n_entities;
  ClockLayout& cl = model.clocks;
  cl.deadline_base = 1 + n_automata;
  cl.risky_base = cl.deadline_base + model.deadlines.size();
  cl.safe_base = cl.risky_base + n_entities;
  cl.msg_base = cl.safe_base + n_entities;
  cl.count = cl.msg_base + max_in_flight - 1;  // clock indices are 1-based

  model.clock_names.resize(cl.count);
  for (std::size_t a = 0; a < n_automata; ++a)
    model.clock_names[cl.dwell(a) - 1] = util::cat("dwell(", input.automata[a].name(), ")");
  for (std::size_t d = 0; d < model.deadlines.size(); ++d)
    model.clock_names[cl.deadline(d) - 1] = util::cat("age(", model.deadlines[d].name, ")");
  for (std::size_t e = 1; e <= n_entities; ++e) {
    model.clock_names[cl.risky(e) - 1] = util::cat("risky(xi", e, ")");
    model.clock_names[cl.safe(e) - 1] = util::cat("safe(xi", e, ")");
  }
  for (std::size_t s = 0; s < max_in_flight; ++s)
    model.clock_names[cl.msg(s) - 1] = util::cat("msg", s);

  double max_const = std::max(model.delivery_max, 1.0);
  auto note_const = [&max_const](double c) { max_const = std::max(max_const, std::fabs(c)); };
  for (double b : input.monitor.dwell_bounds) note_const(b);
  for (double b : input.monitor.t_risky_min) note_const(b);
  for (double b : input.monitor.t_safe_min) note_const(b);

  // -- guard compilation ----------------------------------------------------
  auto compile_guard = [&](std::size_t a, const hybrid::Guard& g, CompiledEdge& out,
                           const char* where) {
    out.min_dwell = g.min_dwell();
    note_const(out.min_dwell);
    const auto& aut = input.automata[a];
    for (const auto& c : g.constraints()) {
      // Partition the constraint's terms by variable class.
      double const_part = c.expr.constant();
      double clock_coef = 0.0;
      std::size_t deadline_var = ClockAtom::kNoDeadline;
      double deadline_coef = 0.0;
      std::size_t toggle_input = kNone;
      double toggle_coef = 0.0;
      for (const auto& [v, coef] : c.expr.terms()) {
        if (coef == 0.0) continue;
        switch (vars[a][v].cls) {
          case VarClass::kConstant:
            if (input_index[a][v] != kNone) {
              PTE_REQUIRE(toggle_input == kNone || toggle_input == input_index[a][v],
                          util::cat("verify: guard of ", where, " in '", aut.name(),
                                    "' mixes two toggleable inputs — unsupported"));
              toggle_input = input_index[a][v];
              toggle_coef += coef;
            } else {
              const_part += coef * vars[a][v].init;
            }
            break;
          case VarClass::kGlobalClock: clock_coef += coef; break;
          case VarClass::kDeadline:
            PTE_REQUIRE(deadline_var == ClockAtom::kNoDeadline ||
                            deadline_var == vars[a][v].deadline_index,
                        util::cat("verify: guard of ", where, " in '", aut.name(),
                                  "' mixes two deadline variables — unsupported"));
            deadline_var = vars[a][v].deadline_index;
            deadline_coef += coef;
            break;
        }
      }
      if (clock_coef == 0.0 && deadline_var == ClockAtom::kNoDeadline) {
        // Constant-input constraint (mirrors LinearConstraint::eval —
        // kLt/kGt behave non-strictly).
        const bool is_le = c.cmp == hybrid::Cmp::kLe || c.cmp == hybrid::Cmp::kLt;
        if (toggle_input != kNone) {
          // Satisfaction depends on the input's abstract value.
          CompiledEdge::InputCond cond;
          cond.input = toggle_input;
          for (double value : model.inputs[toggle_input].values) {
            const double expr_value = const_part + toggle_coef * value;
            const double margin = is_le ? -expr_value : expr_value;
            cond.sat.push_back(margin >= -1e-12 ? 1 : 0);
          }
          out.input_conds.push_back(std::move(cond));
          continue;
        }
        const double margin = is_le ? -const_part : const_part;
        if (margin < -1e-12) out.statically_enabled = false;
        continue;
      }
      PTE_REQUIRE(toggle_input == kNone,
                  util::cat("verify: guard of ", where, " in '", aut.name(),
                            "' mixes a toggleable input with clocks — unsupported"));
      // Supported clock shape: g*(clock - D) + const  cmp  0.
      PTE_REQUIRE(deadline_var != ClockAtom::kNoDeadline && clock_coef != 0.0 &&
                      deadline_coef == -clock_coef,
                  util::cat("verify: guard of ", where, " in '", aut.name(),
                            "' is not of the form clock - deadline cmp c — unsupported"));
      // Normalize to (clock - D) cmp' -const/g.
      hybrid::Cmp cmp = c.cmp;
      double rhs = -const_part / clock_coef;
      if (clock_coef < 0.0) {
        switch (cmp) {
          case hybrid::Cmp::kLe: cmp = hybrid::Cmp::kGe; break;
          case hybrid::Cmp::kLt: cmp = hybrid::Cmp::kGt; break;
          case hybrid::Cmp::kGe: cmp = hybrid::Cmp::kLe; break;
          case hybrid::Cmp::kGt: cmp = hybrid::Cmp::kLt; break;
        }
      }
      // clock - D = age - offset  ⇒  age cmp' offset + rhs.
      ClockAtom atom;
      atom.clock = cl.deadline(deadline_var);
      atom.cmp = cmp;
      atom.deadline = deadline_var;
      atom.c_add = rhs;
      note_const(rhs);
      out.atoms.push_back(atom);
    }
  };

  // -- automata -------------------------------------------------------------
  model.automata.resize(n_automata);
  for (std::size_t a = 0; a < n_automata; ++a) {
    const auto& aut = input.automata[a];
    CompiledAutomaton& ca = model.automata[a];
    ca.name = aut.name();
    PTE_REQUIRE(!aut.initial_locations().empty(),
                util::cat("verify: automaton '", aut.name(), "' has no initial location"));
    ca.initial_location = aut.initial_locations().front();
    ca.locations.resize(aut.num_locations());
    for (hybrid::LocId l = 0; l < aut.num_locations(); ++l)
      ca.locations[l].risky = aut.location(l).risky;

    for (hybrid::EdgeId ei = 0; ei < aut.num_edges(); ++ei) {
      const hybrid::Edge& e = aut.edge(ei);
      CompiledEdge ce;
      ce.id = ei;
      ce.src = e.src;
      ce.dst = e.dst;
      ce.kind = e.kind;
      ce.dwell = e.dwell;
      note_const(e.dwell);
      compile_guard(a, e.guard, ce, util::cat("edge #", ei).c_str());
      if (e.kind == hybrid::TriggerKind::kEvent)
        ce.trigger = model.labels.intern(e.trigger.root);
      PTE_REQUIRE(e.kind != hybrid::TriggerKind::kTimed || ce.atoms.empty(),
                  util::cat("verify: timed edge with clock guard in '", aut.name(),
                            "' — unsupported"));
      PTE_REQUIRE(e.kind != hybrid::TriggerKind::kCondition || ce.atoms.size() <= 1,
                  util::cat("verify: condition edge with multiple clock atoms in '",
                            aut.name(), "' — unsupported"));
      PTE_REQUIRE(e.kind != hybrid::TriggerKind::kCondition || ce.atoms.empty() ||
                      ce.min_dwell == 0.0,
                  util::cat("verify: condition edge mixing min_dwell and a clock atom in '",
                            aut.name(), "' — unsupported"));
      for (const auto& assign : e.reset.assignments()) {
        PTE_REQUIRE(assign.kind == hybrid::Reset::Kind::kNowPlus,
                    util::cat("verify: non-now_plus reset in '", aut.name(),
                              "' — outside fragment (classification bug)"));
        ce.deadline_sets.emplace_back(vars[a][assign.var].deadline_index, assign.value);
        note_const(assign.value);
      }
      for (const auto& emit : e.emits) {
        CompiledEdge::Emit em;
        em.root = emit.root;
        em.label = model.labels.intern(emit.root);
        const auto it = route_of.find(emit.root);
        if (it != route_of.end()) {
          PTE_REQUIRE(it->second->src_automaton == a,
                      util::cat("verify: '", emit.root, "' emitted by '", aut.name(),
                                "' but routed from automaton #", it->second->src_automaton));
          em.routed = true;
          em.dst_automaton = it->second->dst_automaton;
        }
        ce.emits.push_back(std::move(em));
      }
      const std::size_t idx = ca.edges.size();
      ca.edges.push_back(std::move(ce));
      CompiledLocation& loc = ca.locations[e.src];
      switch (e.kind) {
        case hybrid::TriggerKind::kTimed: loc.timed_edges.push_back(idx); break;
        case hybrid::TriggerKind::kCondition: loc.condition_edges.push_back(idx); break;
        case hybrid::TriggerKind::kEvent: loc.event_edges.push_back(idx); break;
      }
    }
  }

  for (const auto& d : model.deadlines) note_const(d.initial_offset);

  // -- stimuli --------------------------------------------------------------
  for (const auto& s : input.stimuli) {
    PTE_REQUIRE(s.automaton < n_automata, "verify: stimulus for unknown automaton");
    const hybrid::LabelId id = model.labels.find(s.root);
    PTE_REQUIRE(id != hybrid::kNoLabel,
                util::cat("verify: stimulus root '", s.root,
                          "' is received by no automaton edge"));
    model.stimuli.push_back(CompiledModel::CompiledStimulus{s.automaton, id, s.root});
  }

  // -- partial-order-reduction tables ---------------------------------------
  // dwell_free: a location's dwell clock is read only through its
  // outgoing edges (timed-edge urgency, min_dwell guards); where neither
  // exists the clock is dead until its reset on the next location entry.
  model.por.dwell_free.resize(n_automata);
  for (std::size_t a = 0; a < n_automata; ++a) {
    const CompiledAutomaton& ca = model.automata[a];
    auto& free_at = model.por.dwell_free[a];
    free_at.assign(ca.locations.size(), 1);
    for (std::size_t l = 0; l < ca.locations.size(); ++l) {
      const CompiledLocation& loc = ca.locations[l];
      if (!loc.timed_edges.empty()) {
        free_at[l] = 0;
        continue;
      }
      for (std::size_t ei : loc.condition_edges)
        if (ca.edges[ei].min_dwell > 0.0) free_at[l] = 0;
      for (std::size_t ei : loc.event_edges)
        if (ca.edges[ei].min_dwell > 0.0) free_at[l] = 0;
    }
  }

  // deadline_live: guards referencing deadline d are confined to the
  // automaton owning the variable (guards only mention own variables),
  // so liveness is a per-automaton backward fixpoint: live at l iff some
  // outgoing edge reads d, or some outgoing edge not writing d leads to
  // a live location.  Edge enabledness is ignored — conservative.
  model.por.deadline_live.resize(model.deadlines.size());
  for (std::size_t d = 0; d < model.deadlines.size(); ++d) {
    const CompiledAutomaton& ca = model.automata[model.deadlines[d].automaton];
    auto& live = model.por.deadline_live[d];
    live.assign(ca.locations.size(), 0);
    for (const CompiledEdge& e : ca.edges)
      for (const ClockAtom& atom : e.atoms)
        if (atom.deadline == d) live[e.src] = 1;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const CompiledEdge& e : ca.edges) {
        if (live[e.src] || !live[e.dst]) continue;
        bool writes = false;
        for (const auto& [didx, offset] : e.deadline_sets)
          if (didx == d) writes = true;
        if (!writes) {
          live[e.src] = 1;
          changed = true;
        }
      }
    }
  }

  model.max_constant = max_const + 1.0;
  return model;
}

}  // namespace ptecps::verify
