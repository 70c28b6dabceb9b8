#include "hybrid/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>

#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::hybrid {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Same-instant chained transitions allowed (the non-zeno guard).
constexpr unsigned kMaxCascade = 4096;

std::string trigger_desc(const Edge& e) {
  switch (e.kind) {
    case TriggerKind::kEvent: return e.trigger.str();
    case TriggerKind::kTimed: return util::cat("dwell==", util::fmt_compact(e.dwell));
    case TriggerKind::kCondition: return e.note.empty() ? "condition" : e.note;
  }
  return "?";
}

/// The table of an automaton that has not entered a location yet.
const CompiledSystem::LocationInfo kUnentered{};

const CompiledSystem& require_system(const std::shared_ptr<const CompiledSystem>& system) {
  PTE_REQUIRE(system != nullptr, "engine needs a compiled system");
  return *system;
}

}  // namespace

void BroadcastRouter::route(Engine& engine, std::size_t src_automaton, const SyncLabel&,
                            LabelId label_id) {
  // Deliver to every automaton that declares a reception edge for this
  // root anywhere; the engine ignores it if no edge is enabled.
  for (std::size_t i : engine.receivers(label_id)) {
    if (i != src_automaton) engine.deliver(i, label_id);
  }
}

std::shared_ptr<const CompiledSystem> compile_system(std::vector<Automaton> automata) {
  PTE_REQUIRE(!automata.empty(), "engine needs at least one automaton");
  std::set<std::string> names;
  for (const auto& a : automata) {
    a.validate();
    PTE_REQUIRE(names.insert(a.name()).second,
                util::cat("duplicate automaton name '", a.name(), "'"));
  }
  auto sys = std::make_shared<CompiledSystem>();
  sys->automata = std::move(automata);
  const std::size_t n = sys->automata.size();
  sys->edges.resize(n);
  sys->locations.resize(n);
  for (std::size_t a = 0; a < n; ++a) {
    const Automaton& aut = sys->automata[a];
    auto& edges = sys->edges[a];
    edges.resize(aut.num_edges());
    for (EdgeId ei = 0; ei < aut.num_edges(); ++ei) {
      const Edge& e = aut.edge(ei);
      if (e.kind == TriggerKind::kEvent) edges[ei].trigger = sys->labels.intern(e.trigger.root);
      for (const auto& emit : e.emits) edges[ei].emits.push_back(sys->labels.intern(emit.root));
      edges[ei].description = trigger_desc(e);
    }
    auto& locations = sys->locations[a];
    locations.resize(aut.num_locations());
    for (LocId l = 0; l < aut.num_locations(); ++l) {
      CompiledSystem::LocationInfo& info = locations[l];
      const Flow& flow = aut.location(l).flow;
      info.rates = flow.dense_rates(aut.num_vars());
      for (double r : info.rates) {
        if (r != 0.0) info.needs_integration = true;
      }
      for (EdgeId ei : aut.edges_from(l)) {
        switch (aut.edge(ei).kind) {
          case TriggerKind::kCondition: info.condition_edges.push_back(ei); break;
          case TriggerKind::kEvent: info.event_edges.emplace_back(ei, edges[ei].trigger); break;
          case TriggerKind::kTimed: info.timed_edges.push_back(ei); break;
        }
      }
    }
  }
  // Broadcast receiver lists: automaton index order = the deterministic
  // delivery order of the old string-scanning broadcast.
  sys->receivers.resize(sys->labels.size());
  for (std::size_t a = 0; a < n; ++a) {
    std::vector<bool> seen(sys->labels.size(), false);
    for (const CompiledSystem::EdgeInfo& e : sys->edges[a]) {
      if (e.trigger != kNoLabel && !seen[e.trigger]) {
        seen[e.trigger] = true;
        sys->receivers[e.trigger].push_back(a);
      }
    }
  }
  return sys;
}

Engine::Engine(std::vector<Automaton> automata, EngineOptions options)
    : Engine(compile_system(std::move(automata)), options) {}

Engine::Engine(std::shared_ptr<const CompiledSystem> system, EngineOptions options)
    : system_(std::move(system)), automata_(require_system(system_).automata),
      options_(options) {
  states_.resize(automata_.size());
  for (AutomatonState& st : states_) st.info = &kUnentered;
}

const std::vector<std::size_t>& Engine::receivers(LabelId label) const {
  static const std::vector<std::size_t> kEmpty;
  const auto& receivers = system_->receivers;
  return label < receivers.size() ? receivers[label] : kEmpty;
}

void Engine::set_router(EventRouter* router) {
  PTE_REQUIRE(router != nullptr, "null router");
  PTE_REQUIRE(!initialized_, "set_router must be called before init()");
  router_ = router;
}

void Engine::add_transition_observer(TransitionObserver observer) {
  PTE_REQUIRE(observer != nullptr, "null observer");
  transition_observers_.push_back(std::move(observer));
}

void Engine::add_emit_observer(EmitObserver observer) {
  PTE_REQUIRE(observer != nullptr, "null observer");
  emit_observers_.push_back(std::move(observer));
}

void Engine::init() {
  PTE_REQUIRE(!initialized_, "init() called twice");
  initialized_ = true;
  for (std::size_t a = 0; a < automata_.size(); ++a) {
    const auto& initial = automata_[a].initial_locations();
    PTE_CHECK(!initial.empty(), "validated automaton without initial location");
    states_[a].x = automata_[a].initial_valuation();
    enter_location(a, initial.front(), "init", kNoLoc);
  }
  for (std::size_t a = 0; a < automata_.size(); ++a) settle_conditions(a);
}

const Automaton& Engine::automaton(std::size_t i) const {
  PTE_REQUIRE(i < automata_.size(), "automaton index out of range");
  return automata_[i];
}

LocId Engine::current_location(std::size_t automaton) const {
  PTE_REQUIRE(automaton < states_.size(), "automaton index out of range");
  return states_[automaton].loc;
}

const std::string& Engine::current_location_name(std::size_t automaton) const {
  return automata_[automaton].location(current_location(automaton)).name;
}

sim::SimTime Engine::location_entry_time(std::size_t automaton) const {
  PTE_REQUIRE(automaton < states_.size(), "automaton index out of range");
  return states_[automaton].entry_time;
}

double Engine::var(std::size_t automaton, VarId v) const {
  PTE_REQUIRE(automaton < states_.size(), "automaton index out of range");
  PTE_REQUIRE(v < states_[automaton].x.size(), "variable out of range");
  return states_[automaton].x[v];
}

double Engine::var(std::size_t automaton, const std::string& name) const {
  return var(automaton, automata_[automaton].var_id(name));
}

void Engine::record(TraceRecord r) {
  if (options_.record_trace) trace_.append(std::move(r));
}

void Engine::check_invariant(std::size_t a) {
  auto& st = states_[a];
  const auto& inv = automata_[a].location(st.loc).invariant;
  if (inv.always_true()) return;
  if (inv.margin(st.x) >= -1e-9) return;
  TraceRecord r{cont_time_, a, TraceKind::kInvariantViolation, st.loc, st.loc,
                inv.str(automata_[a].var_names()), inv.margin(st.x)};
  invariant_violations_.push_back(r);
  record(r);
}

void Engine::cancel_timed_edges(std::size_t a) {
  for (auto& h : states_[a].timed_handles) scheduler_.cancel(h);
  states_[a].timed_handles.clear();
}

void Engine::schedule_timed_edges(std::size_t a) {
  auto& st = states_[a];
  for (EdgeId ei : st.info->timed_edges) {
    const Edge& e = automata_[a].edge(ei);
    auto handle = scheduler_.schedule_at(cont_time_ + e.dwell, [this, a, ei] {
      auto& state = states_[a];
      const Edge& edge = automata_[a].edge(ei);
      PTE_CHECK(state.loc == edge.src, "timed edge fired from wrong location");
      const double dwell = cont_time_ - state.entry_time;
      if (edge.guard.eval(state.x, dwell)) fire_edge(a, ei);
    });
    st.timed_handles.push_back(handle);
  }
}

void Engine::enter_location(std::size_t a, LocId loc, const std::string& trigger, LocId from) {
  auto& st = states_[a];
  cancel_timed_edges(a);
  st.loc = loc;
  st.info = &system_->locations[a][loc];
  st.entry_time = cont_time_;
  ++transitions_taken_;
  if (options_.record_trace)
    record(TraceRecord{cont_time_, a, TraceKind::kTransition, from, loc, trigger, 0.0});
  for (const auto& obs : transition_observers_) obs(a, cont_time_, from, loc, trigger);
  check_invariant(a);
  schedule_timed_edges(a);
}

void Engine::fire_edge(std::size_t a, EdgeId ei) {
  PTE_CHECK(cascade_depth_ < kMaxCascade,
            util::cat("non-zeno guard tripped: more than ", kMaxCascade,
                      " chained transitions at t=", cont_time_,
                      " (automaton '", automata_[a].name(), "')"));
  ++cascade_depth_;
  auto& st = states_[a];
  const Edge& e = automata_[a].edge(ei);
  PTE_CHECK(e.src == st.loc, "firing edge whose source is not the current location");
  e.reset.apply(cont_time_, st.x);
  const LocId from = st.loc;
  const CompiledSystem::EdgeInfo& info = system_->edges[a][ei];
  enter_location(a, e.dst, info.description, from);
  for (std::size_t k = 0; k < e.emits.size(); ++k) {
    const SyncLabel& label = e.emits[k];
    if (options_.record_trace)
      record(TraceRecord{cont_time_, a, TraceKind::kEmit, from, e.dst, label.str(), 0.0});
    for (const auto& obs : emit_observers_) obs(a, cont_time_, label, info.emits[k]);
    router_->route(*this, a, label, info.emits[k]);
  }
  settle_conditions(a);
  --cascade_depth_;
}

void Engine::settle_conditions(std::size_t a) {
  auto& st = states_[a];
  for (EdgeId ei : st.info->condition_edges) {
    const Edge& e = automata_[a].edge(ei);
    if (e.guard.eval(st.x, cont_time_ - st.entry_time)) {
      fire_edge(a, ei);  // fire_edge re-settles the destination location
      return;
    }
  }
}

bool Engine::dispatch_event(std::size_t a, LabelId label, TraceKind kind) {
  PTE_REQUIRE(initialized_, "engine not initialized");
  PTE_REQUIRE(a < states_.size(), "automaton index out of range");
  auto& st = states_[a];
  for (const auto& [ei, trigger] : st.info->event_edges) {
    if (trigger != label) continue;
    const Edge& e = automata_[a].edge(ei);
    if (!e.guard.eval(st.x, cont_time_ - st.entry_time)) continue;
    if (options_.record_trace)
      record(TraceRecord{cont_time_, a, kind, st.loc, e.dst, system_->labels.root_of(label), 0.0});
    fire_edge(a, ei);
    return true;
  }
  if (options_.record_trace)
    record(TraceRecord{cont_time_, a, TraceKind::kIgnoredEvent, st.loc, st.loc,
                       system_->labels.root_of(label), 0.0});
  return false;
}

bool Engine::dispatch_unknown(std::size_t a, const std::string& root) {
  // Root used by no automaton: by construction no reception edge exists,
  // so the delivery is ignored (still recorded, like any unconsumed event).
  PTE_REQUIRE(initialized_, "engine not initialized");
  PTE_REQUIRE(a < states_.size(), "automaton index out of range");
  if (options_.record_trace)
    record(TraceRecord{cont_time_, a, TraceKind::kIgnoredEvent, states_[a].loc,
                       states_[a].loc, root, 0.0});
  return false;
}

bool Engine::deliver(std::size_t automaton, LabelId label) {
  return dispatch_event(automaton, label, TraceKind::kDeliver);
}

bool Engine::inject(std::size_t automaton, const std::string& root) {
  const LabelId id = system_->labels.find(root);
  if (id == kNoLabel) return dispatch_unknown(automaton, root);
  return dispatch_event(automaton, id, TraceKind::kInject);
}

bool Engine::inject(std::size_t automaton, LabelId label) {
  return dispatch_event(automaton, label, TraceKind::kInject);
}

void Engine::set_var(std::size_t automaton, VarId v, double value) {
  PTE_REQUIRE(initialized_, "engine not initialized");
  PTE_REQUIRE(automaton < states_.size(), "automaton index out of range");
  auto& st = states_[automaton];
  PTE_REQUIRE(v < st.x.size(), "variable out of range");
  st.x[v] = value;
  if (options_.record_trace)
    record(TraceRecord{cont_time_, automaton, TraceKind::kVarWrite, st.loc, st.loc,
                       automata_[automaton].var_name(v), value});
  check_invariant(automaton);
  settle_conditions(automaton);
}

void Engine::add_sampler(std::size_t automaton, VarId v, sim::SimTime period) {
  PTE_REQUIRE(automaton < automata_.size(), "automaton index out of range");
  PTE_REQUIRE(v < automata_[automaton].num_vars(), "variable out of range");
  PTE_REQUIRE(period > 0.0, "sampler period must be positive");
  scheduler_.schedule_at(cont_time_,
                         [this, automaton, v, period] { sample(automaton, v, period); });
}

void Engine::sample(std::size_t automaton, VarId v, sim::SimTime period) {
  record(TraceRecord{cont_time_, automaton, TraceKind::kSample, states_[automaton].loc,
                     states_[automaton].loc, automata_[automaton].var_name(v),
                     states_[automaton].x[v]});
  scheduler_.schedule_in(period, [this, automaton, v, period] { sample(automaton, v, period); });
}

sim::SimTime Engine::next_exact_crossing(std::size_t a) const {
  const auto& st = states_[a];
  double best = kInf;
  for (EdgeId ei : st.info->condition_edges) {
    const Edge& e = automata_[a].edge(ei);
    const double dt_lin = e.guard.time_to_satisfy(st.x, st.info->rates);
    if (!std::isfinite(dt_lin)) continue;
    const double dwell_now = cont_time_ - st.entry_time;
    const double dt = std::max(dt_lin, std::max(0.0, e.guard.min_dwell() - dwell_now));
    // If the dwell requirement dominates, re-verify the linear part holds
    // at that later instant (margins evolve linearly under constant rates).
    if (dt > dt_lin) {
      bool still_ok = true;
      for (const auto& c : e.guard.constraints()) {
        if (c.margin(st.x) + dt * c.margin_rate(st.info->rates) < -1e-9) {
          still_ok = false;
          break;
        }
      }
      if (!still_ok) continue;
    }
    best = std::min(best, cont_time_ + dt);
  }
  return best;
}

void Engine::integrate_automaton(std::size_t a, sim::SimTime from, sim::SimTime to) {
  auto& st = states_[a];
  if (!st.info->needs_integration || to <= from) return;
  const double h = to - from;
  for (std::size_t i = 0; i < st.x.size(); ++i) st.x[i] += st.info->rates[i] * h;
}

bool Engine::fire_first_enabled() {
  for (std::size_t a = 0; a < automata_.size(); ++a) {
    auto& st = states_[a];
    for (EdgeId ei : st.info->condition_edges) {
      const Edge& e = automata_[a].edge(ei);
      if (e.guard.eval(st.x, cont_time_ - st.entry_time)) {
        scheduler_.run_until(cont_time_);
        fire_edge(a, ei);
        return true;
      }
    }
  }
  return false;
}

bool Engine::advance_continuous(sim::SimTime target) {
  // Fire anything already enabled (robustness against drift and against
  // guards enabled exactly at the current instant).
  if (fire_first_enabled()) return true;
  if (cont_time_ >= target - sim::kTimeEps) {
    cont_time_ = std::max(cont_time_, target);
    return false;
  }

  // Earliest exact crossing; every automaton advances linearly to it, or
  // to the target if none comes first.
  sim::SimTime t_exact = kInf;
  std::size_t xa = 0;
  for (std::size_t a = 0; a < automata_.size(); ++a) {
    const sim::SimTime t = next_exact_crossing(a);
    if (t < t_exact) {
      t_exact = t;
      xa = a;
    }
  }
  const sim::SimTime tc = std::min(t_exact, target);
  for (std::size_t a = 0; a < automata_.size(); ++a) integrate_automaton(a, cont_time_, tc);
  cont_time_ = tc;
  for (std::size_t a = 0; a < automata_.size(); ++a) {
    if (states_[a].info->needs_integration) check_invariant(a);
  }
  if (t_exact > target + sim::kTimeEps) return fire_first_enabled();

  scheduler_.run_until(tc);
  // The crossing: re-verify (a same-instant event may have moved the
  // automaton).  A crossing that fires nothing still advanced time; the
  // caller re-evaluates.
  settle_conditions(xa);
  return true;
}

void Engine::run_until(sim::SimTime t) {
  PTE_REQUIRE(initialized_, "init() must be called before run_until()");
  PTE_REQUIRE(t >= cont_time_ - sim::kTimeEps, "run_until into the past");
  std::uint64_t same_instant_steps = 0;
  sim::SimTime last_instant = -1.0;
  while (true) {
    const sim::SimTime t_next = scheduler_.next_time();
    if (t_next <= cont_time_ + sim::kTimeEps && t_next <= t + sim::kTimeEps) {
      // Discrete events due at the current instant.
      if (sim::time_eq(t_next, last_instant)) {
        PTE_CHECK(++same_instant_steps < 10'000'000ULL,
                  "runaway same-instant event loop (zeno system?)");
      } else {
        last_instant = t_next;
        same_instant_steps = 0;
      }
      scheduler_.step();
      continue;
    }
    const sim::SimTime target = std::min(t_next, t);
    if (target > cont_time_ + sim::kTimeEps) {
      if (advance_continuous(target)) continue;  // a crossing fired; re-evaluate
    }
    if (t_next <= t + sim::kTimeEps) continue;  // event due at cont_time_ now
    break;
  }
  scheduler_.run_until(t);
  cont_time_ = std::max(cont_time_, t);
}

}  // namespace ptecps::hybrid
