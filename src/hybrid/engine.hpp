// Execution engine for hybrid systems (§II-B): a collection of hybrid
// automata executing concurrently over dense time, coordinating through
// event communication.
//
// Semantics implemented (deterministic refinement of the formalism):
//  * Timed edges fire exactly when the continuous dwell time in their
//    source location reaches `dwell` (urgent), realized as scheduled
//    events that leaving the location cancels, so a stale timeout never
//    runs.
//  * Condition edges are urgent: they fire at the earliest time their
//    guard becomes true.  Flows are constant-rate, so every automaton
//    advances linearly and each crossing time is solved in closed form
//    (exact — this covers clocks and the ventilator cylinder).
//  * Event edges fire when the event (label root) is delivered to the
//    automaton while an enabled receiving edge exists; otherwise the
//    delivery is ignored (recorded in the trace).  Deliveries are routed
//    by an EventRouter: the default router broadcasts reliably at the
//    same instant (suitable for wired/intra-entity events); the wireless
//    substrate installs a router that forwards through lossy channels.
//  * Ties at one instant execute in deterministic FIFO order; at most
//    4096 zero-time transitions may chain (kMaxCascade, the non-zeno
//    guard).
//  * Automata never share variables (§II-B), so continuous integration is
//    per-automaton; interaction happens only through events.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hybrid/automaton.hpp"
#include "hybrid/label_table.hpp"
#include "hybrid/trace.hpp"
#include "sim/scheduler.hpp"

namespace ptecps::hybrid {

class Engine;

/// Routes emitted synchronization labels to receiving automata.
class EventRouter {
 public:
  virtual ~EventRouter() = default;
  /// Called at emission time.  `label_id` is the engine's interned id of
  /// label.root (never kNoLabel for engine emissions).  Implementations
  /// deliver now via Engine::deliver(), or later / never (lossy links)
  /// via the scheduler.
  virtual void route(Engine& engine, std::size_t src_automaton, const SyncLabel& label,
                     LabelId label_id) = 0;
};

/// Default router: reliable zero-delay broadcast to every automaton that
/// declares a reception edge (? or ??) for the label's root.
class BroadcastRouter final : public EventRouter {
 public:
  void route(Engine& engine, std::size_t src_automaton, const SyncLabel& label,
             LabelId label_id) override;
};

struct EngineOptions {
  bool record_trace = true;
};

/// A system compiled for execution: the validated automata plus every
/// table the engine derives from them.  It is immutable once built, so
/// any number of engines — including engines on different threads —
/// share one through a std::shared_ptr<const CompiledSystem>.  A
/// Monte-Carlo campaign compiles each scenario's system once; every run's
/// engine then starts without copying an automaton or interning a label.
struct CompiledSystem {
  /// What an edge contributes at run time, resolved to dense ids.
  struct EdgeInfo {
    LabelId trigger = kNoLabel;   // interned trigger root (event edges)
    std::vector<LabelId> emits;   // interned emit roots, in `emits` order
    std::string description;      // trace text of the transition it fires
  };
  /// What the engine needs while dwelling in one location.  Edge lists
  /// keep Automaton::edges_from order, the engine's tie-break.
  struct LocationInfo {
    std::vector<double> rates;    // dense constant rates
    bool needs_integration = false;  // any nonzero rate
    std::vector<EdgeId> condition_edges;
    std::vector<std::pair<EdgeId, LabelId>> event_edges;  // edge + trigger id
    std::vector<EdgeId> timed_edges;
  };

  std::vector<Automaton> automata;
  /// Every sync-label root of every automaton, interned in automaton,
  /// edge, then trigger-before-emits order.
  LabelTable labels;
  /// [label] → automata declaring a reception edge for it, in index order.
  std::vector<std::vector<std::size_t>> receivers;
  std::vector<std::vector<EdgeInfo>> edges;          // [automaton][edge]
  std::vector<std::vector<LocationInfo>> locations;  // [automaton][location]
};

/// Validate `automata` (Automaton::validate on each, and unique names)
/// and derive every table.  Throws std::invalid_argument on the first
/// problem.
std::shared_ptr<const CompiledSystem> compile_system(std::vector<Automaton> automata);

class Engine {
 public:
  /// Compile `automata` and run them: the one-shot path for tests,
  /// examples and replays.  Same as Engine(compile_system(automata)).
  Engine(std::vector<Automaton> automata, EngineOptions options = {});
  /// Run a compiled system, shared read-only for the engine's lifetime.
  /// The engine owns its scheduler and all run state.  Call init()
  /// before run_until().
  Engine(std::shared_ptr<const CompiledSystem> system, EngineOptions options = {});

  // -- wiring --------------------------------------------------------------
  /// Replace the default BroadcastRouter.  The router must outlive the
  /// engine.  Call before init().
  void set_router(EventRouter* router);

  /// Observer of every location change:
  /// (automaton, time, from (kNoLoc at init), to, trigger description).
  using TransitionObserver = std::function<void(std::size_t, sim::SimTime, LocId, LocId,
                                                const std::string&)>;
  void add_transition_observer(TransitionObserver observer);

  /// Observer of every label emission, called just before routing:
  /// (automaton, time, label, the label's interned id as the router gets it).
  using EmitObserver = std::function<void(std::size_t, sim::SimTime, const SyncLabel&, LabelId)>;
  void add_emit_observer(EmitObserver observer);

  /// Enter all initial locations at t = 0 (schedules initial timeouts and
  /// fires any immediately-enabled condition edges).
  void init();

  // -- execution -----------------------------------------------------------
  /// Advance simulated time to `t`, executing all discrete events,
  /// crossings and timeouts on the way.
  void run_until(sim::SimTime t);

  /// Deliver event `label` (an id of labels()) to one automaton: routers
  /// call it at emission, the wireless bridge at packet arrival and
  /// counterexample replay at the scripted instant.  Returns true if
  /// consumed.
  bool deliver(std::size_t automaton, LabelId label);

  /// Inject an external stimulus (environment / human-in-the-loop): same
  /// consumption rule as deliver, recorded distinctly in the trace.  The
  /// string form serves scripts whose roots come from documents: a root
  /// no automaton uses is recorded as ignored.
  bool inject(std::size_t automaton, const std::string& root);
  bool inject(std::size_t automaton, LabelId label);

  /// Write an input variable from the environment (sensor sample); fires
  /// any condition edges the write enables.
  void set_var(std::size_t automaton, VarId var, double value);

  /// Schedule a periodic sampler of (automaton, var) every `period`
  /// seconds into the trace — regenerates time-series figures.
  void add_sampler(std::size_t automaton, VarId var, sim::SimTime period);

  // -- state access ---------------------------------------------------------
  sim::SimTime now() const { return cont_time_; }
  std::size_t num_automata() const { return automata_.size(); }
  const std::vector<Automaton>& automata() const { return automata_; }
  const Automaton& automaton(std::size_t i) const;

  LocId current_location(std::size_t automaton) const;
  const std::string& current_location_name(std::size_t automaton) const;
  sim::SimTime location_entry_time(std::size_t automaton) const;
  double var(std::size_t automaton, VarId v) const;
  double var(std::size_t automaton, const std::string& name) const;

  sim::Scheduler& scheduler() { return scheduler_; }
  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }

  /// Interned sync-label roots of every automaton (built at compilation).
  const LabelTable& labels() const { return system_->labels; }
  /// Id of `root`, or kNoLabel if no automaton uses it.
  LabelId label_id(const std::string& root) const { return system_->labels.find(root); }
  /// Automata declaring a reception edge for `label` anywhere, in index
  /// order — the precomputed broadcast receiver list.
  const std::vector<std::size_t>& receivers(LabelId label) const;

  const std::vector<TraceRecord>& invariant_violations() const {
    return invariant_violations_;
  }
  std::uint64_t transitions_taken() const { return transitions_taken_; }

 private:
  struct AutomatonState {
    LocId loc = kNoLoc;
    /// The compiled table of `loc` (rates, edge lists).
    const CompiledSystem::LocationInfo* info = nullptr;
    Valuation x;
    sim::SimTime entry_time = 0.0;
    std::vector<sim::EventHandle> timed_handles;
  };

  void enter_location(std::size_t a, LocId loc, const std::string& trigger_desc, LocId from);
  void fire_edge(std::size_t a, EdgeId e);
  void schedule_timed_edges(std::size_t a);
  void cancel_timed_edges(std::size_t a);
  /// Fire condition edges enabled right now (entry eagerness); loops until
  /// quiescent, bounded by kMaxCascade.
  void settle_conditions(std::size_t a);
  bool dispatch_event(std::size_t a, LabelId label, TraceKind kind);
  bool dispatch_unknown(std::size_t a, const std::string& root);
  /// One add_sampler tick: record the sample, then reschedule itself.
  void sample(std::size_t automaton, VarId var, sim::SimTime period);

  /// Advance all automata from cont_time_ to `target`; if a condition
  /// edge crossing occurs earlier, stop there, fire it (+ cascades) and
  /// return true.  Otherwise advance to target and return whether a
  /// condition edge enabled there fired.
  bool advance_continuous(sim::SimTime target);
  /// Fire the first condition edge enabled now, scanning automata in
  /// index order; false if none is.
  bool fire_first_enabled();
  /// Earliest exact crossing time of automaton `a`'s condition edges, or +inf.
  sim::SimTime next_exact_crossing(std::size_t a) const;
  /// Advance automaton `a`'s variables along its constant rates.
  void integrate_automaton(std::size_t a, sim::SimTime from, sim::SimTime to);
  void record(TraceRecord r);
  void check_invariant(std::size_t a);

  std::shared_ptr<const CompiledSystem> system_;
  const std::vector<Automaton>& automata_;  // system_->automata
  EngineOptions options_;
  sim::Scheduler scheduler_;
  BroadcastRouter default_router_;
  EventRouter* router_ = &default_router_;
  std::vector<AutomatonState> states_;
  Trace trace_;
  std::vector<TraceRecord> invariant_violations_;
  std::vector<TransitionObserver> transition_observers_;
  std::vector<EmitObserver> emit_observers_;
  sim::SimTime cont_time_ = 0.0;
  unsigned cascade_depth_ = 0;
  std::uint64_t transitions_taken_ = 0;
  bool initialized_ = false;
};

}  // namespace ptecps::hybrid
