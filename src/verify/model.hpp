// Discrete abstraction of a PTE automaton network for exhaustive
// verification.
//
// The ModelCompiler turns the automata + wireless routing table that the
// engine executes into a finite-control timed model: every continuous
// quantity the pattern automata branch on is one of
//   * a location dwell        (rate-1, reset on every location entry),
//   * a lease-deadline age    (D_i := now + offset  ⇒  "clock0 - D_i >= 0"
//                              is "age >= offset" for an age clock reset
//                              when the deadline is written),
//   * a constant input        (ApprovalCondition / ParticipationCondition
//                              variables: rate 0, never written — folded
//                              into static edge enabledness),
// plus the verifier's own instrumentation clocks (per-entity risky/safe
// dwell mirroring core::PteMonitor, per-message ages).  All of these
// advance at rate 1 and reset to 0, so difference-bound zones represent
// the continuous state exactly — the abstraction loses nothing on this
// fragment.
//
// Supported fragment (checked at compile, violations throw
// std::invalid_argument naming the offending construct): constant-rate
// clock variables that are rate 1 in every location and never reset;
// frozen variables written only by set_now_plus resets; frozen constant
// inputs; guards that are conjunctions of (a) constraints over constant
// inputs and (b) single differences "clock - deadline" against a bound.
// This covers the §IV-A pattern automata for any N and any timed
// elaboration that does not add multi-rate continuous state; the case
// study's ventilator cylinder (±0.1 rate) is out of fragment — its PTE
// safety follows from the pattern projection (Theorem 2), which is what
// this verifier checks.  (The patient's physiology is an environment
// process, not an automaton, so it never reaches the verifier.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "hybrid/automaton.hpp"
#include "hybrid/label_table.hpp"

namespace ptecps::verify {

/// What to verify: the automaton network, its event routing, the PTE
/// parameters to check, and the environment (stimuli, channel bounds).
struct VerifyInput {
  /// automata[e] runs PTE entity e (core/deployment.hpp): automaton 0 is
  /// the supervisor, automata 1..N the entities the rules order, so there
  /// are exactly monitor.n_entities + 1 of them.
  std::vector<hybrid::Automaton> automata;

  /// Every route is wireless: a send may be lost or delayed within the
  /// delivery window (the star network has no other link).
  struct Route {
    std::string root;
    std::size_t src_automaton = 0;
    std::size_t dst_automaton = 0;
  };
  std::vector<Route> routes;

  /// PTE rule parameters (same struct the runtime monitor uses).
  core::MonitorParams monitor;

  /// Environment stimuli the adversary may inject (Engine::inject
  /// equivalents), each drawing on the checker's injection budget.
  struct Stimulus {
    std::size_t automaton = 0;
    std::string root;
  };
  std::vector<Stimulus> stimuli;

  /// Environment writes the adversary may perform (Engine::set_var
  /// equivalents) — e.g. the ApprovalCondition collapsing below its
  /// threshold mid-session.  The targeted variable must be a frozen
  /// constant input; its abstract value set becomes {Φ0} ∪ {toggle
  /// values} and edge enabledness is re-evaluated per state.
  struct InputToggle {
    std::size_t automaton = 0;
    std::string var;
    double value = 0.0;
  };
  std::vector<InputToggle> toggles;

  /// Wireless delivery-delay window [min, max]: a surviving message
  /// arrives after a nondeterministically chosen delay in this range.
  /// The default covers any channel whose delay + jitter stays within
  /// the receiver acceptance window Δ (the paper's refinement).
  double delivery_min = 0.0;
  double delivery_max = 0.5;
};

/// One conjunct of a compiled guard over the model's clocks:
///     clock  cmp  (offset_of(deadline) + c_add)
/// where `deadline` indexes the model's deadline-variable table and the
/// offset is the value most recently written by a set_now_plus reset
/// (part of the search's discrete state).  `deadline == kNoDeadline`
/// means the bound is the constant `c_add` alone.
struct ClockAtom {
  static constexpr std::size_t kNoDeadline = static_cast<std::size_t>(-1);
  std::size_t clock = 0;  // model clock index (see ClockLayout)
  hybrid::Cmp cmp = hybrid::Cmp::kGe;
  std::size_t deadline = kNoDeadline;
  double c_add = 0.0;
};

struct CompiledEdge {
  hybrid::EdgeId id = 0;  // index into the automaton's edge list
  hybrid::LocId src = 0;
  hybrid::LocId dst = 0;
  hybrid::TriggerKind kind = hybrid::TriggerKind::kCondition;
  double dwell = 0.0;             // kTimed: urgent at dwell == this
  hybrid::LabelId trigger = hybrid::kNoLabel;  // kEvent (model-interned)
  bool statically_enabled = true; // non-toggleable constant constraints
  double min_dwell = 0.0;         // guard.min_dwell (0 = none)
  std::vector<ClockAtom> atoms;   // clock part of the guard

  /// Constraints over toggleable inputs: satisfied iff sat[current value
  /// index of the input] (see CompiledModel::inputs).
  struct InputCond {
    std::size_t input = 0;
    std::vector<std::uint8_t> sat;
  };
  std::vector<InputCond> input_conds;

  /// set_now_plus resets: (deadline index, new offset).
  std::vector<std::pair<std::size_t, double>> deadline_sets;

  struct Emit {
    hybrid::LabelId label = hybrid::kNoLabel;  // model-interned root
    std::string root;
    bool routed = false;  // a wireless route carries it to dst_automaton
    std::size_t dst_automaton = 0;
  };
  std::vector<Emit> emits;
};

/// Per-location compiled view.
struct CompiledLocation {
  bool risky = false;
  std::vector<std::size_t> timed_edges;      // indices into edges, source order
  std::vector<std::size_t> condition_edges;  // "
  std::vector<std::size_t> event_edges;      // "
};

struct CompiledAutomaton {
  std::string name;
  std::vector<CompiledEdge> edges;
  std::vector<CompiledLocation> locations;
  hybrid::LocId initial_location = 0;
};

/// Clock indices into the verifier's zones (0 is the DBM zero clock).
struct ClockLayout {
  std::size_t count = 0;  // real clocks (zone dimension - 1)
  std::size_t dwell(std::size_t automaton) const { return 1 + automaton; }
  std::size_t deadline_base = 0;  // + deadline index
  std::size_t risky_base = 0;     // + (entity - 1)
  std::size_t safe_base = 0;      // + (entity - 1)
  std::size_t msg_base = 0;       // + slot
  std::size_t deadline(std::size_t d) const { return deadline_base + d; }
  std::size_t risky(std::size_t entity) const { return risky_base + entity - 1; }
  std::size_t safe(std::size_t entity) const { return safe_base + entity - 1; }
  std::size_t msg(std::size_t slot) const { return msg_base + slot; }
};

struct CompiledModel {
  std::vector<CompiledAutomaton> automata;
  hybrid::LabelTable labels;  // model-local interning of event roots
  ClockLayout clocks;
  std::size_t max_in_flight = 0;

  /// Deadline variable table: (automaton, var) of every set_now_plus
  /// target, with its initial offset (the variable's Φ0 value: the
  /// pattern's all-zero start makes "clock - D >= 0" true from t = 0).
  struct DeadlineVar {
    std::size_t automaton = 0;
    hybrid::VarId var = 0;
    double initial_offset = 0.0;
    std::string name;
  };
  std::vector<DeadlineVar> deadlines;

  core::MonitorParams monitor;  // automaton e runs entity e

  struct CompiledStimulus {
    std::size_t automaton = 0;
    hybrid::LabelId label = hybrid::kNoLabel;
    std::string root;
  };
  std::vector<CompiledStimulus> stimuli;

  /// Toggleable input variables and their abstract value sets (index 0 =
  /// the Φ0 value).
  struct InputVar {
    std::size_t automaton = 0;
    hybrid::VarId var = 0;
    std::string name;
    std::vector<double> values;
  };
  std::vector<InputVar> inputs;

  /// Adversary write actions over `inputs`.
  struct CompiledToggle {
    std::size_t input = 0;
    std::size_t value_index = 0;
  };
  std::vector<CompiledToggle> toggles;

  double delivery_min = 0.0;
  double delivery_max = 0.5;

  /// Compile-time partial-order-reduction tables (used when
  /// VerifyOptions::por is on).  All of them are *conservative*: an
  /// entry only permits a reduction when the static analysis proves it
  /// cannot change any guard, invariant, or PTE-rule read.
  struct PorInfo {
    /// dwell_free[a][l]: automaton a's dwell clock is never read while
    /// it sits in location l — no timed edges and no min_dwell guard on
    /// any outgoing edge.  The checker frees the clock there (it is
    /// reset on the next location entry anyway).
    std::vector<std::vector<std::uint8_t>> dwell_free;
    /// deadline_live[d][l]: deadline-age clock d may still be read
    /// before its next set_now_plus write when its owning automaton is
    /// at location l.  Backward reachability fixpoint over the owner's
    /// edge graph (guards referencing a deadline are confined to the
    /// automaton that owns the variable); where false, the checker
    /// frees the age clock.
    std::vector<std::vector<std::uint8_t>> deadline_live;
  };
  PorInfo por;

  /// Largest constant any zone operation compares against (+1); the
  /// extrapolation parameter that makes the zone lattice finite.
  double max_constant = 0.0;

  /// Human-readable clock names (diagnostics, counterexample rendering).
  std::vector<std::string> clock_names;
};

/// Compile `input` into the timed model, checking the fragment.
/// `max_in_flight` bounds concurrently pending wireless messages (the
/// checker throws if a run exceeds it — raise it rather than silently
/// dropping interleavings).
CompiledModel compile_model(const VerifyInput& input, std::size_t max_in_flight = 8);

}  // namespace ptecps::verify
