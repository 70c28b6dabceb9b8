// Exhaustive PTE safety checking by zone-based reachability.
//
// The checker explores every reachable (discrete state, zone) of the
// compiled model under a worst-case channel: each wireless emission is
// nondeterministically lost (up to a loss budget) or delivered after any
// delay in the model's delivery window, and environment stimuli are
// injected at arbitrary times (up to an injection budget).  Against this
// adversary it checks the PTE safety rules exactly as core::PteMonitor
// judges a concrete run:
//   * Rule 1 / Theorem 1: no entity's continuous risky dwelling can
//     exceed its bound (the reset bound T^max_wait + T^max_LS1 for the
//     pattern configs);
//   * Rule 2 (Definition 1, p1–p3): embedding order, enter safeguard,
//     exit safeguard, via per-entity risky/safe instrumentation clocks.
//
// A violation is returned as a *concrete* counterexample — injection
// times, per-message loss/delivery decisions with exact timestamps —
// obtained by a backward feasibility pass over the abstract path
// (forward zones ∩ backward predecessors, then greedy minimal delays).
// verify::replay_counterexample() plays it through a real
// hybrid::Engine + PteMonitor to confirm the violation end to end.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/monitor.hpp"
#include "util/json.hpp"
#include "verify/model.hpp"

namespace ptecps::verify {

/// Engine identity baked into the result cache's keys and entries.  Bump
/// on any change that can alter the canonical search order, verdicts, or
/// state counts — stale entries then miss cleanly.
inline constexpr std::string_view kEngineTag = "zone-engine-v6";

struct VerifyOptions {
  /// Adversary budgets per execution: messages the channel may drop
  /// (loss, corruption, and late rejection all count here), stimuli the
  /// environment may inject, and input-variable writes it may perform
  /// (e.g. the ApprovalCondition collapsing).
  std::size_t max_losses = 2;
  std::size_t max_injections = 2;
  std::size_t max_input_changes = 1;
  /// Search budget; exceeding it yields kOutOfBudget, never a silent
  /// partial "proof".
  std::size_t max_states = 1'000'000;
  /// Worker threads for the parallel exploration; 0 = hardware
  /// concurrency.  Workers steal frontier chunks from a shared
  /// rank-ordered work list, but every store mutation commits through
  /// the canonical (parent rank, branch ordinal) order and the round's
  /// lowest-ranked violation wins — the result (verdict, counterexample,
  /// state counts) is bit-identical for every thread count.
  std::size_t threads = 1;
  /// Partial-order reduction (exact): free clocks the static analysis
  /// proves unread before their next reset (collapsing interleavings
  /// that differ only in dead-clock ages into one stored zone), and
  /// explore only the ascending order of back-to-back adversary input
  /// writes on Definition-2-independent automata.  Verdicts and
  /// counterexamples are unchanged; stored/explored state counts shrink.
  bool por = true;
  /// Use the antichain passed/waiting store: drop new zones subsumed by a
  /// visited zone of the same discrete state, evict visited zones the new
  /// zone subsumes.  `false` falls back to exact-equality deduplication —
  /// slower but assumption-free, kept as the cross-check oracle for the
  /// subsumption property tests.
  bool subsumption = true;
};

enum class VerifyStatus { kProved, kViolation, kOutOfBudget };

std::string verify_status_str(VerifyStatus status);

struct CounterexampleInjection {
  double t = 0.0;
  std::size_t automaton = 0;
  std::string root;
};

/// An adversarial environment write (Engine::set_var in the replay).
struct CounterexampleToggle {
  double t = 0.0;
  std::size_t automaton = 0;
  hybrid::VarId var = 0;
  double value = 0.0;
  std::string var_name;
};

/// One wireless send of the counterexample run, in emission order — the
/// adversary's decision for it, and the exact delivery instant if any.
struct CounterexampleSend {
  double send_time = 0.0;
  bool lost = false;       // also: still in flight at the horizon
  double deliver_time = 0.0;
  std::size_t dst_automaton = 0;
  std::string root;
};

struct Counterexample {
  core::PteViolationKind kind = core::PteViolationKind::kDwellBound;
  std::size_t entity = 0;
  std::size_t other_entity = 0;
  std::string description;
  double time = 0.0;     // violation instant
  double horizon = 0.0;  // replay until here (>= time)
  std::vector<CounterexampleInjection> injections;
  std::vector<CounterexampleToggle> toggles;
  std::vector<CounterexampleSend> sends;
  /// Human-readable narrative: "[t=…] …" per step.
  std::vector<std::string> narrative;

  std::string str() const;

  /// Machine-readable digest on the shared JSON layer: violation kind /
  /// entities / instant plus the full adversarial schedule (injections,
  /// input toggles, per-send loss/delivery decisions) — everything a
  /// client needs to archive or re-drive the counterexample.
  util::Json to_json() const;

  /// Inverse of to_json (strict; util::JsonError on unknown keys or a
  /// kind string no violation maps to) — how the result cache rebuilds a
  /// stored counterexample bit-for-bit.
  static Counterexample from_json(const util::Json& j);
};

/// Compact summary of the discrete-state fingerprints a run visited: the
/// exact count of distinct 128-bit keys the store held, plus a 4096-bit
/// presence bitmap (each key sets two bits, Bloom-style).  The visited
/// key SET is part of the checker's determinism contract — canonical
/// absorb ordering makes it identical at every thread count — so the
/// sketch is too, and the coverage-guided fuzzer (src/fuzz/) uses it as
/// its novelty signal: a scenario whose sketch sets bits no earlier
/// scenario set reached genuinely new discrete behavior.
struct StateSketch {
  static constexpr std::size_t kWords = 64;  // 64 × u64 = 4096 bits
  std::array<std::uint64_t, kWords> bits{};
  /// Exact number of distinct fingerprints added (not a bitmap estimate).
  std::uint64_t distinct = 0;

  /// Record one 128-bit fingerprint (callers must add each key once).
  void add(std::uint64_t h1, std::uint64_t h2);
  /// Population count of the presence bitmap.
  std::size_t popcount() const;
  /// Bits set here that `seen` does not have — the novelty of this run
  /// against an accumulated coverage map.
  std::size_t novel_bits(const StateSketch& seen) const;
  /// OR `other`'s presence bits into this sketch, returning how many bits
  /// were newly set.  Union sketches track campaign-wide coverage; their
  /// `distinct` stays untouched (it only counts keys added directly).
  std::size_t merge(const StateSketch& other);
  /// Order-independent 64-bit identity of (bits, distinct) — two runs
  /// with equal signatures visited indistinguishable state sets at this
  /// sketch's resolution.
  std::uint64_t signature() const;
  /// Bitmap as lowercase hex, trailing zero words trimmed ("" when no
  /// bit is set) — the serialization form.
  std::string bits_hex() const;
  /// Inverse of bits_hex; false on a malformed string (sketch untouched).
  bool set_bits_hex(std::string_view hex);

  bool operator==(const StateSketch&) const = default;
};

struct VerifyResult {
  VerifyStatus status = VerifyStatus::kOutOfBudget;
  std::size_t states_explored = 0;
  std::size_t states_stored = 0;
  std::size_t transitions = 0;
  /// Worker threads the exploration actually ran with (the resolved
  /// value of VerifyOptions::threads — hardware concurrency when 0).
  std::size_t threads_used = 0;
  std::optional<Counterexample> counterexample;
  /// Fingerprint summary of the stored discrete states (empty when the
  /// run found a violation before storing anything).
  StateSketch sketch;

  std::string summary() const;
};

/// Exhaustively check the PTE rules of `model` under the bounded
/// adversary.  Deterministic: same model + options ⇒ same result.
VerifyResult verify_pte(const CompiledModel& model, const VerifyOptions& options = {});

}  // namespace ptecps::verify
