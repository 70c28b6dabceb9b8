// Session analysis: the empirical counterpart of Theorem 1's *reset*
// claim — "the system will reset itself to Fall-Back within
// T^max_wait + T^max_LS1 every time evtξ0Toξ1LeaseReq happens".
//
// A *session* is one excursion of the Supervisor out of Fall-Back
// (triggered by an accepted Initializer request) until its return.  The
// tracker also measures, per session, when every monitored entity was
// last seen outside its Fall-Back-projected locations, giving the true
// whole-system reset time.  The property tests assert
//     session.system_reset_duration() <= reset bound
// for every session under adversarial loss.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "hybrid/engine.hpp"
#include "sim/time.hpp"

namespace ptecps::core {

struct SessionRecord {
  sim::SimTime supervisor_left = 0.0;     // Fall-Back departure (lease req sent)
  sim::SimTime supervisor_back = -1.0;    // Fall-Back return (-1: still out)
  sim::SimTime entities_settled = -1.0;   // last entity's return to Fall-Back
                                          // within this session (-1: none left
                                          // or still out)
  /// Simulation horizon recorded by finalize() when the session's reset
  /// is still incomplete there (-1: fully reset before the horizon).  A
  /// session is *right-censored* either because the supervisor is still
  /// out (supervisor_back == -1) or because the supervisor returned but
  /// a session entity is still outside its (projected) Fall-Back: in
  /// both cases the true whole-system reset duration is unknown but at
  /// least `censored_elapsed()`.  Dropping these sessions (the old
  /// behavior of max_system_reset) censored exactly the longest
  /// excursions out of the worst-case statistics.
  sim::SimTime censored_at = -1.0;

  bool closed() const { return supervisor_back >= 0.0; }
  bool censored() const { return censored_at >= 0.0; }

  /// Time until supervisor AND every entity are back in (projected)
  /// Fall-Back.
  sim::SimTime system_reset_duration() const;
  /// Lower bound on the reset duration of a censored session (elapsed at
  /// the horizon); -1 for non-censored sessions.
  sim::SimTime censored_elapsed() const {
    return censored() ? censored_at - supervisor_left : -1.0;
  }
};

class SessionTracker {
 public:
  /// `fall_back_of[a]` lists the location ids of automaton `a` that count
  /// as (projected) Fall-Back — for an elaborated design these are the
  /// child locations of the elaborated Fall-Back.  `waiting_of[a]` lists
  /// *waiting* locations (the Initializer's "Requesting"): dwelling there
  /// is a pending protocol attempt, not a leased excursion, so it neither
  /// opens nor holds a session's settle time — the lost-request bounce
  /// (Requesting for T^max_req,N, then home) belongs to no session.
  /// Index 0 must be the supervisor.  Construct before engine.init().
  SessionTracker(hybrid::Engine& engine,
                 std::vector<std::vector<hybrid::LocId>> fall_back_of,
                 std::vector<std::vector<hybrid::LocId>> waiting_of = {});

  /// Convenience: derive the Fall-Back sets by name — the supervisor's
  /// and every entity's "Fall-Back" location plus, for elaborated
  /// automata, every location whose name is in `extra_fall_back_names`.
  /// Throws if an automaton has none.
  static std::vector<std::vector<hybrid::LocId>> fall_back_sets(
      std::span<const hybrid::Automaton> automata,
      const std::vector<std::string>& extra_fall_back_names);

  /// Convenience: every location named "Requesting".
  static std::vector<std::vector<hybrid::LocId>> waiting_sets(
      std::span<const hybrid::Automaton> automata);

  /// Record the horizon: sessions still open become right-censored at
  /// `end` (they enter the worst-case statistics as lower bounds instead
  /// of being dropped).  Idempotent.
  void finalize(sim::SimTime end);

  const std::vector<SessionRecord>& sessions() const { return sessions_; }
  std::size_t session_count() const { return sessions_.size(); }
  /// Sessions still open at the finalize() horizon.
  std::size_t censored_count() const;
  /// Longest observed whole-system reset (0 if none).  Censored sessions
  /// contribute their elapsed time at the horizon — a lower bound on the
  /// true reset, so this statistic never under-reports the worst case.
  sim::SimTime max_system_reset() const;
  /// True iff no session is known to have exceeded `bound`: every closed
  /// session reset within it AND no censored session had already
  /// exceeded it at the horizon.  A censored session still within the
  /// bound is indeterminate and does not fail the check.
  bool all_within(sim::SimTime bound) const;

  std::string summary() const;

 private:
  enum class LocClass { kHome, kWaiting, kActive };
  void on_transition(std::size_t automaton, sim::SimTime t, hybrid::LocId to);
  LocClass classify(std::size_t automaton, hybrid::LocId loc) const;

  hybrid::Engine& engine_;
  std::vector<std::vector<hybrid::LocId>> fall_back_of_;
  std::vector<std::vector<hybrid::LocId>> waiting_of_;
  std::vector<bool> entity_out_;  // per automaton: currently out of Fall-Back
  /// Entity excursions that began while no session was open (e.g. the
  /// initializer bouncing through Requesting because its request packet
  /// was lost) are *stray*: they belong to no session and must not extend
  /// any session's settle time.  A stray excursion is re-attributed if a
  /// session opens while it is still in progress (the initializer leaves
  /// Fall-Back an instant before the supervisor accepts its request).
  std::vector<bool> entity_stray_;
  std::vector<SessionRecord> sessions_;
  bool supervisor_out_ = false;
  bool finalized_ = false;
};

}  // namespace ptecps::core
