#include "core/analysis.hpp"

#include <algorithm>

#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::core {

sim::SimTime SessionRecord::system_reset_duration() const {
  if (!closed()) return -1.0;
  const sim::SimTime settled = std::max(supervisor_back, entities_settled);
  return settled - supervisor_left;
}

SessionTracker::SessionTracker(hybrid::Engine& engine,
                               std::vector<std::vector<hybrid::LocId>> fall_back_of,
                               std::vector<std::vector<hybrid::LocId>> waiting_of)
    : engine_(engine), fall_back_of_(std::move(fall_back_of)),
      waiting_of_(std::move(waiting_of)) {
  PTE_REQUIRE(fall_back_of_.size() == engine.num_automata(),
              "need a Fall-Back set per automaton");
  if (waiting_of_.empty()) waiting_of_ = waiting_sets(engine.automata());
  PTE_REQUIRE(waiting_of_.size() == engine.num_automata(),
              "need a waiting set per automaton (may be empty)");
  entity_out_.assign(engine.num_automata(), false);
  entity_stray_.assign(engine.num_automata(), false);
  engine.add_transition_observer(
      [this](std::size_t a, sim::SimTime t, hybrid::LocId, hybrid::LocId to,
             const std::string&) { on_transition(a, t, to); });
}

std::vector<std::vector<hybrid::LocId>> SessionTracker::fall_back_sets(
    std::span<const hybrid::Automaton> automata,
    const std::vector<std::string>& extra_fall_back_names) {
  std::vector<std::vector<hybrid::LocId>> sets(automata.size());
  for (std::size_t a = 0; a < automata.size(); ++a) {
    const hybrid::Automaton& aut = automata[a];
    for (hybrid::LocId l = 0; l < aut.num_locations(); ++l) {
      const std::string& name = aut.location(l).name;
      const bool is_fb =
          name == "Fall-Back" ||
          std::find(extra_fall_back_names.begin(), extra_fall_back_names.end(), name) !=
              extra_fall_back_names.end();
      if (is_fb) sets[a].push_back(l);
    }
    PTE_REQUIRE(!sets[a].empty(),
                util::cat("automaton '", aut.name(), "' has no (projected) Fall-Back"));
  }
  return sets;
}

std::vector<std::vector<hybrid::LocId>> SessionTracker::waiting_sets(
    std::span<const hybrid::Automaton> automata) {
  std::vector<std::vector<hybrid::LocId>> sets(automata.size());
  for (std::size_t a = 0; a < automata.size(); ++a) {
    const hybrid::Automaton& aut = automata[a];
    for (hybrid::LocId l = 0; l < aut.num_locations(); ++l) {
      if (aut.location(l).name == "Requesting") sets[a].push_back(l);
    }
  }
  return sets;
}

SessionTracker::LocClass SessionTracker::classify(std::size_t automaton,
                                                  hybrid::LocId loc) const {
  const auto& home = fall_back_of_[automaton];
  if (std::find(home.begin(), home.end(), loc) != home.end()) return LocClass::kHome;
  const auto& waiting = waiting_of_[automaton];
  if (std::find(waiting.begin(), waiting.end(), loc) != waiting.end())
    return LocClass::kWaiting;
  return LocClass::kActive;
}

void SessionTracker::on_transition(std::size_t automaton, sim::SimTime t, hybrid::LocId to) {
  const LocClass cls = classify(automaton, to);

  // Is any non-stray entity currently in active (leased) locations?
  auto any_session_entity_out = [this] {
    for (std::size_t a = 1; a < entity_out_.size(); ++a) {
      if (entity_out_[a] && !entity_stray_[a]) return true;
    }
    return false;
  };

  if (automaton == 0) {
    const bool fb = cls == LocClass::kHome;
    if (supervisor_out_ && fb) {
      supervisor_out_ = false;
      PTE_CHECK(!sessions_.empty(), "supervisor returned without an open session");
      sessions_.back().supervisor_back = t;
      if (!any_session_entity_out()) sessions_.back().entities_settled = t;
    } else if (!supervisor_out_ && !fb) {
      supervisor_out_ = true;
      sessions_.push_back(SessionRecord{t, -1.0, -1.0});
      // Entities already active (they can leave Fall-Back an instant
      // before the supervisor accepts the request) join this session.
      for (std::size_t a = 1; a < entity_stray_.size(); ++a) {
        if (entity_out_[a]) entity_stray_[a] = false;
      }
    }
    return;
  }

  // Entities: only *active* dwelling counts as being out; waiting
  // (Requesting) is a pending attempt that belongs to no session until
  // it becomes active.
  const bool out_now = cls == LocClass::kActive;
  const bool was_out = entity_out_[automaton];
  entity_out_[automaton] = out_now;
  if (!was_out && out_now) {
    // Active excursion starts: stray iff no session is currently open.
    entity_stray_[automaton] = !supervisor_out_;
    return;
  }
  if (was_out && !out_now) {
    if (entity_stray_[automaton]) {
      entity_stray_[automaton] = false;
      return;  // belonged to no session
    }
    // A session entity settled (home or back to waiting); if the session
    // already closed and this was the last one out, it settles now.
    if (!sessions_.empty()) {
      auto& s = sessions_.back();
      if (s.closed() && !any_session_entity_out())
        s.entities_settled = std::max(s.entities_settled, t);
    }
  }
}

void SessionTracker::finalize(sim::SimTime end) {
  if (finalized_) return;
  finalized_ = true;
  for (auto& s : sessions_) {
    if (!s.closed()) s.censored_at = end;
  }
  // A closed session whose entities have not all settled is censored
  // too: the supervisor is home but the whole-system reset is still in
  // progress (e.g. an unwound abort chain left an entity leased past
  // the horizon).  Only the most recent session can be in this state —
  // an entity still out when a later session opens is re-attributed to
  // that session.
  bool session_entity_out = false;
  for (std::size_t a = 1; a < entity_out_.size(); ++a) {
    if (entity_out_[a] && !entity_stray_[a]) session_entity_out = true;
  }
  if (session_entity_out && !sessions_.empty()) {
    SessionRecord& last = sessions_.back();
    if (last.closed() && last.entities_settled < 0.0) last.censored_at = end;
  }
}

std::size_t SessionTracker::censored_count() const {
  std::size_t n = 0;
  for (const auto& s : sessions_) n += s.censored() ? 1 : 0;
  return n;
}

sim::SimTime SessionTracker::max_system_reset() const {
  sim::SimTime best = 0.0;
  for (const auto& s : sessions_) {
    const sim::SimTime d = s.censored() ? s.censored_elapsed() : s.system_reset_duration();
    if (d >= 0.0) best = std::max(best, d);
  }
  return best;
}

bool SessionTracker::all_within(sim::SimTime bound) const {
  for (const auto& s : sessions_) {
    if (s.censored()) {
      // Censored (supervisor or an entity still out at the horizon):
      // indeterminate unless the elapsed time alone already proves the
      // bound broken.
      if (s.censored_elapsed() > bound + sim::kTimeEps) return false;
      continue;
    }
    if (!s.closed()) return false;  // open and un-finalized: cannot judge
    const sim::SimTime d = s.system_reset_duration();
    if (d < 0.0 || d > bound + sim::kTimeEps) return false;
  }
  return true;
}

std::string SessionTracker::summary() const {
  std::size_t closed = 0;
  for (const auto& s : sessions_) closed += s.closed() ? 1 : 0;
  return util::cat("sessions: ", sessions_.size(), " (", closed, " closed, ",
                   censored_count(), " censored), max system reset ",
                   util::fmt_compact(max_system_reset(), 3), "s");
}

}  // namespace ptecps::core
