#include "api/frontier.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <map>
#include <utility>

#include "attack/attacker.hpp"
#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::api {

using util::Json;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One scenario's binary search over attacker ammunition.  The state
/// machine probes the endpoints first (0 then budget) because most
/// deployments resolve there in two probes; only an interior frontier
/// pays for the bisection.
struct Search {
  /// Probe template: inline grafted document, verify-only, no crossval.
  Job probe;
  FrontierResult res;
  // Bracket invariant once phase 2 is reached: proved at lo, violated
  // at hi.
  std::size_t lo = 0;
  std::size_t hi = 0;
  enum class Phase { kProbeZero, kProbeFull, kBisect, kDone };
  Phase phase = Phase::kProbeZero;
  /// Ammunition of the probe in flight this round.
  std::size_t in_flight = 0;
  /// losses -> the violating probe's counterexample replayed through
  /// the engine (for the critical-probe witness flag).
  std::map<std::size_t, bool> replayed;

  std::size_t next_losses() const {
    switch (phase) {
      case Phase::kProbeZero: return 0;
      case Phase::kProbeFull: return res.budget;
      case Phase::kBisect: return (lo + hi) / 2;
      case Phase::kDone: break;
    }
    PTE_REQUIRE(false, "frontier search polled after completion");
    return 0;
  }

  void fail(std::string message) {
    res.errors.push_back(std::move(message));
    phase = Phase::kDone;
  }

  void conclude() {
    res.ok = res.errors.empty();
    if (res.critical_losses.has_value())
      res.counterexample_replayed = replayed[*res.critical_losses];
    std::sort(res.probes.begin(), res.probes.end(),
              [](const FrontierProbe& a, const FrontierProbe& b) {
                return a.losses < b.losses;
              });
    phase = Phase::kDone;
  }

  void absorb(verify::VerifyStatus status) {
    const std::size_t k = in_flight;
    if (status == verify::VerifyStatus::kOutOfBudget) {
      fail(util::cat("probe at ", k, " losses ran out of state budget; ",
                     "raise --states to resolve this frontier"));
      return;
    }
    const bool proved = status == verify::VerifyStatus::kProved;
    switch (phase) {
      case Phase::kProbeZero:
        if (!proved) {
          // Violated with the attacker fully disarmed: no safe
          // intensity exists.
          res.critical_losses = 0;
          res.critical_intensity = 0.0;
          res.margin = 0.0;
          conclude();
          return;
        }
        lo = 0;
        phase = Phase::kProbeFull;
        return;
      case Phase::kProbeFull:
        if (proved) {
          res.safe_losses = res.budget;
          res.margin = 1.0;
          conclude();
          return;
        }
        hi = res.budget;
        break;
      case Phase::kBisect:
        (proved ? lo : hi) = k;
        break;
      case Phase::kDone:
        PTE_REQUIRE(false, "frontier search absorbed a probe after completion");
    }
    if (hi - lo <= 1) {
      // Bracket is tight: lo is the largest proved ammunition (the
      // monotone lowering makes everything below it proved too), hi
      // the smallest with a counterexample.
      res.safe_losses = lo;
      res.critical_losses = hi;
      res.margin = static_cast<double>(lo) / static_cast<double>(res.budget);
      res.critical_intensity =
          static_cast<double>(hi) / static_cast<double>(res.budget);
      conclude();
      return;
    }
    phase = Phase::kBisect;
  }
};

}  // namespace

Json FrontierReport::to_json() const {
  Json out = Json::object();
  out.set("ok", ok);
  Json list = Json::array();
  for (const FrontierResult& r : results) {
    Json one = Json::object();
    one.set("scenario", r.scenario);
    one.set("ok", r.ok);
    one.set("budget", r.budget);
    if (r.safe_losses.has_value()) one.set("safe_losses", *r.safe_losses);
    one.set("margin", r.margin);
    if (r.critical_losses.has_value()) {
      one.set("critical_losses", *r.critical_losses);
      one.set("critical_intensity", r.critical_intensity);
      one.set("counterexample_replayed", r.counterexample_replayed);
    }
    Json probes = Json::array();
    for (const FrontierProbe& p : r.probes) {
      Json pj = Json::object();
      pj.set("losses", p.losses);
      pj.set("intensity", p.intensity);
      pj.set("status", verify::verify_status_str(p.status));
      probes.push_back(std::move(pj));
    }
    one.set("probes", std::move(probes));
    Json errs = Json::array();
    for (const std::string& e : r.errors) errs.push_back(e);
    one.set("errors", std::move(errs));
    list.push_back(std::move(one));
  }
  out.set("results", std::move(list));
  if (cache.enabled) out.set("cache", cache.to_json());
  if (deduped > 0) out.set("deduped", deduped);
  Json errs = Json::array();
  for (const std::string& e : errors) errs.push_back(e);
  out.set("errors", std::move(errs));
  return out;
}

FrontierReport compute_frontier(const Service& service, const std::vector<Job>& jobs,
                                const FrontierOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  FrontierReport report;
  report.cache.enabled = service.cache() != nullptr;
  if (jobs.empty()) {
    report.errors.push_back("frontier needs at least one scenario");
    report.wall_ms = ms_since(t0);
    return report;
  }
  if (options.default_budget == 0) {
    report.errors.push_back("frontier default budget must be positive");
    report.wall_ms = ms_since(t0);
    return report;
  }

  std::vector<Search> searches(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Search& s = searches[i];
    try {
      // Graft the sweepable attacker: a deployment with no attacker (or
      // an unbudgeted one) is swept against the default ammunition grid,
      // attacker-less scenarios under the harshest family — a sustained
      // jammer that kills every message it has ammunition for.
      scenarios::ScenarioDocument doc = resolve_scenario(jobs[i]);
      s.res.scenario = doc.params.name;
      doc.expected.reset();
      attack::AttackerModel& attacker = doc.params.attacker;
      if (attacker.kind == attack::AttackerModel::Kind::kNone)
        attacker = attack::AttackerModel::sustained_jammer(1.0);
      if (attacker.budget == 0) attacker.with_budget(options.default_budget);
      s.res.budget = attacker.budget;

      s.probe = jobs[i];
      s.probe.scenario_ref.clear();
      s.probe.scenario = std::move(doc);
      // Probes are prover-only: the frontier is a property of the
      // worst-case adversary, and crossval at every probe point would
      // multiply the sweep's cost by the sampling budget.
      s.probe.mode = campaign::RunMode::kVerify;
      s.probe.cross_validate = false;
      s.probe.expected.reset();
      s.probe.attacker_intensity = 1.0;
      // Pre-flight the lowering once so an ill-formed scenario fails
      // alone instead of sinking a whole probe round.
      scenarios::build(resolved_params(s.probe, *s.probe.scenario));
    } catch (const std::exception& e) {
      s.fail(e.what());
    }
  }

  // Lockstep rounds: every unfinished search contributes its next probe
  // and the batch runs as one campaign.  Probe sequences are
  // deterministic (verdicts are bit-identical across thread counts), so
  // the rounds — and therefore the margins and the cache traffic — are
  // too.
  while (true) {
    std::vector<std::size_t> active;
    std::vector<Job> probes;
    for (std::size_t i = 0; i < searches.size(); ++i) {
      Search& s = searches[i];
      if (s.phase == Search::Phase::kDone) continue;
      s.in_flight = s.next_losses();
      Job probe = s.probe;
      probe.attacker_intensity =
          static_cast<double>(s.in_flight) / static_cast<double>(s.res.budget);
      active.push_back(i);
      probes.push_back(std::move(probe));
    }
    if (active.empty()) break;

    const MatrixResult round = service.run_matrix(probes);
    report.cache.hits += round.cache.hits;
    report.cache.misses += round.cache.misses;
    report.deduped += round.deduped;
    if (round.rows.size() != active.size()) {
      // The campaign itself failed (resolution already pre-flighted, so
      // this is a runtime fault): nothing is attributable per probe.
      for (const std::size_t i : active)
        for (const std::string& e : round.errors) searches[i].fail(e);
      for (const std::string& e : round.errors) report.errors.push_back(e);
      break;
    }

    for (std::size_t j = 0; j < active.size(); ++j) {
      Search& s = searches[active[j]];
      const MatrixRow& row = round.rows[j];
      if (!row.status.has_value()) {
        s.fail(util::cat("probe at ", s.in_flight, " losses produced no verdict"));
        continue;
      }
      FrontierProbe probe;
      probe.losses = s.in_flight;
      probe.intensity =
          static_cast<double>(s.in_flight) / static_cast<double>(s.res.budget);
      probe.status = *row.status;
      s.res.probes.push_back(probe);
      if (*row.status == verify::VerifyStatus::kViolation &&
          round.report.has_value()) {
        const campaign::ScenarioOutcome& outcome = round.report->scenarios[j];
        s.replayed[s.in_flight] = outcome.verification.has_value() &&
                                  outcome.verification->replay_reproduced;
      }
      s.absorb(*row.status);
    }
  }

  report.ok = report.errors.empty();
  for (Search& s : searches) {
    report.ok = report.ok && s.res.ok;
    report.results.push_back(std::move(s.res));
  }
  report.wall_ms = ms_since(t0);
  return report;
}

}  // namespace ptecps::api
