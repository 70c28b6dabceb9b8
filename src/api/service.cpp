#include "api/service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <set>
#include <span>
#include <utility>

#include "scenarios/canonical.hpp"
#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::api {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A row's compute wall, derived from the outcome's recorded timings so
/// fresh and cached answers report the same number.
double outcome_wall_ms(const campaign::ScenarioOutcome& outcome) {
  double ms = outcome.wall_mean_s * static_cast<double>(outcome.runs.size()) * 1000.0;
  if (outcome.verification.has_value()) ms += outcome.verification->wall_seconds * 1000.0;
  return ms;
}

/// Re-derive the expectation-dependent half of a JobResult.  The
/// asserted expectation is deliberately NOT part of the cache key, so a
/// cache hit recomputes it against the job at hand; the cold path uses
/// the same function so both agree by construction.  An asserted
/// expectation is about the PROVER's verdict: when the prover never ran
/// (Monte-Carlo-only job), the assertion is unmet, not vacuously true.
void finalize_verdict(JobResult& result, const std::optional<verify::VerifyStatus>& expected) {
  result.expected = expected;
  result.expected_match =
      !expected.has_value() ||
      (result.proof_status.has_value() && *expected == *result.proof_status);
  result.ok = result.report.has_value() && result.report->ok() && result.expected_match &&
              (!result.crossval.has_value() || result.crossval->ok());
}

/// A job's answer carved out of the campaign that ran it: the job's
/// scenario outcome as a one-scenario report, its verdict, and — only
/// when the job asked — its cross-validation.  The one producer of a
/// fresh JobResult: what run() returns, what the cache stores, and what
/// run_matrix() rows and merged report are built from, so a key's stored
/// entry does not depend on which entry point wrote it.  It carries no
/// expectation (not part of the key).  Campaign-level threads and wall
/// numbers stand in for a solo run's: timing is metadata, not part of
/// the cached contract.
JobResult carve_result(campaign::ScenarioOutcome outcome, const campaign::CampaignReport& fresh,
                       bool cross_validate) {
  JobResult result;
  result.scenario = outcome.name;
  campaign::CampaignReport sub;
  sub.threads = fresh.threads;
  sub.wall_seconds = fresh.wall_seconds;
  sub.runs_per_second = fresh.runs_per_second;
  sub.total_runs = outcome.runs.size() + outcome.failed_runs;
  sub.total_violations = outcome.total_violations;
  sub.failed_runs = outcome.failed_runs;
  sub.censored_sessions = outcome.censored_sessions;
  // The campaign names each error "<scenario>[<seed>|verify]: ...".  A
  // prover that threw left no verification: the job's verdict is that error.
  const std::string prover_fault = outcome.name + "[verify]: ";
  for (const std::string& e : fresh.errors) {
    if (!e.starts_with(outcome.name) || e.compare(outcome.name.size(), 1, "[") != 0) continue;
    sub.errors.push_back(e);
    if (e.starts_with(prover_fault)) result.errors.push_back(e);
  }
  if (outcome.verification.has_value()) {
    result.proof_status = outcome.verification->status;
    result.verdict = verify::verify_status_str(*result.proof_status);
    if (*result.proof_status == verify::VerifyStatus::kProved) sub.specs_proved = 1;
    if (outcome.verification->counterexample.has_value()) sub.specs_with_counterexample = 1;
  } else if (!result.errors.empty()) {
    result.verdict = "error";
  } else {
    result.verdict = outcome.total_violations > 0 ? "sampled-violations" : "sampled-clean";
  }
  sub.scenarios.push_back(std::move(outcome));
  if (cross_validate) result.crossval = scenarios::cross_validate(sub);
  result.report = std::move(sub);
  finalize_verdict(result, std::nullopt);
  return result;
}

/// One Service call's jobs, carried through the pipeline.
struct Batch {
  /// Job i's answer, in job order: its expectation applied and its own
  /// cache counters set.
  std::vector<JobResult> answers;
  /// Answer i ran its own campaign slot: neither a cache hit nor a
  /// dedup copy of an earlier identical job.
  std::vector<bool> ran;
  /// Why the batch stopped short: the first job that did not resolve
  /// (later jobs are unanswered), or the campaign's throw (every answer
  /// that needed the campaign carries it too).
  std::optional<std::string> error;
  /// The call's totals: hits, and campaign slots as misses.
  CacheCounters cache;
  std::size_t deduped = 0;
  /// The campaign over the misses; its outcomes are moved into answers.
  campaign::CampaignReport fresh;
};

/// The one job pipeline behind run() and run_matrix(): resolve every
/// job, answer the hits from the cache, run the misses as ONE campaign,
/// carve each job's answer out of it, and store the fresh answers.
Batch run_jobs(const ResultCache* cache, std::span<const Job> jobs) {
  Batch batch;
  batch.cache.enabled = cache != nullptr;
  batch.answers.resize(jobs.size());

  struct Prepared {
    std::optional<verify::VerifyStatus> expected;
    scenarios::ScenarioParams params;
    campaign::ScenarioSpec spec;
    std::string result_key;
    bool hit = false;
  };
  std::vector<Prepared> prep(jobs.size());
  std::size_t threads = 0;  // 0 = hardware concurrency
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    Prepared& p = prep[i];
    JobResult& answer = batch.answers[i];
    answer.verdict = "error";
    answer.cache.enabled = cache != nullptr;
    try {
      const scenarios::ScenarioDocument doc = resolve_scenario(job);
      answer.scenario = doc.params.name;
      p.expected = job.expected.has_value() ? job.expected : doc.expected;
      answer.expected = p.expected;
      p.params = resolved_params(job, doc);
      p.spec = scenarios::build(p.params);
    } catch (const std::exception& e) {
      answer.errors.push_back(e.what());
      batch.error = e.what();
      return batch;
    }
    threads = std::max(threads, job.threads);
    if (cache == nullptr) continue;
    p.result_key = cache->result_key(p.params, job.cross_validate);
    if (std::optional<util::Json> stored = cache->load_result(p.result_key)) {
      try {
        JobResult hit = JobResult::from_json(*stored);
        if (hit.report.has_value() && !hit.report->scenarios.empty()) {
          answer = std::move(hit);
          answer.cache.hits = 1;
          p.hit = true;
        }
      } catch (const std::exception&) {
        // Corrupt entry: a miss, which the store below overwrites.
      }
    }
  }

  // Hits are answered from storage; the misses run as ONE campaign.
  // Sound because per-scenario outcomes are independent of how a
  // campaign is split — each run derives everything from its own seed
  // and each spec is verified in isolation.  Identical jobs (same
  // canonical params digest — name, budgets, seeds, everything
  // semantic) collapse onto one campaign slot: the proof runs once and
  // the answer fans out to every duplicate row in job order.
  constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::vector<std::size_t> slot_of(jobs.size(), kNoSlot);
  std::vector<campaign::ScenarioSpec> specs;
  std::map<std::string, std::size_t> slot_by_digest;
  batch.ran.assign(jobs.size(), false);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (prep[i].hit) {
      ++batch.cache.hits;
      continue;
    }
    std::size_t slot = specs.size();
    if (jobs.size() > 1)  // a lone job has nothing to dedup against
      slot = slot_by_digest.try_emplace(scenarios::params_digest(prep[i].params), slot)
                 .first->second;
    slot_of[i] = slot;
    if (slot < specs.size()) {
      ++batch.deduped;
      continue;
    }
    batch.ran[i] = true;
    specs.push_back(std::move(prep[i].spec));
  }
  batch.cache.misses = specs.size();

  campaign::CampaignOptions options;
  options.threads = threads;

  campaign::CampaignReport& fresh = batch.fresh;
  fresh.threads = threads > 0 ? threads : 1;
  if (!specs.empty()) {
    try {
      fresh = campaign::CampaignRunner(options).run(specs);
    } catch (const std::exception& e) {
      batch.error = e.what();
    }
  }

  if (batch.error.has_value()) {
    for (std::size_t i = 0; i < jobs.size(); ++i)
      if (slot_of[i] != kNoSlot) batch.answers[i].errors.push_back(*batch.error);
  } else {
    // Store only out of a fully clean campaign — run/verify errors are
    // not attributable per scenario with certainty; kOutOfBudget IS
    // deterministic and cacheable.
    // Dedup rows can still carry a distinct result_key (cross_validate
    // is part of the key but not of the campaign digest), so store each
    // key once.
    const bool store = cache != nullptr && fresh.errors.empty() && fresh.failed_runs == 0;
    std::set<std::string> stored_keys;
    // A slot's last row takes its outcome by move; dedup rows before it
    // copy (a sampled outcome carries every run).
    std::vector<std::size_t> rows_left(specs.size(), 0);
    for (const std::size_t slot : slot_of)
      if (slot != kNoSlot) ++rows_left[slot];
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const std::size_t slot = slot_of[i];
      if (slot == kNoSlot) continue;
      campaign::ScenarioOutcome& outcome = fresh.scenarios[slot];
      JobResult& answer = batch.answers[i];
      answer = carve_result(
          --rows_left[slot] == 0 ? std::move(outcome) : campaign::ScenarioOutcome(outcome),
          fresh, jobs[i].cross_validate);
      if (store && stored_keys.insert(prep[i].result_key).second)
        cache->store_result(prep[i].result_key, answer.scenario, answer.to_json());
    }
  }

  // Counters and the job's own expectation go on last, so the stored
  // form above carries neither.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobResult& answer = batch.answers[i];
    answer.cache.enabled = cache != nullptr;
    if (batch.ran[i] && cache != nullptr) answer.cache.misses = 1;
    if (!answer.report.has_value()) continue;  // the campaign threw
    finalize_verdict(answer, prep[i].expected);
  }
  return batch;
}

/// run_matrix()'s answer assembled from the batch: one row per job, and
/// every job's answer merged into one report in job order.
MatrixResult matrix_result(Batch batch) {
  MatrixResult result;
  result.cache = batch.cache;
  result.deduped = batch.deduped;
  if (batch.answers.empty()) batch.error = "matrix needs at least one job";
  if (batch.error.has_value()) {
    result.errors.push_back(std::move(*batch.error));
    return result;
  }

  campaign::CampaignReport merged;
  merged.threads = batch.fresh.threads;
  merged.wall_seconds = batch.fresh.wall_seconds;
  merged.runs_per_second = batch.fresh.runs_per_second;
  merged.errors = std::move(batch.fresh.errors);
  scenarios::CrossValidationReport merged_xval;
  bool all_ok = true;
  for (std::size_t i = 0; i < batch.answers.size(); ++i) {
    JobResult& answer = batch.answers[i];
    campaign::CampaignReport& report = *answer.report;
    campaign::ScenarioOutcome& outcome = report.scenarios[0];

    MatrixRow row;
    row.scenario = outcome.name;
    // Only the row that actually executed its campaign slot reports the
    // compute wall; cache hits AND dedup copies answered without running
    // report 0 (see MatrixRow::wall_ms).
    row.wall_ms = batch.ran[i] ? outcome_wall_ms(outcome) : 0.0;
    row.expected = answer.expected;
    row.status = answer.proof_status;
    row.expected_match = answer.expected_match;
    if (answer.crossval.has_value()) {
      for (scenarios::CrossCheck& check : answer.crossval->checks) {
        row.consistent = row.consistent && check.consistent;
        merged_xval.checks.push_back(std::move(check));
      }
    }
    all_ok = all_ok && row.expected_match && row.consistent;
    result.rows.push_back(std::move(row));

    merged.total_runs += report.total_runs;
    merged.total_violations += report.total_violations;
    merged.failed_runs += report.failed_runs;
    merged.censored_sessions += report.censored_sessions;
    merged.specs_proved += report.specs_proved;
    merged.specs_with_counterexample += report.specs_with_counterexample;
    merged.scenarios.push_back(std::move(outcome));
  }

  result.report = std::move(merged);
  result.crossval = std::move(merged_xval);
  result.ok = result.report->ok() && all_ok;
  return result;
}

}  // namespace

scenarios::ScenarioDocument resolve_scenario(const Job& job) {
  PTE_REQUIRE(!(job.scenario.has_value() && !job.scenario_ref.empty()),
              "job carries both a scenario reference and an inline scenario");
  if (job.scenario.has_value()) return *job.scenario;
  PTE_REQUIRE(!job.scenario_ref.empty(),
              "job carries neither a scenario reference nor an inline scenario");
  const scenarios::RegistryEntry* entry = scenarios::find_scenario(job.scenario_ref);
  PTE_REQUIRE(entry != nullptr,
              util::cat("unknown scenario '", job.scenario_ref, "' (try `pte list`)"));
  return scenarios::export_document(*entry);
}

scenarios::ScenarioParams resolved_params(const Job& job,
                                          const scenarios::ScenarioDocument& doc) {
  scenarios::ScenarioParams params = doc.params;
  if (job.mode.has_value()) params.mode = *job.mode;
  if (job.smoke) scenarios::apply_tuning(params, scenarios::RegistryTuning::smoke());
  scenarios::apply_tuning(params, job.tuning);
  if (job.seed_base.has_value()) params.seed_base = *job.seed_base;
  if (job.attacker_intensity.has_value()) {
    PTE_REQUIRE(*job.attacker_intensity >= 0.0 && *job.attacker_intensity <= 1.0,
                util::cat("attacker intensity out of [0,1]: ", *job.attacker_intensity));
    params.attacker.intensity = *job.attacker_intensity;
  }
  return params;
}

Service::Service(ServiceOptions options) : options_(std::move(options)) {
  if (!options_.cache_dir.empty()) {
    ResultCache::Options copt;
    copt.dir = options_.cache_dir;
    copt.max_bytes = options_.cache_max_bytes;
    cache_ = std::make_unique<ResultCache>(std::move(copt));
  }
}

JobResult Service::run(const Job& job) const {
  const auto t0 = std::chrono::steady_clock::now();
  JobResult result = std::move(run_jobs(cache_.get(), {&job, 1}).answers[0]);
  // Timing is observed here, never stored: a hit reports its own wall.
  result.wall_ms = ms_since(t0);
  return result;
}

MatrixResult Service::run_matrix(const std::vector<Job>& jobs) const {
  const auto t0 = std::chrono::steady_clock::now();
  MatrixResult result = matrix_result(run_jobs(cache_.get(), jobs));
  result.wall_ms = ms_since(t0);
  return result;
}

}  // namespace ptecps::api
