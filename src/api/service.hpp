// The one entry point of the public API: Service::run(Job) → JobResult.
//
// The service resolves the job's scenario (registry name or inline
// document), applies mode/tuning/seed overrides, lowers onto the
// campaign runtime, executes (Monte-Carlo, exhaustive proof, or both),
// cross-validates the two sides, and assembles the JobResult.  It NEVER
// throws: resolution failures, inconsistent parameters, and runtime
// errors all come back as a JobResult with ok == false and the error
// text in `errors` — a server loop or the CLI can serialize any outcome.
#pragma once

#include <memory>
#include <vector>

#include "api/cache.hpp"
#include "api/job.hpp"

namespace ptecps::api {

/// The job's scenario as a document: registry lookup for a ref, the
/// inline document otherwise.  Throws on an ill-formed job.
scenarios::ScenarioDocument resolve_scenario(const Job& job);

/// The job's overrides folded into the document's parameters — mode,
/// smoke profile, explicit tuning, seed base, attacker intensity, in
/// that order.  The ONE code path run(), run_matrix() and the frontier
/// planner all go through, so cache keys and campaign lowering agree by
/// construction.
scenarios::ScenarioParams resolved_params(const Job& job,
                                          const scenarios::ScenarioDocument& doc);

struct ServiceOptions {
  /// Root of the content-addressed result cache (api/cache.hpp); empty
  /// (the default) disables caching entirely.  Created when missing;
  /// Service construction throws with a path diagnostic when unusable.
  std::string cache_dir;
  /// Cache size cap, enforced by LRU eviction at store time.
  std::uint64_t cache_max_bytes = ResultCache::kDefaultMaxBytes;
};

/// Safe for concurrent use: run()/run_matrix() are const, keep all
/// mutable state on the stack, and the shared ResultCache publishes
/// atomically (tmp + rename) — the daemon's worker pool calls one
/// Service instance from many threads.
class Service {
 public:
  explicit Service(ServiceOptions options = {});

  /// Execute one job end to end: the one-job case of run_matrix()'s
  /// pipeline, timed.  With a cache configured: a stored result for the
  /// job's canonical scenario is returned directly (the expectation and
  /// ok flag re-derived against THIS job, since the asserted expectation
  /// is not part of the key); on a miss an out-of-budget verification's
  /// frontier is stored, and a later run with a strictly larger state
  /// budget warm-resumes it.  Cached and resumed verdicts,
  /// counterexamples, and state counts are bit-identical to a cold
  /// run's; JobResult::cache carries the hit/miss/resume accounting.
  JobResult run(const Job& job) const;

  /// Execute several jobs as ONE campaign: every Monte-Carlo run shares
  /// the thread pool and the report merges deterministically, exactly
  /// like the scenario matrix.  Row i answers job i; a job that does not
  /// resolve fails the whole matrix.  With a cache, jobs whose scenarios
  /// hit are answered from storage and only the misses run (sound:
  /// per-scenario outcomes are independent of how a campaign is split);
  /// the merged report lists every scenario in job order either way.
  /// run() and run_matrix() share one pipeline, so a stored entry is the
  /// same whichever of them wrote it: no expectation, and a
  /// cross-validation block only when the job asked for one.
  MatrixResult run_matrix(const std::vector<Job>& jobs) const;

  /// The configured cache, or nullptr (the `pte cache` subcommands).
  const ResultCache* cache() const { return cache_.get(); }

 private:
  ServiceOptions options_;
  std::unique_ptr<ResultCache> cache_;
};

}  // namespace ptecps::api
