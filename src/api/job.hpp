// The versioned public request/response surface of the repo: a Job names
// (or inlines) a deployment, picks an execution mode and budgets, and a
// JobResult carries everything a client needs — verdict, campaign
// aggregates, cross-validation, counterexample digest, errors — as one
// JSON-serializable value.
//
// This is the paper's workflow as an API: pick a deployment, prove its
// PTE rules under the bounded adversary, sample it under realistic loss.
// Before this layer the only client surface was C++ against four
// internal layers (ScenarioParams, ScenarioSpec, CampaignRunner,
// crossval) with every deployment compiled into the registry; a Job is
// the externalized, data-driven form of the same request, and the `pte`
// CLI is nothing but Job JSON in, JobResult JSON out.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "scenarios/crossval.hpp"
#include "scenarios/registry.hpp"
#include "scenarios/serialize.hpp"
#include "util/json.hpp"

namespace ptecps::api {

/// Protocol version stamped into every JobResult; a Job carrying a
/// different "version" is rejected.
inline constexpr std::int64_t kApiVersion = 1;

struct Job {
  /// Exactly one of the two must be set: a registry name, or an inline
  /// scenario document (the same shape `pte export` writes).
  std::string scenario_ref;
  std::optional<scenarios::ScenarioDocument> scenario;

  /// Override the scenario's declared run mode.
  std::optional<campaign::RunMode> mode;

  /// Apply the CI smoke profile (RegistryTuning::smoke()) before
  /// `tuning` — bounded budgets for cheap, deterministic runs.
  bool smoke = false;
  /// Budget overrides on top (0 = keep the scenario's own).
  scenarios::RegistryTuning tuning;
  std::optional<std::uint64_t> seed_base;

  /// Monte-Carlo worker threads (0 = hardware concurrency).
  std::size_t threads = 0;

  /// Override the scenario attacker's intensity knob (in [0,1]) — the
  /// lever `pte frontier` sweeps: it scales the stochastic lowering and
  /// the prover's attacker-budgeted ammunition together.  Part of the
  /// resolved canonical params, so every probe point gets its own cache
  /// entry.  Absent = keep the document's own intensity.
  std::optional<double> attacker_intensity;

  /// Cross-validate prover against sampler when both sides ran.
  bool cross_validate = true;

  /// Prover verdict to assert; when absent, the scenario's own declared
  /// expectation (registry entry / "expected" file key) is used.
  std::optional<verify::VerifyStatus> expected;

  static Job for_scenario(std::string registry_name);
  static Job for_document(scenarios::ScenarioDocument doc);

  /// Strict (util::JsonError on unknown keys / wrong types / bad version).
  static Job from_json(const util::Json& j);
  util::Json to_json() const;
};

/// Result-cache accounting for one Service call (api/cache.hpp);
/// serialized under "cache" only when a cache was configured, so
/// cache-less output is byte-stable across the feature.
struct CacheCounters {
  std::size_t hits = 0;
  std::size_t misses = 0;
  bool enabled = false;

  /// {"hits", "misses"} — the "cache" block of every report that has one.
  util::Json to_json() const;
};

struct JobResult {
  bool ok = false;
  /// Resolved scenario name ("" when resolution itself failed).
  std::string scenario;
  /// "proved" / "violation" / "out-of-budget" when the prover ran;
  /// "sampled-clean" / "sampled-violations" for Monte-Carlo-only jobs;
  /// "error" when the job never produced a campaign or its prover threw
  /// (the message is in `errors`).
  std::string verdict;
  std::optional<verify::VerifyStatus> proof_status;
  /// The expectation in force (job's, or the scenario's own), and
  /// whether the prover met it (true when nothing was expected).
  std::optional<verify::VerifyStatus> expected;
  bool expected_match = true;
  /// Present when a campaign ran.
  std::optional<campaign::CampaignReport> report;
  std::optional<scenarios::CrossValidationReport> crossval;
  std::vector<std::string> errors;
  CacheCounters cache;
  /// End-to-end wall clock of the Service::run call that produced this
  /// result — a cache hit reports its own (tiny) wall, not the cold
  /// run's.  Serialized only when nonzero (cached entries store 0), so
  /// stored JSON stays byte-stable run to run.
  double wall_ms = 0.0;

  util::Json to_json() const;
  /// Inverse of to_json (strict; util::JsonError on unknown keys) — how
  /// the result cache rebuilds a stored JobResult.  proof_status rides
  /// in the verdict string; campaign detail round-trips through
  /// campaign::CampaignReport::from_json.
  static JobResult from_json(const util::Json& j);
};

/// One row of a matrix run: a job's verdict against its expectation.
struct MatrixRow {
  std::string scenario;
  std::optional<verify::VerifyStatus> expected;
  std::optional<verify::VerifyStatus> status;
  bool expected_match = true;
  bool consistent = true;  // cross-validation verdict for this scenario
  /// Compute wall THIS call spent on the row (prover wall + summed
  /// Monte-Carlo run walls).  Rows answered from the result cache or by
  /// dedup fan-out report 0 — only the row that actually executed its
  /// campaign slot carries the cost, so a frontier-style sweep's hit
  /// rows never inherit the executed slot's timing.
  double wall_ms = 0.0;
};

/// Result of running several jobs as ONE campaign (shared pool, one
/// deterministic report) — the `pte matrix` path.
struct MatrixResult {
  bool ok = false;
  std::vector<MatrixRow> rows;
  std::optional<campaign::CampaignReport> report;
  std::optional<scenarios::CrossValidationReport> crossval;
  std::vector<std::string> errors;
  CacheCounters cache;
  /// Jobs answered by another identical job in the same matrix (same
  /// canonical params digest): the proof ran once, the result fanned
  /// out in job order.  Serialized only when nonzero.
  std::size_t deduped = 0;
  /// End-to-end wall clock of the run_matrix call.
  double wall_ms = 0.0;

  util::Json to_json() const;
};

}  // namespace ptecps::api
