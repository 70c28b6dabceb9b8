// CampaignRunner: fan a list of ScenarioSpecs × seeds out over a thread
// pool and merge the results deterministically.
//
// Each run is fully self-contained (its own scheduler, engine, network,
// rng — all derived from the run's seed), so runs execute on any thread
// in any order; results land in a pre-sized slot table indexed by
// (spec, seed) and aggregation walks that table sequentially.  The report
// is therefore bit-identical whether the campaign ran on 1 thread or 16.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/scenario.hpp"
#include "util/json.hpp"
#include "verify/checker.hpp"

namespace ptecps::campaign {

/// Result of a spec's exhaustive `verify` / `both` mode.
struct VerificationOutcome {
  verify::VerifyStatus status = verify::VerifyStatus::kOutOfBudget;
  std::size_t states_explored = 0;
  std::size_t states_stored = 0;
  std::size_t transitions = 0;
  /// Worker threads the prover actually ran with (VerifySpec::threads
  /// resolved — hardware concurrency when 0).
  std::size_t threads_used = 0;
  std::optional<verify::Counterexample> counterexample;
  /// A replay was run for the counterexample (VerifySpec::replay and a
  /// counterexample exists) — distinguishes "did not reproduce" from
  /// "replay not requested" for the cross-validation layer.
  bool replay_attempted = false;
  /// Counterexample replayed through hybrid::Engine and reproduced.
  bool replay_reproduced = false;
  /// Human-readable replay outcome (violations the engine DID observe,
  /// unmatched sends) — what "NOT reproduced" actually looked like.
  std::string replay_detail;
  /// Discrete-state fingerprint summary of the exploration — the
  /// coverage signal the scenario-space fuzzer feeds on.  Serialized
  /// through the report JSON, so cache hits still carry coverage.
  verify::StateSketch sketch;
  double wall_seconds = 0.0;
};

struct CampaignOptions {
  /// Worker threads; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Keep every run's full violation list in the report (the aggregate
  /// counts survive either way).
  bool keep_violations = true;
};

/// All runs of one ScenarioSpec, in seed order, plus aggregates.
struct ScenarioOutcome {
  std::string name;
  std::vector<RunResult> runs;  // seed order — the deterministic merge
  std::size_t total_violations = 0;
  std::size_t total_sessions = 0;
  std::size_t censored_sessions = 0;  // right-censored at the horizon
  std::size_t failed_runs = 0;  // runs that threw (see RunResult-less slot)
  net::ChannelStats network;    // summed over runs
  double wall_mean_s = 0.0;
  double wall_p50_s = 0.0;
  double wall_p99_s = 0.0;
  /// Present when the spec ran in kVerify / kBoth mode and the prover
  /// returned; a prover that threw leaves it empty and a "[verify]" error.
  std::optional<VerificationOutcome> verification;
};

struct CampaignReport {
  std::vector<ScenarioOutcome> scenarios;
  std::size_t threads = 1;
  std::size_t total_runs = 0;
  std::size_t total_violations = 0;
  std::size_t failed_runs = 0;
  std::size_t censored_sessions = 0;
  /// Verification tallies over kVerify / kBoth specs.
  std::size_t specs_proved = 0;
  std::size_t specs_with_counterexample = 0;
  double wall_seconds = 0.0;   // whole campaign
  double runs_per_second = 0.0;

  /// Errors from runs that threw, "scenario[seed]: what()", and from
  /// provers that threw, "scenario[verify]: what()".
  std::vector<std::string> errors;

  /// True iff nothing failed: no run or prover threw and no verification
  /// ran out of budget (bench mains turn this into their exit code).
  bool ok() const;

  /// Machine-readable report on the shared JSON layer (api::JobResult
  /// embeds this tree).  Non-finite aggregates (a zero-wall campaign's
  /// runs_per_second) render as null, not "nan".
  util::Json to_json() const;
  /// Inverse of to_json for the aggregate view (strict; util::JsonError
  /// on unknown keys or malformed values) — how the result cache rebuilds
  /// a stored report.  Per-run detail is not serialized, so the parsed
  /// `runs` vectors hold default-constructed placeholders sized to the
  /// recorded count; every aggregate, verification outcome, and
  /// counterexample round-trips bit-for-bit through to_json.
  static CampaignReport from_json(const util::Json& j);
  /// to_json() pretty-printed — parses back with util::Json::parse.
  std::string json() const;
  /// One-paragraph human summary.
  std::string summary() const;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options = {});

  /// Execute every spec × seed; blocks until done.
  CampaignReport run(const std::vector<ScenarioSpec>& specs);
  CampaignReport run(const ScenarioSpec& spec);

 private:
  CampaignOptions options_;
};

}  // namespace ptecps::campaign
