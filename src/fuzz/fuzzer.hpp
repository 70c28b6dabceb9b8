// Coverage-guided scenario-space fuzzing: hunt prover/sampler
// disagreement at scale by driving batches of grammar-generated
// scenario documents and flip probes of corpus entries through
// api::Service::run_matrix (so every execution gets the result cache,
// content dedup, and the deterministic merged report for free) and
// feeding three signals back into scheduling:
//
//   1. the exhaustive checker's discrete-state fingerprint sketch
//      (verify::StateSketch) — which parts of the reachable state space
//      a scenario actually visited,
//   2. verdict flips — structural buckets (grammar::structure_bucket)
//      holding both a proved and a violated execution,
//   3. cross-validation consistency — the finding class this whole
//      subsystem exists to surface.
//
// Guided mode additionally dedups candidates on their prover-relevant
// projection (grammar::prover_projection): re-running a deployment the
// prover has already explored cannot buy new coverage, so the exec
// budget is spent on genuinely new cells of the scenario grid.  --blind
// disables the feedback loop (pure generation, digest dedup only) — the
// baseline the guided-beats-blind acceptance test measures against.
//
// Findings are auto-minimized (fuzz/minimize.hpp) into sparse
// reproducer documents small enough to check into tests/corpus/ as a
// permanent regression suite.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/grammar.hpp"
#include "util/json.hpp"

namespace ptecps::fuzz {

struct FuzzOptions {
  std::uint64_t seed = 1;
  /// Scenario executions to spend (corpus seed-replay included).
  std::size_t max_execs = 256;
  /// Wall-clock cap in seconds; 0 = exec-bounded only.  Tests run with
  /// 0 so campaigns are bit-deterministic (no wall-clock decisions).
  double time_budget_s = 0.0;
  /// Scenarios per run_matrix call (the unit of batching and of the
  /// coverage-growth curve).
  std::size_t batch = 16;
  /// Coverage feedback + projection dedup (false = --blind baseline).
  bool guided = true;
  /// Persistent corpus directory: loaded (and seed-replayed) before the
  /// campaign, saved after.  Empty = in-memory corpus only.
  std::string corpus_dir;
  /// Where minimized finding reproducers are written ("<digest16>.json");
  /// empty = keep them only in the report.
  std::string artifact_dir;
  /// Delta-debug findings down to minimal reproducers.
  bool minimize = true;
  GrammarOptions grammar;
  /// Monte-Carlo worker threads per execution (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Test-only mutation hook: scenarios this returns true for are
  /// treated as cross-validation disagreements even when the real
  /// engines agree — the injected-bug channel the find-and-minimize
  /// machinery is tested against (tests/test_fuzz.cpp).
  std::function<bool(const scenarios::ScenarioParams&)> fault_hook;
};

struct FuzzFinding {
  enum class Kind { kDisagreement, kError };
  Kind kind = Kind::kDisagreement;
  /// params_digest of `doc` (the minimized form when minimized).
  std::string digest;
  std::string bucket;
  std::string description;
  scenarios::ScenarioDocument doc;
  /// rendered_lines(doc) — the "fits in a code review" metric.
  std::size_t doc_lines = 0;
  bool minimized = false;
};

/// One point of the coverage-growth curve (sampled per batch).
struct CoveragePoint {
  std::size_t execs = 0;
  std::uint64_t coverage_bits = 0;
  std::size_t distinct_sketches = 0;
  std::size_t flip_regions = 0;
};

struct FuzzStats {
  std::size_t execs = 0;
  /// Candidates rejected before execution (content-digest duplicates,
  /// and in guided mode prover-projection duplicates).
  std::size_t dedup_skipped = 0;
  std::size_t corpus_size = 0;
  /// Distinct StateSketch signatures observed across executions.
  std::size_t distinct_sketches = 0;
  /// Popcount of the merged fingerprint bitmap over the whole campaign.
  std::uint64_t coverage_bits = 0;
  /// Structural buckets holding both a proved and a violated execution.
  std::size_t flip_regions = 0;
  /// Executions in an "edge" dwell tier — the near-miss frontier.
  std::size_t near_misses = 0;
  std::size_t proved = 0;
  std::size_t violated = 0;
  std::size_t out_of_budget = 0;
  std::size_t row_errors = 0;
  api::CacheCounters cache;
  std::size_t matrix_deduped = 0;
  double wall_s = 0.0;
  double execs_per_s = 0.0;
  std::vector<CoveragePoint> coverage_curve;

  util::Json to_json() const;
};

struct FuzzReport {
  FuzzStats stats;
  std::vector<FuzzFinding> findings;
  /// Campaign-level failures (corpus I/O, artifact writes); row-level
  /// execution errors become kError findings instead.
  std::vector<std::string> errors;

  /// True iff the campaign itself ran clean AND surfaced no findings —
  /// the CLI's exit code (a finding is the fuzzer doing its job, but it
  /// is still a red build).
  bool ok() const { return findings.empty() && errors.empty(); }
  util::Json to_json() const;
};

class Fuzzer {
 public:
  /// The service is borrowed (it is const-callable and thread-safe);
  /// configure its cache_dir to give the campaign cross-campaign dedup.
  Fuzzer(const api::Service& service, FuzzOptions options);

  FuzzReport run();

 private:
  const api::Service& service_;
  FuzzOptions options_;
};

}  // namespace ptecps::fuzz
