#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "fuzz/minimize.hpp"
#include "scenarios/canonical.hpp"
#include "util/text.hpp"

namespace fs = std::filesystem;

namespace ptecps::fuzz {

using scenarios::ScenarioDocument;

namespace {

constexpr unsigned kSawProved = 1u;
constexpr unsigned kSawViolation = 2u;

unsigned status_bit(verify::VerifyStatus s) {
  switch (s) {
    case verify::VerifyStatus::kProved: return kSawProved;
    case verify::VerifyStatus::kViolation: return kSawViolation;
    case verify::VerifyStatus::kOutOfBudget: return 0;
  }
  return 0;
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The whole campaign's mutable state, so run() reads as the loop it is.
struct Campaign {
  const api::Service& service;
  const FuzzOptions& opt;
  sim::Rng rng;
  Corpus corpus;
  FuzzReport report;
  verify::StateSketch merged;
  std::unordered_set<std::uint64_t> signatures;
  std::unordered_set<std::string> executed_digests;
  std::unordered_set<std::string> executed_projections;
  std::unordered_map<std::string, unsigned> bucket_verdicts;
  std::unordered_map<std::string, std::size_t> probe_counts;
  std::unordered_set<std::string> finding_digests;
  std::chrono::steady_clock::time_point started = std::chrono::steady_clock::now();

  Campaign(const api::Service& s, const FuzzOptions& o) : service(s), opt(o), rng(o.seed) {}

  double elapsed_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
        .count();
  }

  bool budget_left(std::size_t pending) const {
    if (report.stats.execs + pending >= opt.max_execs) return false;
    if (opt.time_budget_s > 0.0 && elapsed_s() >= opt.time_budget_s) return false;
    return true;
  }

  /// A corpus entry with something to probe toward a verdict flip: it
  /// sits in an edge-tier bucket that has seen exactly one verdict so
  /// far.
  const CorpusEntry* unflipped_entry() {
    const CorpusEntry* found = nullptr;
    std::size_t seen = 0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const CorpusEntry& e = corpus.at(i);
      // Edge tier only: an edge dwell flip changes the verdict AND the
      // truncation point (fresh sketch).  Broken-tier ratios share one
      // projection cell (they truncate identically), so their probes
      // would be dedup-rejected anyway; re-drawn ammunition in armed
      // buckets mostly re-truncates at the same discrete prefix — it
      // buys the flip at the price of a duplicate sketch.
      const bool probeable = ends_with(e.bucket, "|edge");
      if (!probeable) continue;
      const auto it = bucket_verdicts.find(e.bucket);
      if (it == bucket_verdicts.end() || it->second == 0 ||
          it->second == (kSawProved | kSawViolation))
        continue;
      // Some buckets cannot flip (every edge fraction yields the same
      // verdict) — stop sinking execs into one after a couple of failed
      // probes; their truncated explorations also collide on
      // near-identical sketches.
      if (const auto pc = probe_counts.find(e.bucket);
          pc != probe_counts.end() && pc->second >= 2)
        continue;
      // Reservoir-sample so repeated probes spread over all candidates.
      if (rng.uniform_int(++seen) == 0) found = &e;
    }
    return found;
  }

  ScenarioDocument draw_candidate() {
    // Fresh generation by default: the quantized grid is wide, and the
    // projection dedup below is what converts freshness into coverage.
    // One draw in four spends the feedback instead — a directed flip
    // probe at a single-verdict bucket (same bucket, boundary knob
    // re-drawn across the verdict line).  When every probe-able bucket
    // has either flipped or exhausted its probe allowance, the whole
    // budget flows back into generation; undirected corpus mutation is
    // deliberately NOT in the mix, because single-knob mutations land
    // disproportionately on projection-fresh-but-sketch-identical cells.
    if (opt.guided && !corpus.empty() && rng.uniform_int(6) == 0) {
      if (const CorpusEntry* target = unflipped_entry()) {
        ++probe_counts[target->bucket];
        return flip_probe(rng, target->doc, opt.grammar);
      }
    }
    return generate(rng, opt.grammar);
  }

  /// Fill one batch of content-fresh candidates.  Guided mode also
  /// rejects candidates whose prover projection has already executed —
  /// bounded retries, because near exhaustion of the quantized grid the
  /// only fresh content left may share a projection.
  std::vector<ScenarioDocument> next_batch() {
    std::vector<ScenarioDocument> batch;
    std::unordered_set<std::string> batch_digests;
    std::unordered_set<std::string> batch_projections;
    std::size_t rejects = 0;
    const std::size_t max_rejects = 48 * opt.batch;
    while (batch.size() < opt.batch && budget_left(batch.size()) &&
           rejects < max_rejects) {
      ScenarioDocument doc = draw_candidate();
      const std::string digest = scenarios::params_digest(doc.params);
      if (executed_digests.count(digest) > 0 || batch_digests.count(digest) > 0) {
        ++rejects;
        ++report.stats.dedup_skipped;
        continue;
      }
      const std::string projection = prover_projection(doc.params);
      if (opt.guided && (executed_projections.count(projection) > 0 ||
                         batch_projections.count(projection) > 0)) {
        ++rejects;
        ++report.stats.dedup_skipped;
        continue;
      }
      batch_digests.insert(digest);
      batch_projections.insert(projection);
      batch.push_back(std::move(doc));
    }
    return batch;
  }

  void note_finding(FuzzFinding::Kind kind, const ScenarioDocument& doc,
                    std::string description) {
    const std::string digest = scenarios::params_digest(doc.params);
    if (!finding_digests.insert(digest).second) return;  // one report per content
    if (report.findings.size() >= 32) return;            // a runaway hook is not 32k findings
    FuzzFinding f;
    f.kind = kind;
    f.digest = digest;
    f.bucket = structure_bucket(doc.params);
    f.description = std::move(description);
    f.doc = doc;
    f.doc_lines = rendered_lines(doc);
    report.findings.push_back(std::move(f));
  }

  void execute_batch(const std::vector<ScenarioDocument>& batch) {
    std::vector<api::Job> jobs;
    jobs.reserve(batch.size());
    for (const ScenarioDocument& doc : batch) {
      api::Job job = api::Job::for_document(doc);
      job.threads = opt.threads;
      jobs.push_back(std::move(job));
    }
    const api::MatrixResult mr = service.run_matrix(jobs);
    report.stats.cache.hits += mr.cache.hits;
    report.stats.cache.misses += mr.cache.misses;
    report.stats.cache.resumes += mr.cache.resumes;
    report.stats.cache.enabled = report.stats.cache.enabled || mr.cache.enabled;
    report.stats.matrix_deduped += mr.deduped;

    // Per-scenario coverage and consistency detail, keyed by the
    // (unique, digest-derived) scenario name.
    std::unordered_map<std::string, const campaign::ScenarioOutcome*> outcomes;
    if (mr.report.has_value())
      for (const campaign::ScenarioOutcome& so : mr.report->scenarios)
        outcomes.emplace(so.name, &so);
    std::unordered_map<std::string, const scenarios::CrossCheck*> checks;
    if (mr.crossval.has_value())
      for (const scenarios::CrossCheck& c : mr.crossval->checks)
        checks.emplace(c.scenario, &c);

    for (std::size_t i = 0; i < batch.size() && i < mr.rows.size(); ++i) {
      const ScenarioDocument& doc = batch[i];
      const api::MatrixRow& row = mr.rows[i];
      ++report.stats.execs;
      executed_digests.insert(scenarios::params_digest(doc.params));
      const std::string projection = prover_projection(doc.params);
      executed_projections.insert(projection);
      const std::string bucket = structure_bucket(doc.params);
      if (ends_with(bucket, "|edge")) ++report.stats.near_misses;

      if (!row.status.has_value()) {
        ++report.stats.row_errors;
        std::string detail = "execution produced no verdict";
        for (const std::string& e : mr.errors)
          if (e.find(doc.params.name) != std::string::npos) detail = e;
        note_finding(FuzzFinding::Kind::kError, doc, detail);
        continue;
      }
      switch (*row.status) {
        case verify::VerifyStatus::kProved: ++report.stats.proved; break;
        case verify::VerifyStatus::kViolation: ++report.stats.violated; break;
        case verify::VerifyStatus::kOutOfBudget: ++report.stats.out_of_budget; break;
      }
      unsigned& mask = bucket_verdicts[bucket];
      const unsigned before = mask;
      mask |= status_bit(*row.status);
      if (mask == (kSawProved | kSawViolation) && before != mask)
        ++report.stats.flip_regions;

      verify::StateSketch sketch;
      if (const auto it = outcomes.find(row.scenario);
          it != outcomes.end() && it->second->verification.has_value())
        sketch = it->second->verification->sketch;
      const std::uint64_t novel = merged.merge(sketch);
      const bool new_signature =
          sketch.distinct > 0 && signatures.insert(sketch.signature()).second;

      // Out-of-budget rows are cross-validation-inconsistent by
      // definition ("never a pass"), but for a fuzzer running with
      // deliberately bounded state budgets they are a normal outcome,
      // not a prover/sampler disagreement — tallied above, not filed.
      const bool injected = opt.fault_hook && opt.fault_hook(doc.params);
      const bool disagreement =
          !row.consistent && *row.status != verify::VerifyStatus::kOutOfBudget;
      if (disagreement || injected) {
        std::string detail = injected ? "injected sampler fault (test hook)"
                                      : "prover/sampler disagreement";
        if (const auto it = checks.find(row.scenario);
            it != checks.end() && !it->second->consistent && !it->second->detail.empty())
          detail = it->second->detail;
        note_finding(FuzzFinding::Kind::kDisagreement, doc, detail);
      }

      // Retention: guided keeps what moved coverage; blind keeps
      // everything it managed to execute (content dedup still applies).
      if (!opt.guided || novel > 0 || new_signature) {
        CorpusEntry entry;
        entry.doc = doc;
        entry.bucket = bucket;
        corpus.add(std::move(entry));
      }
    }

    CoveragePoint point;
    point.execs = report.stats.execs;
    point.coverage_bits = merged.popcount();
    point.distinct_sketches = signatures.size();
    point.flip_regions = report.stats.flip_regions;
    report.stats.coverage_curve.push_back(point);
  }

  Predicate predicate_for(FuzzFinding::Kind kind) {
    return [this, kind](const ScenarioDocument& doc) {
      if (kind == FuzzFinding::Kind::kDisagreement && opt.fault_hook &&
          opt.fault_hook(doc.params))
        return true;
      api::Job job = api::Job::for_document(doc);
      job.threads = opt.threads;
      const api::JobResult r = service.run(job);
      if (kind == FuzzFinding::Kind::kError)
        return !r.errors.empty() || !r.proof_status.has_value();
      if (r.crossval.has_value())
        for (const scenarios::CrossCheck& c : r.crossval->checks)
          if (!c.consistent && c.status != verify::VerifyStatus::kOutOfBudget)
            return true;
      return false;
    };
  }

  void finalize_findings() {
    std::unordered_set<std::string> minimized_digests;
    std::vector<FuzzFinding> kept;
    for (FuzzFinding& f : report.findings) {
      if (opt.minimize) {
        try {
          MinimizeResult m = minimize(f.doc, predicate_for(f.kind));
          f.doc = std::move(m.doc);
          f.minimized = true;
        } catch (const std::exception& ex) {
          report.errors.push_back(
              util::cat("minimize ", f.digest.substr(0, 16), ": ", ex.what()));
        }
      }
      // Stamp the prover's verdict as the document's declared
      // expectation, so `pte matrix` over the checked-in reproducer
      // asserts it forever after.
      api::Job job = api::Job::for_document(f.doc);
      job.threads = opt.threads;
      const api::JobResult r = service.run(job);
      f.doc.expected = r.proof_status;
      if (f.doc.summary.empty()) f.doc.summary = f.description;
      f.digest = scenarios::params_digest(f.doc.params);
      f.doc_lines = rendered_lines(f.doc);
      // Distinct raw findings often minimize to the same root cause;
      // keep one reproducer per reduced content.
      if (!minimized_digests.insert(f.digest).second) continue;
      if (!opt.artifact_dir.empty()) {
        std::error_code ec;
        fs::create_directories(opt.artifact_dir, ec);
        const fs::path path =
            fs::path(opt.artifact_dir) / util::cat(f.digest.substr(0, 16), ".json");
        std::ofstream out(path);
        if (out) {
          out << rendered_text(f.doc);
        } else {
          report.errors.push_back(util::cat("cannot write artifact ", path.string()));
        }
      }
      kept.push_back(std::move(f));
    }
    report.findings = std::move(kept);
  }
};

}  // namespace

Fuzzer::Fuzzer(const api::Service& service, FuzzOptions options)
    : service_(service), options_(std::move(options)) {}

FuzzReport Fuzzer::run() {
  Campaign c(service_, options_);
  try {
    // Seed replay: a persistent corpus re-executes first, so its
    // coverage (and, with a cache, its stored results) anchor the
    // campaign before any new candidate spends budget.
    if (!options_.corpus_dir.empty()) {
      c.corpus.load(options_.corpus_dir, c.report.errors);
      std::vector<ScenarioDocument> replay;
      for (std::size_t i = 0; i < c.corpus.size(); ++i) {
        if (!c.budget_left(replay.size())) break;
        replay.push_back(c.corpus.at(i).doc);
        if (replay.size() == options_.batch) {
          c.execute_batch(replay);
          replay.clear();
        }
      }
      if (!replay.empty()) c.execute_batch(replay);
    }
    while (c.budget_left(0)) {
      const std::vector<ScenarioDocument> batch = c.next_batch();
      if (batch.empty()) break;  // quantized grid exhausted
      c.execute_batch(batch);
    }
    c.finalize_findings();
    if (!options_.corpus_dir.empty())
      c.corpus.save(options_.corpus_dir, c.report.errors);
  } catch (const std::exception& ex) {
    c.report.errors.push_back(util::cat("fuzz campaign aborted: ", ex.what()));
  }
  FuzzStats& s = c.report.stats;
  s.corpus_size = c.corpus.size();
  s.distinct_sketches = c.signatures.size();
  s.coverage_bits = c.merged.popcount();
  s.wall_s = c.elapsed_s();
  s.execs_per_s = s.wall_s > 0.0 ? static_cast<double>(s.execs) / s.wall_s : 0.0;
  return c.report;
}

// ---------------------------------------------------------------------------
// JSON views
// ---------------------------------------------------------------------------

util::Json FuzzStats::to_json() const {
  util::Json out = util::Json::object();
  out.set("execs", execs);
  out.set("dedup_skipped", dedup_skipped);
  out.set("corpus_size", corpus_size);
  out.set("distinct_sketches", distinct_sketches);
  out.set("coverage_bits", coverage_bits);
  out.set("flip_regions", flip_regions);
  out.set("near_misses", near_misses);
  out.set("proved", proved);
  out.set("violated", violated);
  out.set("out_of_budget", out_of_budget);
  out.set("row_errors", row_errors);
  if (cache.enabled) {
    util::Json cj = util::Json::object();
    cj.set("hits", cache.hits);
    cj.set("misses", cache.misses);
    cj.set("resumes", cache.resumes);
    out.set("cache", std::move(cj));
  }
  if (matrix_deduped > 0) out.set("matrix_deduped", matrix_deduped);
  out.set("wall_s", wall_s);
  out.set("execs_per_s", execs_per_s);
  util::Json curve = util::Json::array();
  for (const CoveragePoint& p : coverage_curve) {
    util::Json pj = util::Json::object();
    pj.set("execs", p.execs);
    pj.set("coverage_bits", p.coverage_bits);
    pj.set("distinct_sketches", p.distinct_sketches);
    pj.set("flip_regions", p.flip_regions);
    curve.push_back(std::move(pj));
  }
  out.set("coverage_curve", std::move(curve));
  return out;
}

util::Json FuzzReport::to_json() const {
  util::Json out = util::Json::object();
  out.set("ok", ok());
  out.set("stats", stats.to_json());
  util::Json fj = util::Json::array();
  for (const FuzzFinding& f : findings) {
    util::Json one = util::Json::object();
    one.set("kind", f.kind == FuzzFinding::Kind::kDisagreement ? "disagreement" : "error");
    one.set("digest", f.digest);
    one.set("bucket", f.bucket);
    one.set("description", f.description);
    one.set("doc_lines", f.doc_lines);
    one.set("minimized", f.minimized);
    one.set("doc", scenarios::to_json_sparse(f.doc));
    fj.push_back(std::move(one));
  }
  out.set("findings", std::move(fj));
  if (!errors.empty()) {
    util::Json ej = util::Json::array();
    for (const std::string& e : errors) ej.push_back(e);
    out.set("errors", std::move(ej));
  }
  return out;
}

}  // namespace ptecps::fuzz
