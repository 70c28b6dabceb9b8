// The scenario-space fuzzing subsystem: grammar validity over the
// quantized grid (Theorem-1-consistent timing, flip probes that move
// only the dwell fraction, verdicts decided by the dwell tier), the
// sketch-relevant projection, content-addressed corpus persistence, the
// delta-debugging minimizer (idempotence by construction), the
// injected-disagreement find-and-minimize loop, and the
// guided-beats-blind acceptance comparison.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/job.hpp"
#include "api/service.hpp"
#include "attack/attacker.hpp"
#include "campaign/runner.hpp"
#include "core/constraints.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/grammar.hpp"
#include "fuzz/minimize.hpp"
#include "scenarios/builder.hpp"
#include "scenarios/serialize.hpp"
#include "sim/random.hpp"

namespace ptecps::fuzz {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const char* tag) {
  const fs::path dir =
      fs::temp_directory_path() / (std::string("pte_fuzz_test_") + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Small grammar so test campaigns stay fast: the same reduced grid the
/// guided-vs-blind comparison is measured on.
GrammarOptions small_grammar() {
  GrammarOptions g;
  g.max_remotes = 2;
  g.config_pool = 1;
  return g;
}

// ---------------------------------------------------------------------------
// Grammar
// ---------------------------------------------------------------------------

TEST(FuzzGrammar, GeneratedDocumentsAreValidCanonicalAndSparseRoundTrip) {
  sim::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const scenarios::ScenarioDocument doc = generate(rng);
    // Canonical naming: the name is derived from the content, so
    // re-normalizing is a no-op.
    scenarios::ScenarioParams renamed = doc.params;
    normalize_name(renamed);
    EXPECT_EQ(renamed.name, doc.params.name);
    // Every candidate builds (the grammar's validity gate) ...
    EXPECT_NO_THROW((void)scenarios::build(doc.params)) << doc.params.name;
    // ... on a Theorem-1-consistent timing configuration ...
    EXPECT_TRUE(core::check_theorem1(doc.params.config).ok)
        << core::check_theorem1(doc.params.config).message();
    // ... and survives the sparse writer round trip bit-for-bit.
    const scenarios::ScenarioDocument back =
        scenarios::document_from_json(scenarios::to_json_sparse(doc));
    EXPECT_EQ(back, doc) << doc.params.name;
  }
}

TEST(FuzzGrammar, FlipProbeRedrawsOnlyTheEdgeDwellFraction) {
  sim::Rng rng(11);
  int probed = 0;
  for (int i = 0; i < 200; ++i) {
    const scenarios::ScenarioDocument seed = generate(rng);
    const std::string bucket = structure_bucket(seed.params);
    if (!bucket.ends_with("|edge")) continue;
    ++probed;
    const scenarios::ScenarioDocument probe = flip_probe(rng, seed);
    EXPECT_NO_THROW((void)scenarios::build(probe.params)) << probe.params.name;
    scenarios::ScenarioParams renamed = probe.params;
    normalize_name(renamed);
    EXPECT_EQ(renamed.name, probe.params.name);
    // Same bucket, a different verdict boundary ...
    EXPECT_EQ(structure_bucket(probe.params), bucket) << probe.params.name;
    EXPECT_NE(probe.params.dwell_bound, seed.params.dwell_bound) << probe.params.name;
    // ... and nothing else moved.
    scenarios::ScenarioDocument rest = probe;
    rest.params.name = seed.params.name;
    rest.params.dwell_bound = seed.params.dwell_bound;
    EXPECT_EQ(rest, seed) << probe.params.name;
  }
  EXPECT_GT(probed, 0) << "200 draws should include edge-tier documents";
}

// The dwell tier alone decides the verdict at the documents' own
// budgets: a broken ceiling (comfortably below ξ1's lease) is violated
// without a single loss, and with no explicit ceiling a deployment that
// keeps the lease and the deadline wait is proved under any adversary —
// Theorem 1 on the synthesized timing.
TEST(FuzzGrammar, DwellTierDecidesTheVerdict) {
  sim::Rng rng(47);
  GrammarOptions grammar;
  grammar.max_remotes = 2;
  std::vector<campaign::ScenarioSpec> specs;
  std::vector<bool> broken;
  std::size_t n_broken = 0;
  std::size_t n_solid = 0;
  for (int i = 0; i < 200 && (n_broken < 3 || n_solid < 3); ++i) {
    scenarios::ScenarioParams p = generate(rng, grammar).params;
    const std::string bucket = structure_bucket(p);
    const bool is_broken = bucket.ends_with("|broken");
    const bool is_solid = bucket.ends_with("|solid") && p.with_lease && p.deadline_wait;
    std::size_t& taken = is_broken ? n_broken : n_solid;
    if ((!is_broken && !is_solid) || taken >= 3) continue;
    ++taken;
    p.mode = campaign::RunMode::kVerify;
    specs.push_back(scenarios::build(p));
    broken.push_back(is_broken);
  }
  ASSERT_EQ(n_broken, 3u);
  ASSERT_EQ(n_solid, 3u);

  const campaign::CampaignReport report = campaign::CampaignRunner().run(specs);
  ASSERT_EQ(report.scenarios.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& v = report.scenarios[i].verification;
    ASSERT_TRUE(v.has_value()) << specs[i].name;
    EXPECT_EQ(v->status, broken[i] ? verify::VerifyStatus::kViolation
                                   : verify::VerifyStatus::kProved)
        << specs[i].name;
  }
}

TEST(FuzzGrammar, ReachesEveryAttackerFamily) {
  sim::Rng rng(3);
  std::set<attack::AttackerModel::Kind> seen;
  for (int i = 0; i < 400 && seen.size() < 7; ++i)
    seen.insert(generate(rng).params.attacker.kind);
  EXPECT_EQ(seen.size(), 7u)
      << "the grammar should draw all seven attacker kinds (incl. kNone)";
}

TEST(FuzzGrammar, ProjectionDropsSamplerOnlyKnobsAndKeepsProverOnes) {
  sim::Rng rng(5);
  scenarios::ScenarioDocument doc = generate(rng);
  const std::string base = prover_projection(doc.params);

  // Sampler-only: seeds, horizon, stimulus script, channel timing.
  scenarios::ScenarioParams p = doc.params;
  p.seed_base += 1000;
  p.seed_count += 1;
  p.horizon += 30.0;
  EXPECT_EQ(prover_projection(p), base);
  p = doc.params;
  p.script.actions.clear();
  EXPECT_EQ(prover_projection(p), base);
  p = doc.params;
  p.channel.delay += 0.003;
  p.channel.delay_jitter += 0.002;
  EXPECT_EQ(prover_projection(p), base);
  // A pure cap is not a deployment property.
  p = doc.params;
  p.verify.max_states += 12345;
  EXPECT_EQ(prover_projection(p), base);

  // Prover-relevant: the timing configuration and the embedding toggles.
  p = doc.params;
  p.with_lease = !p.with_lease;
  EXPECT_NE(prover_projection(p), base);
  p = doc.params;
  sim::Rng other(999);
  p.config = random_config(other, 3);
  EXPECT_NE(prover_projection(p), base);
}

TEST(FuzzGrammar, BucketCallsBudgetlessAttackersCalm) {
  sim::Rng rng(13);
  scenarios::ScenarioParams p = generate(rng).params;
  p.attacker = attack::AttackerModel::bernoulli(0.3);
  p.attacker.with_intensity(1.0).with_budget(0);  // no prover ammunition
  EXPECT_NE(structure_bucket(p).find("|calm|"), std::string::npos);
  p.attacker.with_budget(2);
  EXPECT_NE(structure_bucket(p).find("|attacked|"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

TEST(FuzzCorpus, ContentDedupAndDirectoryPersistence) {
  sim::Rng rng(17);
  Corpus corpus;
  std::vector<std::string> errors;
  for (int i = 0; i < 12; ++i) {
    CorpusEntry e;
    e.doc = generate(rng);
    corpus.add(std::move(e));
  }
  const std::size_t unique = corpus.size();
  ASSERT_GT(unique, 0u);

  // Re-adding the same content is a dedup reject, not a second entry.
  CorpusEntry dup;
  dup.doc = corpus.at(0).doc;
  EXPECT_EQ(corpus.add(std::move(dup)), nullptr);
  EXPECT_EQ(corpus.size(), unique);
  EXPECT_GE(corpus.dedup_rejects(), 1u);

  const fs::path dir = fresh_dir("corpus");
  EXPECT_EQ(corpus.save(dir.string(), errors), unique);
  EXPECT_TRUE(errors.empty());

  Corpus reloaded;
  EXPECT_EQ(reloaded.load(dir.string(), errors), unique);
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(reloaded.size(), unique);
  for (std::size_t i = 0; i < unique; ++i)
    EXPECT_TRUE(reloaded.contains(corpus.at(i).digest));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Minimizer
// ---------------------------------------------------------------------------

TEST(FuzzMinimize, IdempotentUnderAPureStructuralPredicate) {
  sim::Rng rng(19);
  // A predicate that survives reduction: the attacker family itself.
  const Predicate pred = [](const scenarios::ScenarioDocument& d) {
    return d.params.attacker.kind == attack::AttackerModel::Kind::kSustainedJammer;
  };
  int checked = 0;
  for (int i = 0; i < 200 && checked < 3; ++i) {
    scenarios::ScenarioDocument doc = generate(rng);
    if (!pred(doc)) continue;
    ++checked;
    const MinimizeResult once = minimize(doc, pred);
    const MinimizeResult twice = minimize(once.doc, pred);
    EXPECT_EQ(twice.doc, once.doc) << "minimize must be a fixed point";
    EXPECT_TRUE(pred(once.doc));
    EXPECT_LE(rendered_lines(once.doc), rendered_lines(doc));
  }
  ASSERT_EQ(checked, 3) << "grammar never drew a sustained attacker";
}

TEST(FuzzMinimize, RejectsANonReproducingInput) {
  sim::Rng rng(23);
  const scenarios::ScenarioDocument doc = generate(rng);
  EXPECT_THROW(minimize(doc, [](const scenarios::ScenarioDocument&) { return false; }),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Campaigns
// ---------------------------------------------------------------------------

FuzzOptions small_campaign(std::uint64_t seed, std::size_t execs) {
  FuzzOptions o;
  o.seed = seed;
  o.max_execs = execs;
  o.batch = 8;
  o.threads = 2;
  o.minimize = false;
  o.grammar = small_grammar();
  return o;
}

TEST(FuzzCampaign, DeterministicAtAFixedSeed) {
  const api::Service service;
  const FuzzReport a = Fuzzer(service, small_campaign(29, 24)).run();
  const FuzzReport b = Fuzzer(service, small_campaign(29, 24)).run();
  EXPECT_EQ(a.stats.execs, b.stats.execs);
  EXPECT_EQ(a.stats.distinct_sketches, b.stats.distinct_sketches);
  EXPECT_EQ(a.stats.coverage_bits, b.stats.coverage_bits);
  EXPECT_EQ(a.stats.flip_regions, b.stats.flip_regions);
  EXPECT_EQ(a.stats.proved, b.stats.proved);
  EXPECT_EQ(a.stats.violated, b.stats.violated);
  EXPECT_EQ(a.stats.corpus_size, b.stats.corpus_size);
}

TEST(FuzzCampaign, SketchSignalsAreThreadCountInvariant) {
  const api::Service service;
  FuzzOptions one = small_campaign(31, 16);
  one.threads = 1;
  FuzzOptions three = small_campaign(31, 16);
  three.threads = 3;
  const FuzzReport a = Fuzzer(service, one).run();
  const FuzzReport b = Fuzzer(service, three).run();
  EXPECT_EQ(a.stats.distinct_sketches, b.stats.distinct_sketches);
  EXPECT_EQ(a.stats.coverage_bits, b.stats.coverage_bits);
  EXPECT_EQ(a.stats.flip_regions, b.stats.flip_regions);
  EXPECT_EQ(a.stats.proved, b.stats.proved);
  EXPECT_EQ(a.stats.violated, b.stats.violated);
}

TEST(FuzzCampaign, CoverageCurveIsMonotone) {
  const api::Service service;
  const FuzzReport r = Fuzzer(service, small_campaign(37, 32)).run();
  ASSERT_FALSE(r.stats.coverage_curve.empty());
  for (std::size_t i = 1; i < r.stats.coverage_curve.size(); ++i) {
    EXPECT_GE(r.stats.coverage_curve[i].execs, r.stats.coverage_curve[i - 1].execs);
    EXPECT_GE(r.stats.coverage_curve[i].coverage_bits,
              r.stats.coverage_curve[i - 1].coverage_bits);
    EXPECT_GE(r.stats.coverage_curve[i].distinct_sketches,
              r.stats.coverage_curve[i - 1].distinct_sketches);
    EXPECT_GE(r.stats.coverage_curve[i].flip_regions,
              r.stats.coverage_curve[i - 1].flip_regions);
  }
  const CoveragePoint& last = r.stats.coverage_curve.back();
  EXPECT_EQ(last.distinct_sketches, r.stats.distinct_sketches);
  EXPECT_EQ(last.coverage_bits, r.stats.coverage_bits);
}

// The tentpole acceptance criterion: with identical exec budgets and
// seed, coverage-guided scheduling reaches strictly more distinct
// discrete-state fingerprint sketches AND at least one more verdict-flip
// region than --blind generation.  Everything here is deterministic
// (fixed seed, no wall-clock budget, thread-count-invariant sketches),
// so the margin is stable.  `pte fuzz --json` (with and without --blind)
// prints the coverage curves for other seeds and budgets.
TEST(FuzzCampaign, GuidedBeatsBlindAtEqualBudgetAndSeed) {
  const api::Service service;
  FuzzOptions guided = small_campaign(5, 96);
  FuzzOptions blind = small_campaign(5, 96);
  blind.guided = false;
  const FuzzReport g = Fuzzer(service, guided).run();
  const FuzzReport b = Fuzzer(service, blind).run();
  EXPECT_EQ(g.stats.execs, b.stats.execs) << "identical budgets by construction";
  EXPECT_GT(g.stats.distinct_sketches, b.stats.distinct_sketches);
  EXPECT_GE(g.stats.flip_regions, b.stats.flip_regions + 1);
  // Guided spends its budget on projection-fresh cells, so it must have
  // rejected candidates on the way (blind dedups content digests only).
  EXPECT_GT(g.stats.dedup_skipped, 0u);
  // Prover and sampler agree on every random deployment, and both
  // campaigns reach both verdicts.
  for (const FuzzReport* r : {&g, &b}) {
    EXPECT_TRUE(r->ok()) << r->to_json().dump();
    EXPECT_GT(r->stats.proved, 0u);
    EXPECT_GT(r->stats.violated, 0u);
  }
}

TEST(FuzzCampaign, InjectedDisagreementIsFoundAndMinimizedToATinyReproducer) {
  const api::Service service;
  FuzzOptions o = small_campaign(41, 48);
  o.minimize = true;
  const fs::path artifacts = fresh_dir("artifacts");
  o.artifact_dir = artifacts.string();
  // The mutation-testing hook: pretend the sampler disagrees on every
  // sustained-jammer scenario.  The minimizer must preserve the property
  // while shrinking everything else.
  o.fault_hook = [](const scenarios::ScenarioParams& p) {
    return p.attacker.kind == attack::AttackerModel::Kind::kSustainedJammer;
  };
  const FuzzReport r = Fuzzer(service, o).run();
  ASSERT_FALSE(r.findings.empty()) << "48 execs should draw >= 1 sustained attacker";
  for (const FuzzFinding& f : r.findings) {
    EXPECT_EQ(f.kind, FuzzFinding::Kind::kDisagreement);
    EXPECT_TRUE(f.minimized);
    EXPECT_EQ(f.doc.params.attacker.kind, attack::AttackerModel::Kind::kSustainedJammer);
    EXPECT_LE(f.doc_lines, 25u) << rendered_text(f.doc);
    // The reproducer carries the prover's verdict as its expectation, so
    // `pte matrix` over the checked-in file asserts it forever after.
    ASSERT_TRUE(f.doc.expected.has_value());
    api::Job job = api::Job::for_document(f.doc);
    job.threads = 2;
    const api::JobResult check = service.run(job);
    EXPECT_TRUE(check.expected_match) << f.digest;
    // And the artifact on disk round-trips to the same document.
    const fs::path file = artifacts / (f.digest.substr(0, 16) + ".json");
    ASSERT_TRUE(fs::exists(file));
    std::ifstream in(file);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_EQ(scenarios::document_from_text(text.str()), f.doc);
  }
  fs::remove_all(artifacts);
}

TEST(FuzzCampaign, PersistentCorpusReplaySeedsTheNextCampaign) {
  const api::Service service;
  const fs::path dir = fresh_dir("campaign_corpus");
  FuzzOptions first = small_campaign(43, 24);
  first.corpus_dir = dir.string();
  const FuzzReport a = Fuzzer(service, first).run();
  EXPECT_TRUE(a.errors.empty());
  ASSERT_GT(a.stats.corpus_size, 0u);

  // Second campaign over the same directory with headroom beyond the
  // replayed corpus: the saved entries replay first, and content dedup
  // then blocks the generator from re-drawing those same documents.
  FuzzOptions second = small_campaign(43, 48);
  second.corpus_dir = dir.string();
  const FuzzReport b = Fuzzer(service, second).run();
  EXPECT_TRUE(b.errors.empty());
  EXPECT_GE(b.stats.corpus_size, a.stats.corpus_size);
  EXPECT_GT(b.stats.dedup_skipped, 0u)
      << "replayed documents must be rejected when re-drawn";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ptecps::fuzz
