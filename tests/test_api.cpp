// The job API and the scenarios-as-data layer: ScenarioParams ⇄ JSON
// round-tripping for EVERY registry entry, strict scenario-file parsing
// (truncations, wrong types, unknown keys → clean errors), Job/JobResult
// serialization, Service dispatch, and the CampaignReport::json()
// dogfood (the report must parse with the repo's own JSON parser).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "api/service.hpp"
#include "campaign/runner.hpp"
#include "scenarios/registry.hpp"
#include "scenarios/serialize.hpp"
#include "util/json.hpp"

namespace ptecps {
namespace {

using util::Json;
using util::JsonError;

/// The lowering-level equality the round-trip property is about: both
/// params must build the same ScenarioSpec (all comparable fields; the
/// std::function members are compared by presence, which the equal
/// params guarantee construct identically).
void expect_specs_equal(const campaign::ScenarioSpec& a, const campaign::ScenarioSpec& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.approval, b.approval);
  EXPECT_EQ(a.with_lease, b.with_lease);
  EXPECT_EQ(a.deadline_wait, b.deadline_wait);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.verify, b.verify);
  EXPECT_EQ(a.dwell_bound, b.dwell_bound);
  EXPECT_EQ(a.monitor_config, b.monitor_config);
  EXPECT_EQ(a.channel, b.channel);
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(static_cast<bool>(a.loss), static_cast<bool>(b.loss));
  EXPECT_EQ(static_cast<bool>(a.configure_links), static_cast<bool>(b.configure_links));
  EXPECT_EQ(static_cast<bool>(a.drive), static_cast<bool>(b.drive));
}

// ---------------------------------------------------------------------------
// Round-trip property over the whole registry
// ---------------------------------------------------------------------------

TEST(ScenarioSerialization, EveryRegistryEntryRoundTripsExactly) {
  for (const scenarios::RegistryEntry& entry : scenarios::registry()) {
    const scenarios::ScenarioDocument doc = scenarios::export_document(entry);
    const std::string text = scenarios::to_json(doc).dump(2);
    const scenarios::ScenarioDocument back = scenarios::document_from_text(text);

    // Field-for-field params equality (doubles survive the text form).
    EXPECT_EQ(back, doc) << entry.name;
    // Metadata travels along.
    EXPECT_EQ(back.summary, entry.summary) << entry.name;
    ASSERT_TRUE(back.expected.has_value()) << entry.name;
    EXPECT_EQ(*back.expected, entry.expected) << entry.name;
    // And the lowering is identical.
    expect_specs_equal(scenarios::build(doc.params), scenarios::build(back.params));
    // Canonical form is a fixed point: dump(parse(dump)) == dump.
    EXPECT_EQ(scenarios::to_json(back).dump(2), text) << entry.name;
  }
}

TEST(ScenarioSerialization, DefaultsOnlyFileBuildsTheDefaultDeployment) {
  // A hand-written file states only what differs from the defaults.
  const scenarios::ScenarioDocument doc = scenarios::document_from_text(
      R"({"name": "mini", "horizon": 50, "attacker": {"kind": "bernoulli", "p": 0.25}})");
  scenarios::ScenarioParams reference;
  reference.name = "mini";
  reference.horizon = 50.0;
  reference.attacker = attack::AttackerModel::bernoulli(0.25);
  EXPECT_EQ(doc.params, reference);
  EXPECT_FALSE(doc.expected.has_value());
}

// ---------------------------------------------------------------------------
// Strict parsing: fuzz the reader with broken documents
// ---------------------------------------------------------------------------

TEST(ScenarioSerialization, EveryTruncationFailsCleanly) {
  const std::string text =
      scenarios::to_json(scenarios::export_document(scenarios::registry().front()))
          .dump(2);
  // Any strict prefix (up to the closing brace) is not a document; each
  // must raise JsonError — never crash, never a silently default run.
  for (std::size_t len = 1; len + 2 < text.size(); ++len) {
    EXPECT_THROW(scenarios::document_from_text(text.substr(0, len)), JsonError)
        << "prefix length " << len;
  }
  EXPECT_NO_THROW(scenarios::document_from_text(text));
}

TEST(ScenarioSerialization, WrongTypesAreNamedErrors) {
  const auto expect_error = [](const char* text, const char* needle) {
    try {
      scenarios::document_from_text(text);
      FAIL() << "should have thrown for: " << text;
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "got: " << e.what();
    }
  };
  expect_error(R"({"horizon": "fast"})", "scenario.horizon");
  expect_error(R"({"with_lease": 1})", "scenario.with_lease");
  expect_error(R"({"attacker": {"kind": "bernoulli", "p": 2.0}})", "probability");
  expect_error(R"({"attacker": {"kind": "bernoulli", "intensity": 1.5}})", "probability");
  expect_error(R"({"relay_loss": 7})", "probability");
  expect_error(R"({"attacker": {"kind": "fancy"}})", "unknown attacker");
  expect_error(R"({"attacker": []})", "expected object");
  // v2 rejects the legacy vocabulary (and vice versa): a mixed-version
  // document is a mistake, not something to half-honor.
  expect_error(R"({"loss": {"kind": "bernoulli", "p": 0.1}})", "unknown key");
  expect_error(R"({"version": 1, "attacker": {"kind": "bernoulli"}})", "unknown key");
  expect_error(R"({"version": 1, "loss": {"kind": "fancy"}})", "unknown attacker");
  expect_error(R"({"topology": "ring"})", "unknown topology");
  expect_error(R"({"mode": "sometimes"})", "unknown mode");
  expect_error(R"({"expected": "maybe"})", "unknown verdict");
  expect_error(R"({"seed_count": -3})", "scenario.seed_count");
  expect_error(R"({"script": {"actions": [{"kind": "explode", "t": 1}]}})",
               "unknown action");
  expect_error(R"({"script": {"actions": [{"kind": "inject", "t": 1, "entity": 99999}]}})",
               "entity id out of range");
  expect_error(R"({"schema": "something-else"})", "not a scenario file");
  expect_error(R"({"version": 99})", "unsupported schema version");
}

TEST(ScenarioSerialization, UnknownKeysAreRejectedAtEveryLevel) {
  const auto expect_unknown = [](const char* text, const char* key) {
    try {
      scenarios::document_from_text(text);
      FAIL() << "should have thrown for: " << text;
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("unknown key") ),
                std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  };
  expect_unknown(R"({"horzon": 100})", "horzon");                       // top level
  expect_unknown(R"({"config": {"n_remote": 2}})", "n_remote");         // nested
  expect_unknown(R"({"attacker": {"kind": "bernoulli", "pp": 0.1}})", "pp");
  // v1 attacker objects have no intensity knob — strict there too.
  expect_unknown(R"({"version": 1, "loss": {"kind": "bernoulli", "intensity": 0.5}})",
                 "intensity");
  expect_unknown(R"({"verify": {"max_loss": 1}})", "max_loss");
  expect_unknown(R"({"script": {"actions": [{"kind": "inject", "t": 1, "name": "x",
                    "value": 3}]}})", "value");  // inject takes no value
}

// ---------------------------------------------------------------------------
// Job serialization
// ---------------------------------------------------------------------------

TEST(Job, FromJsonReadsRefsAndOverrides) {
  const api::Job job = api::Job::from_json(Json::parse(R"({
    "scenario": "laser-tracheotomy",
    "mode": "verify",
    "smoke": true,
    "tuning": {"seed_count": 3, "max_losses": 1, "verify_threads": 2},
    "seed_base": 99,
    "threads": 4,
    "expected": "proved"
  })"));
  EXPECT_EQ(job.scenario_ref, "laser-tracheotomy");
  EXPECT_FALSE(job.scenario.has_value());
  EXPECT_EQ(job.mode, campaign::RunMode::kVerify);
  EXPECT_TRUE(job.smoke);
  EXPECT_EQ(job.tuning.seed_count, 3u);
  EXPECT_EQ(job.tuning.max_losses, 1u);
  EXPECT_EQ(job.tuning.threads, 2u);
  EXPECT_EQ(job.seed_base, 99u);
  EXPECT_EQ(job.threads, 4u);
  EXPECT_EQ(job.expected, verify::VerifyStatus::kProved);
}

TEST(Job, FromJsonAcceptsInlineScenarioDocuments) {
  const api::Job job = api::Job::from_json(
      Json::parse(R"({"scenario": {"name": "inline-deploy", "horizon": 30}})"));
  ASSERT_TRUE(job.scenario.has_value());
  EXPECT_EQ(job.scenario->params.name, "inline-deploy");
  EXPECT_EQ(job.scenario->params.horizon, 30.0);
}

TEST(Job, FromJsonIsStrict) {
  EXPECT_THROW(api::Job::from_json(Json::parse(R"({"scenari": "x"})")), JsonError);
  EXPECT_THROW(api::Job::from_json(Json::parse(R"({})")), JsonError);  // no scenario
  EXPECT_THROW(api::Job::from_json(Json::parse(R"({"scenario": "x", "version": 9})")),
               JsonError);
  EXPECT_THROW(api::Job::from_json(
                   Json::parse(R"({"scenario": "x", "mode": "quickly"})")),
               JsonError);
}

TEST(Job, ToJsonRoundTrips) {
  api::Job job = api::Job::for_scenario("factory-press");
  job.mode = campaign::RunMode::kBoth;
  job.smoke = true;
  job.tuning.seed_count = 5;
  job.seed_base = 7;
  job.expected = verify::VerifyStatus::kViolation;
  const api::Job back = api::Job::from_json(Json::parse(job.to_json().dump()));
  EXPECT_EQ(back.scenario_ref, job.scenario_ref);
  EXPECT_EQ(back.mode, job.mode);
  EXPECT_EQ(back.smoke, job.smoke);
  EXPECT_EQ(back.tuning.seed_count, job.tuning.seed_count);
  EXPECT_EQ(back.seed_base, job.seed_base);
  EXPECT_EQ(back.expected, job.expected);
}

// ---------------------------------------------------------------------------
// Service dispatch
// ---------------------------------------------------------------------------

TEST(Job, AttackerIntensityOverrideRoundTripsAndValidates) {
  api::Job job = api::Job::for_scenario("laser-sustained-jammer");
  job.attacker_intensity = 0.25;
  const api::Job back = api::Job::from_json(Json::parse(job.to_json().dump()));
  ASSERT_TRUE(back.attacker_intensity.has_value());
  EXPECT_EQ(*back.attacker_intensity, 0.25);
  // Absent stays absent (the scenario's own intensity rules).
  const api::Job plain = api::Job::from_json(Json::parse(R"({"scenario": "x"})"));
  EXPECT_FALSE(plain.attacker_intensity.has_value());
  EXPECT_THROW(api::Job::from_json(
                   Json::parse(R"({"scenario": "x", "attacker_intensity": 1.5})")),
               JsonError);
}

TEST(Job, AttackerIntensityDrivesTheProverBudget) {
  // intensity 0.25 * budget 4 -> a 1-loss adversary; the override reaches
  // the resolved params and therefore the canonical digest / cache key.
  api::Job job = api::Job::for_scenario("laser-sustained-jammer");
  job.attacker_intensity = 0.25;
  const scenarios::ScenarioParams resolved =
      api::resolved_params(job, api::resolve_scenario(job));
  EXPECT_EQ(resolved.attacker.intensity, 0.25);
  EXPECT_EQ(scenarios::build(resolved).verify.max_losses, 1u);
}

TEST(Service, VerifiesARegistryScenarioAgainstItsExpectation) {
  api::Job job = api::Job::for_scenario("adversarial-drop");
  job.mode = campaign::RunMode::kVerify;
  job.smoke = true;
  const api::JobResult result = api::Service().run(job);
  EXPECT_TRUE(result.ok) << result.to_json().dump(2);
  EXPECT_EQ(result.verdict, "violation");
  EXPECT_EQ(result.expected, verify::VerifyStatus::kViolation);  // from the registry
  EXPECT_TRUE(result.expected_match);
  ASSERT_TRUE(result.report.has_value());
  ASSERT_TRUE(result.crossval.has_value());
  EXPECT_TRUE(result.crossval->ok());
  // The result serializes and reparses.
  const Json j = Json::parse(result.to_json().dump(2));
  EXPECT_EQ(j.at("verdict").as_string(), "violation");
  EXPECT_TRUE(j.at("ok").as_bool());
}

TEST(Service, RunsAnInlineDocumentBothModes) {
  scenarios::ScenarioDocument doc;
  doc.params.name = "inline-laser";
  doc.params.attacker = attack::AttackerModel::bernoulli(0.3);
  doc.params.script.period = 45.0;
  doc.params.script.phase = 15.0;
  doc.params.script.on_for = 25.0;
  doc.params.horizon = 100.0;
  doc.params.seed_count = 2;
  api::Job job = api::Job::for_document(doc);
  job.smoke = true;
  const api::JobResult result = api::Service().run(job);
  EXPECT_TRUE(result.ok) << result.to_json().dump(2);
  EXPECT_EQ(result.verdict, "proved");
  EXPECT_FALSE(result.expected.has_value());
  EXPECT_EQ(result.report->scenarios[0].runs.size(), 2u);
}

TEST(Service, ExpectationMismatchFailsTheJob) {
  api::Job job = api::Job::for_scenario("adversarial-drop");
  job.mode = campaign::RunMode::kVerify;
  job.smoke = true;
  job.expected = verify::VerifyStatus::kProved;  // wrong on purpose
  const api::JobResult result = api::Service().run(job);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.expected_match);
  EXPECT_EQ(result.verdict, "violation");  // the verdict itself is honest
}

TEST(Service, ExpectationWithoutAProverRunIsUnmetNotVacuouslyTrue) {
  // --expect asserts the PROVER's verdict; a Monte-Carlo-only job never
  // runs the prover, so the assertion must fail, not pass silently.
  api::Job job = api::Job::for_scenario("laser-tracheotomy");
  job.mode = campaign::RunMode::kMonteCarlo;
  job.smoke = true;
  job.expected = verify::VerifyStatus::kProved;
  const api::JobResult result = api::Service().run(job);
  EXPECT_FALSE(result.expected_match);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.verdict, "sampled-clean");
}

TEST(Service, MatrixHonorsCrossValidateOptOut) {
  // An out-of-budget verification is deterministically inconsistent for
  // the cross-validation layer ("inconclusive, never a pass").
  auto doc = scenarios::export_document(*scenarios::find_scenario("laser-tracheotomy"));
  doc.params.mode = campaign::RunMode::kVerify;
  doc.params.verify.max_states = 10;  // guaranteed kOutOfBudget
  doc.expected.reset();
  api::Job job = api::Job::for_document(doc);
  job.smoke = true;

  const api::MatrixResult checked = api::Service().run_matrix({job});
  ASSERT_EQ(checked.rows.size(), 1u);
  EXPECT_EQ(checked.rows[0].status, verify::VerifyStatus::kOutOfBudget);
  EXPECT_FALSE(checked.rows[0].consistent);

  api::Job opted_out = job;
  opted_out.cross_validate = false;
  const api::MatrixResult unchecked = api::Service().run_matrix({opted_out});
  ASSERT_EQ(unchecked.rows.size(), 1u);
  // The opted-out row's consistency is not held against the matrix
  // (overall ok still fails here — an out-of-budget proof fails
  // CampaignReport::ok() on its own merits).
  EXPECT_TRUE(unchecked.rows[0].consistent);
  EXPECT_FALSE(unchecked.ok);
}

TEST(Service, UnknownScenarioIsAnErrorResultNotAThrow) {
  const api::JobResult result = api::Service().run(api::Job::for_scenario("nope"));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.verdict, "error");
  ASSERT_FALSE(result.errors.empty());
  EXPECT_NE(result.errors[0].find("nope"), std::string::npos);
  EXPECT_FALSE(result.report.has_value());
}

TEST(Service, AProverFaultIsAnErrorNotOutOfBudget) {
  // An explicit empty delivery window makes the prover throw.
  auto doc = scenarios::export_document(*scenarios::find_scenario("laser-tracheotomy"));
  doc.params.mode = campaign::RunMode::kVerify;
  doc.params.verify.delivery_min = 5.0;
  doc.params.verify.delivery_max = 1.0;
  const campaign::CampaignReport report =
      campaign::CampaignRunner().run(scenarios::build(doc.params));
  EXPECT_FALSE(report.scenarios[0].verification.has_value());
  EXPECT_FALSE(report.ok());

  const api::JobResult result = api::Service().run(api::Job::for_document(doc));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.verdict, "error");
  EXPECT_FALSE(result.proof_status.has_value());
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_NE(result.errors[0].find("delivery window [5, 1] is empty"), std::string::npos);
}

TEST(Service, IllFormedJobsAreErrorResults) {
  api::Job both = api::Job::for_scenario("laser-tracheotomy");
  both.scenario = scenarios::ScenarioDocument{};
  EXPECT_FALSE(api::Service().run(both).ok);
  EXPECT_FALSE(api::Service().run(api::Job{}).ok);
}

TEST(Service, MatrixRunsSeveralJobsAsOneCampaign) {
  std::vector<api::Job> jobs;
  for (const char* name : {"laser-tracheotomy", "adversarial-drop"}) {
    api::Job job = api::Job::for_scenario(name);
    job.smoke = true;
    jobs.push_back(job);
  }
  const api::MatrixResult result = api::Service().run_matrix(jobs);
  EXPECT_TRUE(result.ok) << result.to_json().dump(2);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].status, verify::VerifyStatus::kProved);
  EXPECT_EQ(result.rows[1].status, verify::VerifyStatus::kViolation);
  EXPECT_TRUE(result.rows[0].expected_match);
  EXPECT_TRUE(result.rows[1].expected_match);
  const Json j = Json::parse(result.to_json().dump());
  EXPECT_EQ(j.at("rows").as_array().size(), 2u);
}

TEST(Service, MatrixDedupsIdenticalJobs) {
  // Two identical jobs (same canonical params digest) collapse onto one
  // campaign slot: the proof runs once, the answer fans out per row —
  // and the rows are indistinguishable from running without duplicates.
  api::Job job = api::Job::for_scenario("laser-tracheotomy");
  job.smoke = true;
  api::Job other = api::Job::for_scenario("adversarial-drop");
  other.smoke = true;

  const api::MatrixResult deduped = api::Service().run_matrix({job, other, job, job});
  EXPECT_EQ(deduped.deduped, 2u);
  ASSERT_EQ(deduped.rows.size(), 4u);
  // Only 2 distinct scenarios actually executed.
  ASSERT_TRUE(deduped.report.has_value());
  EXPECT_EQ(deduped.report->scenarios.size(), 4u);  // fanned out in job order
  for (const std::size_t i : {0u, 2u, 3u}) {
    EXPECT_EQ(deduped.rows[i].scenario, "laser-tracheotomy");
    EXPECT_EQ(deduped.rows[i].status, deduped.rows[0].status);
    EXPECT_EQ(deduped.report->scenarios[i].verification->states_explored,
              deduped.report->scenarios[0].verification->states_explored);
  }
  // Compute wall belongs to the ONE row that executed the slot; the
  // fan-out copies answered for free and must say so (a frontier sweep
  // reads these as per-probe cost).
  EXPECT_GT(deduped.rows[0].wall_ms, 0.0);
  EXPECT_EQ(deduped.rows[2].wall_ms, 0.0);
  EXPECT_EQ(deduped.rows[3].wall_ms, 0.0);
  EXPECT_TRUE(deduped.ok) << deduped.to_json().dump(2);

  // Same verdicts as the duplicate-free matrix.
  const api::MatrixResult plain = api::Service().run_matrix({job, other});
  EXPECT_EQ(plain.deduped, 0u);
  EXPECT_EQ(plain.rows[0].status, deduped.rows[0].status);
  EXPECT_EQ(plain.rows[1].status, deduped.rows[1].status);
  EXPECT_EQ(plain.report->scenarios[0].verification->states_explored,
            deduped.report->scenarios[0].verification->states_explored);
}

TEST(Service, WallClockIsReportedButNotStored) {
  api::Job job = api::Job::for_scenario("laser-tracheotomy");
  job.mode = campaign::RunMode::kVerify;
  job.smoke = true;
  const api::JobResult result = api::Service().run(job);
  EXPECT_GT(result.wall_ms, 0.0);
  EXPECT_TRUE(result.to_json().find("wall_ms") != nullptr);

  // A result whose wall_ms is zero serializes without the key at all —
  // what keeps stored cache entries byte-stable across the feature.
  api::JobResult zeroed = result;
  zeroed.wall_ms = 0.0;
  EXPECT_TRUE(zeroed.to_json().find("wall_ms") == nullptr);
  // And the key round-trips when present.
  const api::JobResult back = api::JobResult::from_json(result.to_json());
  EXPECT_EQ(back.wall_ms, result.wall_ms);

  const api::MatrixResult matrix = api::Service().run_matrix({job});
  EXPECT_GT(matrix.wall_ms, 0.0);
  ASSERT_EQ(matrix.rows.size(), 1u);
  EXPECT_GT(matrix.rows[0].wall_ms, 0.0);
}

// ---------------------------------------------------------------------------
// CampaignReport::json() dogfood
// ---------------------------------------------------------------------------

TEST(CampaignReportJson, ParsesWithTheRepoOwnParser) {
  api::Job job = api::Job::for_scenario("adversarial-drop");
  job.smoke = true;
  const api::JobResult result = api::Service().run(job);
  ASSERT_TRUE(result.report.has_value());
  const Json j = Json::parse(result.report->json());
  EXPECT_EQ(j.at("scenarios").as_array().size(), 1u);
  const Json& verification = j.at("scenarios").as_array()[0].at("verification");
  EXPECT_EQ(verification.at("status").as_string(), "violation");
  // The counterexample digest is embedded and structured.
  const Json& cx = verification.at("counterexample");
  EXPECT_NE(cx.at("kind").as_string().find("dwell-bound"), std::string::npos);
  EXPECT_FALSE(cx.at("sends").as_array().empty());
}

// The satellite regression end to end: a report whose wall clock never
// ticked used to emit "runs_per_second": nan — invalid JSON.
TEST(CampaignReportJson, NonFiniteAggregatesEmitNull) {
  campaign::CampaignReport report;
  report.runs_per_second = std::numeric_limits<double>::quiet_NaN();
  report.wall_seconds = std::numeric_limits<double>::infinity();
  const Json j = Json::parse(report.json());  // must not throw
  EXPECT_TRUE(j.at("runs_per_second").is_null());
  EXPECT_TRUE(j.at("wall_seconds").is_null());
}

}  // namespace
}  // namespace ptecps
