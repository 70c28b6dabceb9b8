// Robustness-frontier planner (api/frontier.hpp): bracket correctness on
// the registry's showcase scenarios, monotone probe trails, determinism
// across reruns, cache reuse, and failure attribution.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "api/frontier.hpp"
#include "api/service.hpp"
#include "scenarios/registry.hpp"
#include "util/json.hpp"

namespace ptecps::api {
namespace {

Job smoke_job(const std::string& name) {
  Job job = Job::for_scenario(name);
  job.smoke = true;
  return job;
}

TEST(Frontier, ProvedScenarioReportsFullMargin) {
  const Service service;
  const FrontierReport report =
      compute_frontier(service, {smoke_job("laser-tracheotomy")});
  EXPECT_TRUE(report.ok);
  ASSERT_EQ(report.results.size(), 1u);
  const FrontierResult& r = report.results[0];
  EXPECT_TRUE(r.ok);
  // No declared budget: the sweep grafts the default sustained jammer.
  EXPECT_EQ(r.budget, 4u);
  ASSERT_TRUE(r.safe_losses.has_value());
  EXPECT_EQ(*r.safe_losses, 4u);
  EXPECT_EQ(r.margin, 1.0);
  EXPECT_FALSE(r.critical_losses.has_value());
  // Endpoint probing: proved everywhere needs exactly two probes.
  ASSERT_EQ(r.probes.size(), 2u);
  EXPECT_EQ(r.probes[0].losses, 0u);
  EXPECT_EQ(r.probes[1].losses, 4u);
}

TEST(Frontier, ViolatedAtZeroReportsZeroMarginAndReplays) {
  const Service service;
  const FrontierReport report =
      compute_frontier(service, {smoke_job("adversarial-drop")});
  EXPECT_TRUE(report.ok);
  ASSERT_EQ(report.results.size(), 1u);
  const FrontierResult& r = report.results[0];
  EXPECT_FALSE(r.safe_losses.has_value());
  EXPECT_EQ(r.margin, 0.0);
  ASSERT_TRUE(r.critical_losses.has_value());
  EXPECT_EQ(*r.critical_losses, 0u);
  EXPECT_TRUE(r.counterexample_replayed);
  ASSERT_EQ(r.probes.size(), 1u);  // violated at zero: search ends immediately
}

TEST(Frontier, ShowcaseScenarioBracketsAtOneLoss) {
  // The acceptance bar for the whole feature: chain-impatient-unwind is
  // PROVED with the attacker disarmed and VIOLATED the moment the
  // adversary may spend a single loss — and the critical probe's
  // counterexample re-executes through the concrete engine.
  const Service service;
  const FrontierReport report =
      compute_frontier(service, {smoke_job("chain-impatient-unwind")});
  EXPECT_TRUE(report.ok);
  ASSERT_EQ(report.results.size(), 1u);
  const FrontierResult& r = report.results[0];
  ASSERT_TRUE(r.safe_losses.has_value());
  EXPECT_EQ(*r.safe_losses, 0u);
  ASSERT_TRUE(r.critical_losses.has_value());
  EXPECT_EQ(*r.critical_losses, 1u);
  EXPECT_EQ(r.critical_intensity, 0.25);
  EXPECT_TRUE(r.counterexample_replayed);
  // The probe trail is monotone: proved below the frontier, violated
  // at and above it.
  for (const FrontierProbe& p : r.probes) {
    if (p.losses <= *r.safe_losses)
      EXPECT_EQ(p.status, verify::VerifyStatus::kProved) << p.losses;
    else
      EXPECT_EQ(p.status, verify::VerifyStatus::kViolation) << p.losses;
  }
}

TEST(Frontier, ReportIsDeterministicAndWallClockFree) {
  const Service service;
  const std::vector<Job> jobs = {smoke_job("chain-impatient-unwind"),
                                 smoke_job("laser-sustained-jammer")};
  const FrontierReport a = compute_frontier(service, jobs);
  const FrontierReport b = compute_frontier(service, jobs);
  // Byte-stable artifacts: margins, probe trails, everything.
  EXPECT_EQ(a.to_json().dump_canonical(), b.to_json().dump_canonical());
  EXPECT_EQ(a.to_json().dump(2).find("wall"), std::string::npos);
}

TEST(Frontier, SecondSweepAnswersEveryProbeFromTheCache) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pte-frontier-cache-test").string();
  std::filesystem::remove_all(dir);
  ServiceOptions options;
  options.cache_dir = dir;
  const Service service(options);
  const std::vector<Job> jobs = {smoke_job("chain-impatient-unwind")};

  const FrontierReport cold = compute_frontier(service, jobs);
  EXPECT_TRUE(cold.ok);
  EXPECT_EQ(cold.cache.hits, 0u);
  EXPECT_GT(cold.cache.misses, 0u);

  const FrontierReport warm = compute_frontier(service, jobs);
  EXPECT_TRUE(warm.ok);
  EXPECT_EQ(warm.cache.misses, 0u);
  EXPECT_EQ(warm.cache.hits, cold.cache.misses);
  // Identical margins out of storage.
  ASSERT_EQ(warm.results.size(), cold.results.size());
  EXPECT_EQ(warm.results[0].margin, cold.results[0].margin);
  EXPECT_EQ(warm.results[0].safe_losses, cold.results[0].safe_losses);
  EXPECT_EQ(warm.results[0].critical_losses, cold.results[0].critical_losses);
  std::filesystem::remove_all(dir);
}

TEST(Frontier, NoJobsIsAnErrorNotACrash) {
  const Service service;
  const FrontierReport report = compute_frontier(service, {});
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.errors.size(), 1u);
}

TEST(Frontier, UnknownScenarioFailsAloneWithoutSinkingTheSweep) {
  const Service service;
  const FrontierReport report = compute_frontier(
      service, {smoke_job("laser-tracheotomy"), smoke_job("no-such-deployment")});
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_TRUE(report.results[0].ok);
  EXPECT_EQ(report.results[0].margin, 1.0);
  EXPECT_FALSE(report.results[1].ok);
  ASSERT_FALSE(report.results[1].errors.empty());
}

TEST(Frontier, ProverFaultKeepsItsMessage) {
  // An explicit empty delivery window makes every probe's prover throw;
  // the search's errors must carry the prover's message, and the healthy
  // search batched into the same rounds must not notice.
  scenarios::ScenarioDocument doc =
      scenarios::export_document(*scenarios::find_scenario("laser-tracheotomy"));
  doc.params.name = "bad-window";
  doc.params.verify.delivery_min = 5.0;
  doc.params.verify.delivery_max = 1.0;
  Job bad = Job::for_document(doc);
  bad.smoke = true;
  const Service service;
  const FrontierReport report =
      compute_frontier(service, {smoke_job("laser-tracheotomy"), bad});
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.results.size(), 2u);

  const FrontierResult& healthy = report.results[0];
  EXPECT_TRUE(healthy.ok);
  EXPECT_TRUE(healthy.errors.empty());
  EXPECT_EQ(healthy.margin, 1.0);
  EXPECT_EQ(healthy.probes.size(), 2u);

  const FrontierResult& faulty = report.results[1];
  EXPECT_FALSE(faulty.ok);
  EXPECT_TRUE(faulty.probes.empty());
  bool has_message = false;
  for (const std::string& e : faulty.errors)
    has_message = has_message || e.find("delivery window [5, 1] is empty") != std::string::npos;
  EXPECT_TRUE(has_message) << report.to_json().dump(2);
}

TEST(Frontier, ZeroDefaultBudgetIsRejected) {
  const Service service;
  FrontierOptions options;
  options.default_budget = 0;
  const FrontierReport report =
      compute_frontier(service, {smoke_job("laser-tracheotomy")}, options);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.errors.empty());
}

}  // namespace
}  // namespace ptecps::api
