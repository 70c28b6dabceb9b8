// The counter ledger: the prover's exact counts, pinned.
//
// tests/golden/counters.json holds one row per registry entry and per
// tests/corpus/ document, each proved at its declared budgets through
// api::Service in verify mode with no cache.  A row records the verdict,
// the explored / stored / transition counts, the state sketch (distinct
// keys and signature), and the SHA-256 of the counterexample's canonical
// JSON.  Every row must match at 4 verify threads, and again at 1 for
// every document but edge-dwell-safe-n3, which alone takes seconds at 1
// thread.
//
// tests/golden/samples.json pins the sampler the same way: one row per
// document, each one Monte-Carlo campaign of 64 seeds on the document's
// resolved spec (its declared seed base, horizon and attacker) through
// campaign::CampaignRunner.  A row records the campaign totals and the
// SHA-256 of the canonical JSON array of per-run records, so any moved
// sampled stream shows.  Every row must match at 1 campaign thread and
// again at 4.
//
// tests/golden/ablations.json holds three more rows per ledger document:
// the same proof with partial-order reduction off (`por=false`), with
// the subsumption store replaced by exact-equality deduplication
// (`subsumption=false`), and with a second adversary input change
// allowed (`max_input_changes=2`).  The first two record in counts what
// each of the two buys, and pin the store paths the default search does
// not take.  The third pins the search where a node reached by an input
// toggle may toggle again, which no declared budget reaches.  They are
// checked at 4 verify threads.
//
// A change that means to move a count pastes the row printed on the
// mismatch into the ledger by hand, in the same diff that moves it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "campaign/runner.hpp"
#include "scenarios/registry.hpp"
#include "scenarios/serialize.hpp"
#include "util/digest.hpp"
#include "util/json.hpp"
#include "util/text.hpp"
#include "verify/checker.hpp"

namespace ptecps::api {
namespace {

namespace fs = std::filesystem;

const fs::path kTestsDir = fs::path(__FILE__).parent_path();

std::string read_text(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Every document the ledger covers: the registry in its order, then the
/// corpus files by name.
std::vector<Job> ledger_jobs() {
  std::vector<Job> jobs;
  for (const scenarios::RegistryEntry& e : scenarios::registry())
    jobs.push_back(Job::for_scenario(e.name));
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(kTestsDir / "corpus"))
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  for (const fs::path& path : paths)
    jobs.push_back(Job::for_document(scenarios::document_from_text(read_text(path))));
  return jobs;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::string job_name(const Job& job) {
  return job.scenario.has_value() ? job.scenario->params.name : job.scenario_ref;
}

/// A proof's counts, sketch and counterexample digest, appended to `row`
/// (`v` is a verify::VerifyResult or a campaign::VerificationOutcome).
template <typename Proof>
void set_counts(util::Json& row, const Proof& v) {
  row.set("states_explored", v.states_explored);
  row.set("states_stored", v.states_stored);
  row.set("transitions", v.transitions);
  row.set("sketch_distinct", v.sketch.distinct);
  row.set("sketch_signature", hex64(v.sketch.signature()));
  row.set("counterexample_sha256",
          v.counterexample.has_value()
              ? util::Json(util::Sha256::hex(v.counterexample->to_json().dump_canonical()))
              : util::Json());
}

/// The ledger row of one cache-less proof at `verify_threads`.
util::Json ledger_row(Job job, std::size_t verify_threads) {
  job.mode = campaign::RunMode::kVerify;
  job.tuning.threads = verify_threads;
  const JobResult result = Service().run(job);
  util::Json row = util::Json::object();
  row.set("scenario", result.scenario);
  row.set("verdict", result.verdict);
  if (!result.report.has_value() || result.report->scenarios.empty() ||
      !result.report->scenarios[0].verification.has_value()) {
    row.set("errors", util::join(result.errors, "; "));
    return row;
  }
  set_counts(row, *result.report->scenarios[0].verification);
  return row;
}

/// The ablations, by the name their rows carry.
const std::vector<std::string> kAblations = {"por=false", "subsumption=false",
                                             "max_input_changes=2"};

/// The first two ablations run out of budget here at 1,000,000 states:
/// ~111 s without POR and ~6.6 s without subsumption, at 4 verify
/// threads on a 4-vCPU host.  A row at budget pins nothing the search
/// must reach.  The third proves, but stores 544,892 states in ~1.5 s,
/// about three times what the other documents' 14 such rows take.
const std::string kNoAblationRows = "edge-dwell-safe-n3";

/// The ablation row of one proof: the document's resolved spec at its
/// declared budgets and 4 verify threads, with `ablation` applied.
util::Json ablation_row(Job job, const std::string& ablation) {
  job.mode = campaign::RunMode::kVerify;
  job.tuning.threads = 4;
  const campaign::ScenarioSpec spec =
      scenarios::build(resolved_params(job, resolve_scenario(job)));
  verify::VerifyOptions options = spec.verify.options();
  if (ablation == "por=false") options.por = false;
  if (ablation == "subsumption=false") options.subsumption = false;
  if (ablation == "max_input_changes=2") options.max_input_changes = 2;
  const verify::VerifyResult result =
      verify::verify_pte(verify::compile_model(spec.verify_input()), options);
  util::Json row = util::Json::object();
  row.set("scenario", job_name(job));
  row.set("ablation", ablation);
  row.set("verdict", verify::verify_status_str(result.status));
  set_counts(row, result);
  return row;
}

/// A golden row's key: its scenario name, then its ablation if it has one.
std::string row_key(const util::Json& row) {
  const util::Json* ablation = row.find("ablation");
  return ablation == nullptr ? row.at("scenario").as_string()
                             : util::cat(row.at("scenario").as_string(), " ",
                                         ablation->as_string());
}

/// The checked-in rows of `file` under tests/golden/, keyed by row_key.
std::map<std::string, util::Json> golden_rows(const char* file) {
  const util::Json golden = util::Json::parse(read_text(kTestsDir / "golden" / file));
  std::map<std::string, util::Json> rows;
  for (const util::Json& row : golden.at("rows").as_array()) rows.emplace(row_key(row), row);
  return rows;
}

/// Check every document's `row_of(job)` against its row in `file`,
/// skipping the names in `skip`; `where` labels the thread count.
template <typename RowOf>
void expect_rows(const char* file, const std::string& where,
                 const std::set<std::string>& skip, RowOf row_of) {
  const std::map<std::string, util::Json> golden = golden_rows(file);
  for (const Job& job : ledger_jobs()) {
    const std::string name = job_name(job);
    if (skip.contains(name)) continue;
    SCOPED_TRACE(util::cat(name, " at ", where));
    const util::Json row = row_of(job);
    const auto it = golden.find(name);
    const std::string expected =
        it == golden.end() ? "(no row)" : it->second.dump_canonical();
    EXPECT_EQ(expected, row.dump_canonical()) << "new row:\n" << row.dump(2);
  }
}

void expect_ledger_rows(std::size_t verify_threads, const std::set<std::string>& skip) {
  expect_rows("counters.json", util::cat(verify_threads, " verify thread(s)"), skip,
              [&](const Job& job) { return ledger_row(job, verify_threads); });
}

/// The keys ablations.json must hold: every ablation of every document
/// but kNoAblationRows.
std::set<std::string> ablation_keys() {
  std::set<std::string> keys;
  for (const Job& job : ledger_jobs()) {
    if (job_name(job) == kNoAblationRows) continue;
    for (const std::string& ablation : kAblations)
      keys.insert(util::cat(job_name(job), " ", ablation));
  }
  return keys;
}

template <typename T>
util::Json json_array(const std::vector<T>& values) {
  util::Json out = util::Json::array();
  for (const T& v : values) out.push_back(v);
  return out;
}

/// One run's record in a sampler-ledger digest.
util::Json run_record(const campaign::RunResult& r) {
  util::Json rec = util::Json::object();
  rec.set("seed", r.seed);
  rec.set("violations", r.violations);
  rec.set("transitions", r.session.transitions);
  rec.set("wireless_sends", r.session.wireless_sends);
  rec.set("sessions", r.session.sessions);
  rec.set("censored_sessions", r.session.censored_sessions);
  rec.set("max_system_reset", r.session.max_system_reset);
  rec.set("episodes", json_array(r.session.episodes));
  rec.set("max_dwell", json_array(r.session.max_dwell));
  rec.set("lease_stops", json_array(r.session.lease_stops));
  rec.set("sent", r.network.sent);
  rec.set("delivered", r.network.delivered);
  rec.set("lost", r.network.lost);
  rec.set("corrupted", r.network.corrupted);
  rec.set("rejected_late", r.network.rejected_late);
  rec.set("duplicated", r.network.duplicated);
  return rec;
}

/// The sampler-ledger row of one 64-seed Monte-Carlo campaign on the
/// job's resolved spec at `campaign_threads`.
util::Json sample_row(Job job, std::size_t campaign_threads) {
  job.mode = campaign::RunMode::kMonteCarlo;
  job.tuning.seed_count = 64;
  const campaign::ScenarioSpec spec =
      scenarios::build(resolved_params(job, resolve_scenario(job)));
  campaign::CampaignOptions options;
  options.threads = campaign_threads;
  const campaign::CampaignReport report = campaign::CampaignRunner(options).run(spec);
  const campaign::ScenarioOutcome& out = report.scenarios.at(0);
  util::Json records = util::Json::array();
  std::uint64_t transitions = 0;
  for (const campaign::RunResult& r : out.runs) {
    records.push_back(run_record(r));
    transitions += r.session.transitions;
  }
  util::Json row = util::Json::object();
  row.set("scenario", out.name);
  row.set("runs", out.runs.size());
  row.set("violations", out.total_violations);
  row.set("sessions", out.total_sessions);
  row.set("censored_sessions", out.censored_sessions);
  row.set("packets_sent", out.network.sent);
  row.set("packets_delivered", out.network.delivered);
  row.set("transitions", transitions);
  row.set("runs_sha256", util::Sha256::hex(records.dump_canonical()));
  if (!report.errors.empty()) row.set("errors", util::join(report.errors, "; "));
  return row;
}

void expect_sample_rows(std::size_t campaign_threads) {
  expect_rows("samples.json", util::cat(campaign_threads, " campaign thread(s)"), {},
              [&](const Job& job) { return sample_row(job, campaign_threads); });
}

void expect_one_row_per_document(const char* file) {
  std::set<std::string> names;
  for (const Job& job : ledger_jobs()) names.insert(job_name(job));
  std::set<std::string> rows;
  for (const auto& [name, row] : golden_rows(file)) rows.insert(name);
  EXPECT_EQ(names, rows);
}

TEST(CounterLedger, HasOneRowPerRegistryEntryAndCorpusDocument) {
  expect_one_row_per_document("counters.json");
}

TEST(CounterLedger, EveryRowMatchesAtFourVerifyThreads) { expect_ledger_rows(4, {}); }

TEST(CounterLedger, EveryRowMatchesAtOneVerifyThread) {
  expect_ledger_rows(1, {"edge-dwell-safe-n3"});
}

TEST(CounterLedger, HasEveryAblationRowPerDocumentWithinBudget) {
  std::set<std::string> keys;
  for (const auto& [key, row] : golden_rows("ablations.json")) keys.insert(key);
  EXPECT_EQ(ablation_keys(), keys);
}

TEST(CounterLedger, EveryAblationRowMatchesAtFourVerifyThreads) {
  const std::map<std::string, util::Json> golden = golden_rows("ablations.json");
  for (const Job& job : ledger_jobs()) {
    if (job_name(job) == kNoAblationRows) continue;
    for (const std::string& ablation : kAblations) {
      const util::Json row = ablation_row(job, ablation);
      const std::string key = row_key(row);
      SCOPED_TRACE(key);
      const auto it = golden.find(key);
      const std::string expected =
          it == golden.end() ? "(no row)" : it->second.dump_canonical();
      EXPECT_EQ(expected, row.dump_canonical()) << "new row:\n" << row.dump(2);
    }
  }
}

TEST(SampleLedger, HasOneRowPerRegistryEntryAndCorpusDocument) {
  expect_one_row_per_document("samples.json");
}

TEST(SampleLedger, EveryRowMatchesAtOneCampaignThread) { expect_sample_rows(1); }

TEST(SampleLedger, EveryRowMatchesAtFourCampaignThreads) { expect_sample_rows(4); }

}  // namespace
}  // namespace ptecps::api
