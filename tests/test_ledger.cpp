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
#include "scenarios/registry.hpp"
#include "scenarios/serialize.hpp"
#include "util/digest.hpp"
#include "util/json.hpp"
#include "util/text.hpp"

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
  const campaign::VerificationOutcome& v = *result.report->scenarios[0].verification;
  row.set("states_explored", v.states_explored);
  row.set("states_stored", v.states_stored);
  row.set("transitions", v.transitions);
  row.set("sketch_distinct", v.sketch.distinct);
  row.set("sketch_signature", hex64(v.sketch.signature()));
  row.set("counterexample_sha256",
          v.counterexample.has_value()
              ? util::Json(util::Sha256::hex(v.counterexample->to_json().dump_canonical()))
              : util::Json());
  return row;
}

/// The checked-in rows, keyed by scenario name.
std::map<std::string, util::Json> golden_rows() {
  const util::Json golden = util::Json::parse(read_text(kTestsDir / "golden" / "counters.json"));
  std::map<std::string, util::Json> rows;
  for (const util::Json& row : golden.at("rows").as_array())
    rows.emplace(row.at("scenario").as_string(), row);
  return rows;
}

void expect_ledger_rows(std::size_t verify_threads, const std::set<std::string>& skip) {
  const std::map<std::string, util::Json> golden = golden_rows();
  for (const Job& job : ledger_jobs()) {
    const std::string name = job_name(job);
    if (skip.contains(name)) continue;
    SCOPED_TRACE(util::cat(name, " at ", verify_threads, " verify thread(s)"));
    const util::Json row = ledger_row(job, verify_threads);
    const auto it = golden.find(name);
    const std::string expected =
        it == golden.end() ? "(no row)" : it->second.dump_canonical();
    EXPECT_EQ(expected, row.dump_canonical()) << "new row:\n" << row.dump(2);
  }
}

TEST(CounterLedger, HasOneRowPerRegistryEntryAndCorpusDocument) {
  std::set<std::string> names;
  for (const Job& job : ledger_jobs()) names.insert(job_name(job));
  std::set<std::string> rows;
  for (const auto& [name, row] : golden_rows()) rows.insert(name);
  EXPECT_EQ(names, rows);
}

TEST(CounterLedger, EveryRowMatchesAtFourVerifyThreads) { expect_ledger_rows(4, {}); }

TEST(CounterLedger, EveryRowMatchesAtOneVerifyThread) {
  expect_ledger_rows(1, {"edge-dwell-safe-n3"});
}

}  // namespace
}  // namespace ptecps::api
