// The content-addressed result cache (api/cache.hpp) and its wiring
// through Service::run / run_matrix: hits reproduce cold verdicts
// bit-for-bit, expectations are re-derived per job, an entry does not
// depend on which entry point stored it, out-of-budget frontiers
// warm-resume, and the store degrades (never errors) on corruption and
// stays under its size cap while scanning its directory only when the
// running byte total calls for it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>

#include "api/service.hpp"
#include "scenarios/registry.hpp"
#include "util/text.hpp"

namespace ptecps::api {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("ptecps-" + name);
  fs::remove_all(dir);
  return dir.string();
}

Service cached_service(const std::string& dir, std::uint64_t max_bytes = 0) {
  ServiceOptions options;
  options.cache_dir = dir;
  if (max_bytes > 0) options.cache_max_bytes = max_bytes;
  return Service(options);
}

Job smoke_job(const std::string& name) {
  Job job = Job::for_scenario(name);
  job.smoke = true;
  return job;
}

/// Everything the acceptance bar compares: verdict, state counts, and
/// the counterexample's canonical bytes (never wall clock or counters).
std::string fingerprint(const JobResult& r) {
  std::string out = r.verdict;
  if (r.report.has_value()) {
    for (const campaign::ScenarioOutcome& s : r.report->scenarios) {
      if (!s.verification.has_value()) continue;
      const campaign::VerificationOutcome& v = *s.verification;
      out += util::cat(";", s.name, ":", verify::verify_status_str(v.status), ",",
                       v.states_explored, ",", v.states_stored, ",", v.transitions);
      if (v.counterexample.has_value())
        out += ";" + v.counterexample->to_json().dump_canonical();
    }
  }
  if (r.crossval.has_value())
    for (const scenarios::CrossCheck& c : r.crossval->checks)
      out += util::cat(";xval:", c.scenario, "=", c.consistent);
  return out;
}

/// `j` with the named keys dropped at every depth: wall-clock numbers
/// and per-call counters are metadata, not part of an answer.
util::Json without(util::Json j, const std::set<std::string>& keys) {
  if (j.is_object()) {
    util::Json::Object& members = j.as_object();
    std::erase_if(members, [&](const util::Json::Member& m) { return keys.contains(m.first); });
    for (util::Json::Member& m : members) m.second = without(std::move(m.second), keys);
  } else if (j.is_array()) {
    for (util::Json& e : j.as_array()) e = without(std::move(e), keys);
  }
  return j;
}

/// A deliberately broken registry entry — its cached entry must carry
/// the counterexample byte-for-byte.
std::string violating_scenario() {
  for (const scenarios::RegistryEntry& e : scenarios::registry())
    if (e.expected == verify::VerifyStatus::kViolation) return e.name;
  return scenarios::registry().front().name;
}

TEST(ResultCache, StoreLoadRoundTripAndCorruptionTolerance) {
  ResultCache::Options options;
  options.dir = fresh_dir("roundtrip");
  const ResultCache cache(options);

  util::Json payload = util::Json::object();
  payload.set("verdict", "proved");
  cache.store_result("k1", "some-scenario", payload);
  const auto loaded = cache.load_result("k1");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->dump_canonical(), payload.dump_canonical());
  EXPECT_FALSE(cache.load_result("absent").has_value());

  // A torn / corrupt entry is a miss, never an error.
  {
    std::ofstream out(fs::path(options.dir) / "results" / "k1.json", std::ios::trunc);
    out << "{\"schema\": \"ptecps-cache-result\", \"version\"";
  }
  EXPECT_FALSE(cache.load_result("k1").has_value());

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.results, 1u);
  EXPECT_EQ(cache.clear(), 1u);
  EXPECT_EQ(cache.stats().results, 0u);
}

TEST(ResultCache, ConstructionFailsLoudlyOnUnusablePath) {
  const std::string dir = fresh_dir("blocked");
  fs::create_directories(fs::path(dir).parent_path());
  {
    std::ofstream out(dir);  // the cache root exists as a FILE
    out << "not a directory";
  }
  ResultCache::Options options;
  options.dir = dir;
  try {
    const ResultCache cache(options);
    FAIL() << "expected construction to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos)
        << "diagnostic must name the path: " << e.what();
  }
  fs::remove(dir);
}

TEST(ResultCache, EvictionKeepsTheStoreUnderItsCap) {
  ResultCache::Options options;
  options.dir = fresh_dir("evict");
  options.max_bytes = 64;  // smaller than any single entry
  const ResultCache cache(options);
  util::Json payload = util::Json::object();
  payload.set("verdict", "proved");
  cache.store_result("a", "s", payload);
  cache.store_result("b", "s", payload);
  EXPECT_LE(cache.stats().bytes, options.max_bytes);
}

TEST(ResultCache, FailedPublishLeavesNoTempFile) {
  ResultCache::Options options;
  options.dir = fresh_dir("failed-publish");
  const ResultCache cache(options);
  // A directory where the entry belongs makes the rename fail.
  fs::create_directories(fs::path(options.dir) / "results" / "k.json" / "blocker");
  cache.store_result("k", "s", util::Json::object());
  EXPECT_FALSE(cache.load_result("k").has_value());
  for (const auto& entry : fs::directory_iterator(fs::path(options.dir) / "results"))
    EXPECT_EQ(entry.path().filename(), "k.json") << "left behind: " << entry.path();
}

TEST(ServiceCache, SecondRunHitsWithIdenticalVerdict) {
  const std::string dir = fresh_dir("hit");
  const std::string name = violating_scenario();
  const Service service = cached_service(dir);

  const JobResult cold = service.run(smoke_job(name));
  EXPECT_TRUE(cold.cache.enabled);
  EXPECT_EQ(cold.cache.hits, 0u);
  EXPECT_EQ(cold.cache.misses, 1u);

  const JobResult hit = service.run(smoke_job(name));
  EXPECT_EQ(hit.cache.hits, 1u);
  EXPECT_EQ(hit.cache.misses, 0u);
  EXPECT_EQ(fingerprint(hit), fingerprint(cold));
  EXPECT_EQ(hit.ok, cold.ok);

  // A cache-less service reproduces the same verdict (the cache never
  // changes answers, only work).
  const JobResult uncached = Service().run(smoke_job(name));
  EXPECT_FALSE(uncached.cache.enabled);
  EXPECT_EQ(fingerprint(uncached), fingerprint(cold));
}

TEST(ServiceCache, HitRecomputesExpectationForTheJobAtHand) {
  const std::string dir = fresh_dir("expect");
  const std::string name = violating_scenario();
  const Service service = cached_service(dir);
  const JobResult cold = service.run(smoke_job(name));
  ASSERT_EQ(cold.cache.misses, 1u);

  // Same scenario, contradictory assertion: still a hit (the expectation
  // is not part of the key), but judged against THIS job.
  Job wrong = smoke_job(name);
  wrong.expected = verify::VerifyStatus::kProved;
  const JobResult hit = service.run(wrong);
  EXPECT_EQ(hit.cache.hits, 1u);
  EXPECT_FALSE(hit.expected_match);
  EXPECT_FALSE(hit.ok);
  EXPECT_EQ(fingerprint(hit), fingerprint(cold));
}

TEST(ServiceCache, OutOfBudgetFrontierWarmResumesLargerBudgets) {
  const std::string dir = fresh_dir("resume");
  const std::string name = "three-entity-chain";
  const Service service = cached_service(dir);

  Job small = smoke_job(name);
  small.tuning.max_states = 200;
  const JobResult first = service.run(small);
  ASSERT_EQ(first.verdict, "out-of-budget");

  const JobResult warm = service.run(smoke_job(name));
  EXPECT_EQ(warm.cache.misses, 1u);  // different budget → different key
  EXPECT_EQ(warm.cache.resumes, 1u);

  const JobResult cold = Service().run(smoke_job(name));
  EXPECT_EQ(fingerprint(warm), fingerprint(cold));
}

TEST(ServiceCache, MatrixSecondPassIsAllHits) {
  const std::string dir = fresh_dir("matrix");
  const std::string violating = violating_scenario();
  std::vector<Job> jobs = {smoke_job("three-entity-chain"), smoke_job(violating)};
  const Service service = cached_service(dir);

  const MatrixResult cold = service.run_matrix(jobs);
  EXPECT_EQ(cold.cache.hits, 0u);
  EXPECT_EQ(cold.cache.misses, 2u);
  ASSERT_EQ(cold.rows.size(), 2u);

  const MatrixResult warm = service.run_matrix(jobs);
  EXPECT_EQ(warm.cache.hits, 2u);
  EXPECT_EQ(warm.cache.misses, 0u);
  EXPECT_EQ(warm.ok, cold.ok);
  ASSERT_EQ(warm.rows.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(warm.rows[i].scenario, cold.rows[i].scenario);
    EXPECT_EQ(warm.rows[i].status, cold.rows[i].status);
    EXPECT_EQ(warm.rows[i].expected_match, cold.rows[i].expected_match);
    EXPECT_EQ(warm.rows[i].consistent, cold.rows[i].consistent);
  }
  ASSERT_TRUE(warm.report.has_value());
  ASSERT_TRUE(cold.report.has_value());
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& wv = warm.report->scenarios[i].verification;
    const auto& cv = cold.report->scenarios[i].verification;
    ASSERT_EQ(wv.has_value(), cv.has_value());
    if (!wv.has_value()) continue;
    EXPECT_EQ(wv->status, cv->status);
    EXPECT_EQ(wv->states_explored, cv->states_explored);
    EXPECT_EQ(wv->states_stored, cv->states_stored);
    EXPECT_EQ(wv->transitions, cv->transitions);
    ASSERT_EQ(wv->counterexample.has_value(), cv->counterexample.has_value());
    if (wv->counterexample.has_value()) {
      EXPECT_EQ(wv->counterexample->to_json().dump_canonical(),
                cv->counterexample->to_json().dump_canonical());
    }
  }

  // A solo run of a matrix-cached scenario hits the same entry.
  const JobResult solo = service.run(smoke_job(violating));
  EXPECT_EQ(solo.cache.hits, 1u);
}

TEST(ServiceCache, EntryIsTheSameWhicheverEntryPointStoredIt) {
  const std::set<std::string> timing = {"wall_seconds", "runs_per_second", "wall_mean_s",
                                        "wall_p50_s", "wall_p99_s"};
  std::set<std::string> per_call = timing;
  per_call.insert({"wall_ms", "cache"});
  for (const bool cross_validate : {true, false}) {
    SCOPED_TRACE(util::cat("cross_validate=", cross_validate));
    Job job = smoke_job("laser-tracheotomy");
    job.cross_validate = cross_validate;
    const std::string tag = cross_validate ? "xval" : "no-xval";
    const Service by_run = cached_service(fresh_dir("entry-run-" + tag));
    const Service by_matrix = cached_service(fresh_dir("entry-matrix-" + tag));
    by_run.run(job);
    by_matrix.run_matrix({job});

    const std::string key =
        by_run.cache()->result_key(resolved_params(job, resolve_scenario(job)), cross_validate);
    const std::optional<util::Json> from_run = by_run.cache()->load_result(key);
    const std::optional<util::Json> from_matrix = by_matrix.cache()->load_result(key);
    ASSERT_TRUE(from_run.has_value());
    ASSERT_TRUE(from_matrix.has_value());
    EXPECT_EQ(without(*from_run, timing).dump(2), without(*from_matrix, timing).dump(2));

    // A hit on the matrix-stored entry answers like a cache-less cold run.
    const JobResult hit = by_matrix.run(job);
    ASSERT_EQ(hit.cache.hits, 1u);
    EXPECT_EQ(without(hit.to_json(), per_call).dump(2),
              without(Service().run(job).to_json(), per_call).dump(2));
  }
}

// ---------------------------------------------------------------------------
// The running byte total: a store scans the directory only on the cache's
// first store, when the total crosses the cap, or once the cache has
// written a cap/8 since its last scan.
// ---------------------------------------------------------------------------

std::string key_of(int i) { return util::cat("key-", i); }

/// The key is only the file's name, so every entry of this payload has
/// one size.
util::Json padded_payload() {
  util::Json payload = util::Json::object();
  payload.set("verdict", "proved");
  payload.set("pad", std::string(1000, 'x'));
  return payload;
}

std::uint64_t entry_bytes(const ResultCache& cache, const std::string& key) {
  return fs::file_size(fs::path(cache.dir()) / "results" / (key + ".json"));
}

TEST(ResultCacheAccounting, StoresBelowTheCapCostOneScan) {
  ResultCache::Options options;
  options.dir = fresh_dir("one-scan");
  const ResultCache cache(options);
  for (int i = 0; i < 200; ++i) cache.store_result(key_of(i), "s", padded_payload());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.results, 200u);
  EXPECT_EQ(stats.scans, 1u);
}

TEST(ResultCacheAccounting, AnEvictingStoreLeavesSevenEighthsOfTheCap) {
  ResultCache::Options options;
  options.dir = fresh_dir("low-water");
  options.max_bytes = 32 << 10;
  const ResultCache cache(options);
  std::size_t results = 0;
  std::size_t evicting_stores = 0;
  for (int i = 0; i < 200; ++i) {
    cache.store_result(key_of(i), "s", padded_payload());
    const CacheStats stats = cache.stats();
    EXPECT_LE(stats.bytes, options.max_bytes) << "store " << i;
    if (stats.results < results + 1) {
      ++evicting_stores;
      EXPECT_LE(stats.bytes, options.max_bytes / 8 * 7) << "store " << i;
    }
    results = stats.results;
  }
  EXPECT_GT(evicting_stores, 0u);
}

TEST(ResultCacheAccounting, AFullCacheScansOncePerEighthOfTheCapWritten) {
  ResultCache::Options options;
  options.dir = fresh_dir("full");
  options.max_bytes = 64 << 10;
  const ResultCache cache(options);
  cache.store_result(key_of(0), "s", padded_payload());
  const std::uint64_t entry = entry_bytes(cache, key_of(0));
  const std::uint64_t stores_per_scan = (options.max_bytes / 8 + entry - 1) / entry;
  ASSERT_GT(stores_per_scan, 4u);
  // Write twice the cap, so every later store lands in a full cache.
  int next = 1;
  while (static_cast<std::uint64_t>(next) * entry < 2 * options.max_bytes)
    cache.store_result(key_of(next++), "s", padded_payload());

  const std::uint64_t scans_before = cache.stats().scans;
  constexpr int kStores = 400;
  for (int i = 0; i < kStores; ++i) cache.store_result(key_of(next++), "s", padded_payload());
  const CacheStats stats = cache.stats();
  EXPECT_NEAR(static_cast<double>(stats.scans - scans_before),
              static_cast<double>(kStores / stores_per_scan), 1.0);
  EXPECT_LE(stats.bytes, options.max_bytes);
}

TEST(ResultCacheAccounting, TwoCachesOnOneDirectoryEachEnforceTheCapOverTheOthersBytes) {
  // Two objects stand in for two processes: each sees the other's
  // bytes only when it scans.
  constexpr std::uint64_t kCap = 64 << 10;
  for (const bool first_fills : {true, false}) {
    SCOPED_TRACE(util::cat("first_fills=", first_fills));
    ResultCache::Options options;
    options.dir = fresh_dir(util::cat("two-objects-", first_fills));
    options.max_bytes = kCap;
    const ResultCache first(options);
    const ResultCache second(options);
    const ResultCache& filler = first_fills ? first : second;
    const ResultCache& enforcer = first_fills ? second : first;

    int next = 0;
    enforcer.store_result(key_of(next++), "s", padded_payload());  // its first scan
    ASSERT_EQ(enforcer.stats().scans, 1u);
    const std::uint64_t entry = entry_bytes(enforcer, key_of(0));
    const std::uint64_t stores_per_scan = (kCap / 8 + entry - 1) / entry;

    // The other writer brings the store to just under the cap.
    while (filler.stats().bytes + 2 * entry <= kCap)
      filler.store_result(key_of(next++), "s", padded_payload());

    // The enforcer's total holds only its own bytes, so it overfills the
    // store until it has written a cap/8 since its last scan...
    for (std::uint64_t i = 1; i < stores_per_scan; ++i) {
      enforcer.store_result(key_of(next++), "s", padded_payload());
      EXPECT_EQ(enforcer.stats().scans, 1u);
    }
    ASSERT_GT(enforcer.stats().bytes, kCap);

    // ...and the store that completes that cap/8 rescans and evicts.
    enforcer.store_result(key_of(next++), "s", padded_payload());
    const CacheStats stats = enforcer.stats();
    EXPECT_EQ(stats.scans, 2u);
    EXPECT_LE(stats.bytes, kCap / 8 * 7);
  }
}

}  // namespace
}  // namespace ptecps::api
