// The result cache under contention — the daemon's reality: one cache
// directory shared by a worker pool in-process and by several processes
// on disk.  Correctness here is "atomic publish, degrade to miss": a
// reader never observes a torn entry, simultaneous same-key stores leave
// one valid winner, gc racing a store never corrupts, and a corrupt
// entry costs a recompute, never a wrong answer.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/cache.hpp"
#include "api/service.hpp"
#include "scenarios/registry.hpp"
#include "scenarios/serialize.hpp"

namespace ptecps::api {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("ptecps-conc-" + name);
  fs::remove_all(dir);
  return dir.string();
}

Job smoke_job(const std::string& name) {
  Job job = Job::for_scenario(name);
  job.smoke = true;
  return job;
}

scenarios::ScenarioParams params_of(const std::string& name) {
  return scenarios::export_document(*scenarios::find_scenario(name)).params;
}

util::Json result_payload(int marker) {
  util::Json j = util::Json::object();
  j.set("version", kApiVersion);
  j.set("ok", true);
  j.set("scenario", "stress");
  j.set("verdict", "proved");
  j.set("marker", marker);
  j.set("errors", util::Json::array());
  return j;
}

// ---------------------------------------------------------------------------
// Threads sharing one ResultCache
// ---------------------------------------------------------------------------

TEST(CacheConcurrent, SimultaneousSameKeyStoresLeaveOneValidEntry) {
  const ResultCache cache({fresh_dir("same-key")});
  const std::string key = cache.result_key(params_of("laser-tracheotomy"), true);

  constexpr int kThreads = 8;
  std::atomic<int> go{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&, t] {
      go.fetch_add(1);
      while (go.load() < kThreads) {  // all start as close together as possible
      }
      for (int round = 0; round < 50; ++round)
        cache.store_result(key, "stress", result_payload(t));
    });
  for (std::thread& w : writers) w.join();

  // Whoever won the last rename, the entry is whole and parses.
  const std::optional<util::Json> loaded = cache.load_result(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->at("verdict").as_string(), "proved");
  EXPECT_EQ(cache.stats().results, 1u);
}

TEST(CacheConcurrent, SameKeyStoresNeverExposeATornEntry) {
  // Writers of one key alternate a short and a long entry while a reader
  // loads it.  The key is present throughout, so every load must hit: a
  // miss means a reader saw an entry another writer was still writing.
  const ResultCache cache({fresh_dir("torn")});
  const std::string key = cache.result_key(params_of("laser-tracheotomy"), true);
  const auto payload = [](int round) {
    util::Json j = result_payload(round);
    j.set("pad", std::string(round % 2 == 0 ? 2 << 10 : 9 << 10, 'x'));
    return j;
  };
  cache.store_result(key, "stress", payload(0));

  std::atomic<bool> done{false};
  std::atomic<int> loads{0}, misses{0};
  std::thread reader([&] {
    while (!done.load()) {
      if (!cache.load_result(key).has_value()) ++misses;
      ++loads;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&] {
      for (int round = 0; round < 400; ++round) cache.store_result(key, "stress", payload(round));
    });
  for (std::thread& w : writers) w.join();
  done.store(true);
  reader.join();
  EXPECT_GT(loads.load(), 0);
  EXPECT_EQ(misses.load(), 0) << "of " << loads.load() << " loads";
}

TEST(CacheConcurrent, ManyThreadsOneServiceSharedCache) {
  // The daemon's exact shape: one Service, one cache dir, a pool of
  // threads running the same jobs.  Every result must agree and the
  // cache must end up with exactly the distinct entries.
  const std::string dir = fresh_dir("pool");
  ServiceOptions options;
  options.cache_dir = dir;
  const Service service(options);

  constexpr int kThreads = 8;
  std::vector<std::string> verdicts(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      const char* name = (t % 2 == 0) ? "laser-tracheotomy" : "adversarial-drop";
      Job job = smoke_job(name);
      job.tuning.threads = 1;
      verdicts[t] = service.run(job).verdict;
    });
  for (std::thread& w : pool) w.join();

  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(verdicts[t], t % 2 == 0 ? "proved" : "violation") << t;
  // Two distinct scenarios → two result entries, however the races fell.
  EXPECT_EQ(ResultCache({dir}).stats().results, 2u);
}

TEST(CacheConcurrent, GcRacingStoresNeverCorrupts) {
  // A tiny cap makes every store trigger eviction while other threads
  // keep storing — the mtime-LRU gc and the tmp+rename publish must
  // never interleave into a torn or unparseable entry.
  ResultCache::Options options;
  options.dir = fresh_dir("gc-race");
  options.max_bytes = 2048;  // a few entries at most
  const ResultCache cache(options);
  const scenarios::ScenarioParams base = params_of("laser-tracheotomy");

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      for (int round = 0; round < 40; ++round) {
        scenarios::ScenarioParams p = base;
        p.seed_base = static_cast<std::uint64_t>(t * 1000 + round);  // distinct keys
        cache.store_result(cache.result_key(p, true), "stress", result_payload(t));
        if (round % 8 == 0) cache.gc();
      }
    });
  for (std::thread& w : threads) w.join();

  cache.gc();
  EXPECT_LE(cache.stats().bytes, 2048u);
  // Every surviving entry is loadable — a torn file would load as
  // nullopt here yet still be counted by stats(), failing the next loop.
  std::size_t loadable = 0;
  for (int t = 0; t < 4; ++t)
    for (int round = 0; round < 40; ++round) {
      scenarios::ScenarioParams p = base;
      p.seed_base = static_cast<std::uint64_t>(t * 1000 + round);
      if (cache.load_result(cache.result_key(p, true)).has_value()) ++loadable;
    }
  EXPECT_EQ(loadable, cache.stats().results);
}

TEST(CacheConcurrent, CorruptEntriesDegradeToMissUnderContention) {
  const std::string dir = fresh_dir("corrupt");
  const ResultCache cache({dir});
  const std::string key = cache.result_key(params_of("laser-tracheotomy"), true);
  cache.store_result(key, "stress", result_payload(0));

  // One thread keeps truncating/garbling the file on disk while readers
  // hammer it: every load is either a full hit or a clean miss.
  std::atomic<bool> stop{false};
  std::thread vandal([&] {
    const fs::path file = fs::path(dir) / "results" / (key + ".json");
    while (!stop.load()) {
      std::ofstream(file, std::ios::trunc) << "{\"torn\":";
      std::ofstream(file, std::ios::trunc) << "not json at all";
    }
  });
  std::atomic<int> hits{0}, misses{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t)
    readers.emplace_back([&] {
      for (int round = 0; round < 200; ++round) {
        const std::optional<util::Json> loaded = cache.load_result(key);
        if (!loaded.has_value()) {
          ++misses;
        } else {
          EXPECT_EQ(loaded->at("verdict").as_string(), "proved");
          ++hits;
        }
      }
    });
  for (std::thread& r : readers) r.join();
  stop.store(true);
  vandal.join();
  EXPECT_EQ(hits + misses, 800);
  EXPECT_GT(misses.load(), 0);  // the vandal did land
}

// ---------------------------------------------------------------------------
// Two processes sharing one cache directory
// ---------------------------------------------------------------------------

TEST(CacheConcurrent, TwoProcessesShareOneCacheDir) {
  const std::string dir = fresh_dir("two-proc");

  // Parent and child run the same job against the same cache dir at the
  // same time; whoever loses the publish race still computed the same
  // bytes, so both must see the same verdict and one entry remains.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: its exit code carries the outcome (gtest asserts don't
    // propagate across fork).
    ServiceOptions options;
    options.cache_dir = dir;
    Job job = smoke_job("laser-tracheotomy");
    job.tuning.threads = 1;
    const JobResult r = Service(options).run(job);
    _exit(r.ok && r.verdict == "proved" ? 0 : 1);
  }

  ServiceOptions options;
  options.cache_dir = dir;
  Job job = smoke_job("laser-tracheotomy");
  job.tuning.threads = 1;
  const JobResult mine = Service(options).run(job);
  EXPECT_TRUE(mine.ok);
  EXPECT_EQ(mine.verdict, "proved");

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The second read — whoever stored — is a hit with the same verdict.
  const JobResult warm = Service(options).run(job);
  EXPECT_EQ(warm.cache.hits, 1u);
  EXPECT_EQ(warm.verdict, "proved");
  EXPECT_EQ(ResultCache({dir}).stats().results, 1u);
}

}  // namespace
}  // namespace ptecps::api
