// Content-addressed result cache: final JobResults, nothing else.
//
// A cache entry answers "this exact deployment, under these exact
// budgets, on this exact engine" — the key is a SHA-256 over the
// scenario's canonical form (scenarios/canonical.hpp), so two scenario
// files that differ only in key order, whitespace, float rendering, or
// notes address the same entry, while any semantic change (a budget, a
// timing constant, a topology edge) misses.  Worker-thread counts are
// masked out of the key: the engine's results are bit-identical at
// every thread count, so a laptop and a 64-core CI box share entries.
//
// One store under the root: results/<key>.json holds a wrapped
// api::JobResult JSON.  An out-of-budget verdict is stored like any
// other (it is deterministic), and a larger budget is a different key,
// so it runs cold.
//
// The cache is advisory, never authoritative: every load re-validates
// (schema wrapper, engine tag) and any mismatch or I/O failure degrades
// to a miss.  Every publish writes its own temp file (pid + counter) and
// renames it into place, so concurrent writers of one key never share an
// inode and a reader sees a whole entry or none.
//
// Eviction is size-capped LRU on file mtimes (loads touch), and gc() is
// its only routine.  A store costs O(1): it adds its bytes to a running
// total (one per ResultCache, shared by every thread under a mutex) and
// scans the directory only on this object's first store, when the total
// crosses max_bytes, or once this object has written max_bytes/8 since
// its last scan.  A scan resets the total to what is on disk and, when
// the store is over the cap, evicts down to 7/8 of it, so a full store
// pays one scan per max_bytes/8 written.  Other processes' writes reach
// the total only at a scan: a shared directory holds at most the cap
// plus what other writers stored since this object's last scan.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "scenarios/builder.hpp"
#include "util/json.hpp"

namespace ptecps::api {

/// What stats() reports (and `pte cache stats` prints).
struct CacheStats {
  std::size_t results = 0;
  std::uint64_t bytes = 0;
  std::uint64_t max_bytes = 0;
  /// Directory scans (gc() runs) this ResultCache object has made.
  std::uint64_t scans = 0;
  std::string dir;

  util::Json to_json() const;
};

class ResultCache {
 public:
  /// Default size cap.
  static constexpr std::uint64_t kDefaultMaxBytes = 256ull << 20;

  struct Options {
    std::string dir;
    std::uint64_t max_bytes = kDefaultMaxBytes;
  };

  /// Creates `dir` (and the results store under it) when missing; throws
  /// std::runtime_error naming the offending path when the location is
  /// unusable (exists as a file, permission denied, ...).
  explicit ResultCache(Options options);

  /// Key for a finished JobResult: canonical scenario params (thread
  /// counts masked) + engine tag + the cross-validation flag.
  std::string result_key(const scenarios::ScenarioParams& params, bool cross_validate) const;

  /// The stored JobResult JSON, or nullopt on miss / wrapper mismatch /
  /// unreadable file.  A hit touches the entry's mtime (LRU recency).
  std::optional<util::Json> load_result(const std::string& key) const;
  /// Store (atomically: unique tmp + rename) and add the entry to the
  /// running total; scans via gc() only when a scan rule above fires.
  void store_result(const std::string& key, const std::string& scenario,
                    const util::Json& result_json) const;

  /// No-ops kept only for perfbench's trace_job (perfbench/harness.cpp),
  /// which replays the served path's calls and still names a checkpoint
  /// lookup; the served path makes none.  Nothing else may call them.
  std::string checkpoint_key(const scenarios::ScenarioParams&) const { return {}; }
  void load_checkpoint(const std::string&) const {}

  CacheStats stats() const;
  /// Remove every entry; returns how many files were deleted.
  std::size_t clear() const;
  /// Scan the store and reset the running total to its bytes; when they
  /// exceed the cap, evict least-recently-used entries down to 7/8 of it.
  /// Returns how many files were evicted.
  std::size_t gc() const;

  const std::string& dir() const { return options_.dir; }

 private:
  std::string result_path(const std::string& key) const;
  /// Add a published entry's bytes to the running total; runs the scan
  /// when one of the rules above fires.
  void account(std::uint64_t bytes) const;
  /// gc() with mutex_ already held.
  std::size_t gc_locked() const;

  Options options_;
  /// Guards the running total.  Stores are const (callers share the
  /// cache as `const ResultCache*`), so the accounting is mutable.
  mutable std::mutex mutex_;
  /// Bytes on disk at the last scan plus every byte this object has
  /// published since (an overwrite counts in full).
  mutable std::uint64_t bytes_ = 0;
  mutable std::uint64_t written_since_scan_ = 0;
  mutable std::uint64_t scans_ = 0;
};

}  // namespace ptecps::api
