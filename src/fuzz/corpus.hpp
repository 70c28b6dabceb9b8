// The fuzzing corpus: retained scenario documents keyed by their
// canonical content digest (scenarios::params_digest), with the
// coverage each one earned when it executed.
//
// Dedup is content-addressed: two documents that differ only in key
// order, whitespace, or float spelling are ONE corpus entry — the same
// identity the result cache uses, so a corpus entry, its cache entry,
// and its on-disk file all agree on what "the same scenario" means.
//
// Persistence is one sparse `.json` per entry (serialize.hpp's
// to_json_sparse) named by digest prefix; loading re-reads every file
// in sorted name order, so a reloaded corpus is deterministic
// regardless of directory enumeration order.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

#include "fuzz/grammar.hpp"
#include "scenarios/serialize.hpp"

namespace ptecps::fuzz {

struct CorpusEntry {
  scenarios::ScenarioDocument doc;
  /// Canonical content identity (scenarios::params_digest of doc.params).
  std::string digest;
  /// Structural flip-region bucket (grammar.hpp).
  std::string bucket;
};

class Corpus {
 public:
  bool contains(const std::string& digest) const { return digests_.count(digest) > 0; }

  /// Insert if the digest is new; returns the stored entry, or nullptr
  /// on a duplicate (counted in dedup_rejects()).  Stored pointers stay
  /// valid for the corpus lifetime (deque storage).
  CorpusEntry* add(CorpusEntry entry);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  CorpusEntry& at(std::size_t i) { return entries_[i]; }
  const CorpusEntry& at(std::size_t i) const { return entries_[i]; }

  /// Documents rejected by content dedup since construction/load.
  std::size_t dedup_rejects() const { return dedup_rejects_; }

  /// Write every entry to `dir` as sparse JSON (one file per entry,
  /// "<digest16>.json"); returns files written, appends failures to
  /// `errors`.  Existing files for the same digest are left untouched —
  /// the corpus only grows.
  std::size_t save(const std::string& dir, std::vector<std::string>& errors) const;

  /// Load every `*.json` under `dir` (sorted name order) into the
  /// corpus; returns entries added, appends per-file parse/build
  /// failures to `errors` (a corrupt file never aborts the load).
  std::size_t load(const std::string& dir, std::vector<std::string>& errors);

 private:
  std::deque<CorpusEntry> entries_;
  std::unordered_set<std::string> digests_;
  std::size_t dedup_rejects_ = 0;
};

}  // namespace ptecps::fuzz
