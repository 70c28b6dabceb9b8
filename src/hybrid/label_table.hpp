// Dense interning of synchronization-label roots.
//
// Event routing is the engine's hottest discrete path: every emission is
// matched against the reception edges of every automaton, and every
// delivery is matched against the enabled event edges of the receiver.
// Doing that with string comparisons costs a hash or a character-wise
// compare per candidate edge.  The LabelTable assigns each distinct label
// root a dense LabelId once (in hybrid::compile_system), after which
// routing, dispatch and the wireless packets compare 32-bit integers; the
// root strings survive only for the trace/debug boundary (every node of a
// run lives in one engine and shares one table).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace ptecps::hybrid {

using LabelId = std::uint32_t;

/// Sentinel for "root not interned" (an event no automaton ever receives).
inline constexpr LabelId kNoLabel = 0xFFFFFFFFu;

class LabelTable {
 public:
  /// Id of `root`, interning it if new.  Ids are dense: 0, 1, 2, …
  LabelId intern(const std::string& root);

  /// Id of `root`, or kNoLabel if it was never interned.
  LabelId find(const std::string& root) const;

  /// The root string of an interned id (trace/debug boundary).
  const std::string& root_of(LabelId id) const;

  std::size_t size() const { return roots_.size(); }

 private:
  std::unordered_map<std::string, LabelId> index_;
  std::vector<std::string> roots_;
};

}  // namespace ptecps::hybrid
