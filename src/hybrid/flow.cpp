#include "hybrid/flow.hpp"

#include <algorithm>

#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::hybrid {

Flow& Flow::rate(VarId v, double r) {
  for (auto& [rv, rr] : rates_) {
    if (rv == v) {
      rr = r;
      return *this;
    }
  }
  rates_.emplace_back(v, r);
  return *this;
}

double Flow::rate_of(VarId v) const {
  for (const auto& [rv, rr] : rates_) {
    if (rv == v) return rr;
  }
  return 0.0;
}

std::vector<double> Flow::dense_rates(std::size_t n) const {
  std::vector<double> out(n, 0.0);
  for (const auto& [v, r] : rates_) {
    PTE_REQUIRE(v < n, "flow references variable outside automaton");
    out[v] = r;
  }
  return out;
}

Flow Flow::shifted(std::size_t offset) const {
  Flow f;
  for (const auto& [v, r] : rates_) f.rates_.emplace_back(v + offset, r);
  return f;
}

Flow Flow::merged(const Flow& a, const Flow& b) {
  Flow f;
  f.rates_ = a.rates_;
  for (const auto& [v, r] : b.rates_) f.rate(v, r);
  return f;
}

std::string Flow::str(const std::vector<std::string>& var_names) const {
  std::vector<std::string> parts;
  for (const auto& [v, r] : rates_) {
    if (r == 0.0) continue;
    const std::string name = v < var_names.size() ? var_names[v] : util::cat("x", v);
    parts.push_back(util::cat("d", name, "/dt = ", util::fmt_compact(r)));
  }
  if (parts.empty()) return "frozen";
  return util::join(parts, ", ");
}

std::string Flow::canonical() const {
  auto sorted = rates_;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const auto& [v, r] : sorted) {
    if (r == 0.0) continue;
    out += util::cat("x", v, "'=", util::fmt_compact(r), ";");
  }
  return out;
}

}  // namespace ptecps::hybrid
