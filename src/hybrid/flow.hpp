// Flow maps (§II-A.4): per-location differential equations ẋ = f_v(x).
//
// Every flow is constant-rate: ẋ_k = r_k.  This covers clocks (rate 1),
// frozen variables (rate 0) and the case study's ventilator cylinder
// (±0.1 m/s).  Constant rates are integrated exactly and guard crossings
// are solved in closed form.  (The patient's physiology is not a flow: it
// is an environment process the scheduler steps, see casestudy/patient.hpp.)
#pragma once

#include <string>
#include <vector>

#include "hybrid/expr.hpp"

namespace ptecps::hybrid {

class Flow {
 public:
  Flow() = default;

  /// Set the constant rate of one variable.
  Flow& rate(VarId v, double r);

  /// Constant rate of variable v (0 if unset).
  double rate_of(VarId v) const;

  /// Dense rate vector of length n (missing entries are 0).
  std::vector<double> dense_rates(std::size_t n) const;

  /// True iff no rate was set (so every variable is frozen).
  bool is_zero() const { return rates_.empty(); }

  /// Shift variable indices by `offset` into a larger variable space.
  Flow shifted(std::size_t offset) const;

  /// Merge two flows over disjoint variable sets (elaboration: parent
  /// flow at the elaborated location + child location flow).
  static Flow merged(const Flow& a, const Flow& b);

  std::string str(const std::vector<std::string>& var_names) const;
  std::string canonical() const;

 private:
  std::vector<std::pair<VarId, double>> rates_;
};

}  // namespace ptecps::hybrid
