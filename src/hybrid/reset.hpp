// Reset functions (§II-A.7): applied to the data state vector when a
// discrete transition is taken.  A reset is a list of assignments; every
// variable not assigned keeps its value (the identity reset of Fig. 2 is
// an empty list).  An assignment sets a constant, `x := c`, or a value
// relative to the current simulated time — the lease design pattern
// records supervisor-side lease deadlines as `D_i := now + c`.  No
// right-hand side reads the valuation, so assignment order does not
// matter.
#pragma once

#include <string>
#include <vector>

#include "hybrid/expr.hpp"
#include "sim/time.hpp"

namespace ptecps::hybrid {

class Reset {
 public:
  enum class Kind { kConstant, kNowPlus };

  /// One assignment x_var := value (kConstant) or now + value (kNowPlus).
  struct Assignment {
    VarId var = 0;
    Kind kind = Kind::kConstant;
    double value = 0.0;
  };

  Reset() = default;

  /// x_v := value
  Reset& set(VarId v, double value);

  /// x_v := now + offset   (lease deadline bookkeeping)
  Reset& set_now_plus(VarId v, double offset);

  bool is_identity() const { return assignments_.empty(); }

  void apply(sim::SimTime now, Valuation& x) const;

  Reset shifted(std::size_t offset) const;

  std::string str(const std::vector<std::string>& var_names) const;
  std::string canonical() const;

  /// Variables written by this reset (for validation).
  std::vector<VarId> written() const;

  /// The assignments in order (verification front-ends compile resets
  /// symbolically).
  const std::vector<Assignment>& assignments() const { return assignments_; }

 private:
  std::vector<Assignment> assignments_;
};

}  // namespace ptecps::hybrid
