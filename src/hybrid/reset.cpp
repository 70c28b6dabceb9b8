#include "hybrid/reset.hpp"

#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::hybrid {

Reset& Reset::set(VarId v, double value) {
  assignments_.push_back(Assignment{v, Kind::kConstant, value});
  return *this;
}

Reset& Reset::set_now_plus(VarId v, double offset) {
  assignments_.push_back(Assignment{v, Kind::kNowPlus, offset});
  return *this;
}

void Reset::apply(sim::SimTime now, Valuation& x) const {
  for (const auto& a : assignments_) {
    PTE_REQUIRE(a.var < x.size(), "reset writes variable outside valuation");
    switch (a.kind) {
      case Kind::kConstant: x[a.var] = a.value; break;
      case Kind::kNowPlus: x[a.var] = now + a.value; break;
    }
  }
}

Reset Reset::shifted(std::size_t offset) const {
  Reset r = *this;
  for (auto& a : r.assignments_) a.var += offset;
  return r;
}

std::string Reset::str(const std::vector<std::string>& var_names) const {
  std::vector<std::string> parts;
  for (const auto& a : assignments_) {
    const std::string name =
        a.var < var_names.size() ? var_names[a.var] : util::cat("x", a.var);
    switch (a.kind) {
      case Kind::kConstant:
        parts.push_back(util::cat(name, " := ", util::fmt_compact(a.value)));
        break;
      case Kind::kNowPlus:
        parts.push_back(util::cat(name, " := t + ", util::fmt_compact(a.value)));
        break;
    }
  }
  return util::join(parts, ", ");
}

std::string Reset::canonical() const {
  std::string out;
  for (const auto& a : assignments_) {
    switch (a.kind) {
      case Kind::kConstant:
        out += util::cat("x", a.var, ":=", util::fmt_compact(a.value), ";");
        break;
      case Kind::kNowPlus:
        out += util::cat("x", a.var, ":=t+", util::fmt_compact(a.value), ";");
        break;
    }
  }
  return out;
}

std::vector<VarId> Reset::written() const {
  std::vector<VarId> out;
  out.reserve(assignments_.size());
  for (const auto& a : assignments_) out.push_back(a.var);
  return out;
}

}  // namespace ptecps::hybrid
