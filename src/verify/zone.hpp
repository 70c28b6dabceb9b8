// Difference-bound zones for the PTE reachability verifier.
//
// A Zone is a convex set of clock valuations represented as a difference
// bound matrix (DBM): entry (i, j) bounds x_i - x_j with a (value,
// strictness) pair, clock 0 being the constant zero.  This is the
// standard abstraction for timed-automata model checking (Dill 1989;
// Bengtsson & Yi 2004) and is exact for the verifier's clock fragment:
// every continuous quantity the pattern automata branch on — location
// dwell, lease-deadline age, message age, risky/safe dwelling of the PTE
// monitor — advances at rate 1 and is only ever reset to 0.
//
// Storage is UPPAAL-style packed: one 64-bit word per DBM entry, the
// bound value in 2^-32-second fixed point shifted left by one with the
// strictness in the low bit (non-strict = 1), so "tighter" is plain
// integer "<", min is integer min, and the shortest-path closure's
// add-compare-store inner loop is branch-light integer arithmetic over
// contiguous memory.  Matrices come from a per-thread free list, so zone
// copy/destroy churn during exploration is allocation-free in steady
// state.  The double+bool `Bound` remains as the external reference
// representation (and as the oracle the packed arithmetic is
// property-tested against).
//
// Operations follow Bengtsson & Yi, "Timed Automata: Semantics,
// Algorithms and Tools" (algorithms in Fig. 10 there): close (canonical
// form), up/down (future/past closure), free, reset, constrain, and
// k-extrapolation for termination.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ptecps::verify {

/// One DBM entry in the reference representation:
/// x_i - x_j  {<, <=}  value.  Infinity = no bound.
struct Bound {
  double value = 0.0;
  bool strict = false;  // true: <, false: <=

  static Bound inf();
  static Bound le(double v) { return Bound{v, false}; }
  static Bound lt(double v) { return Bound{v, true}; }
  bool is_inf() const;

  bool operator==(const Bound&) const = default;
};

/// min in the (value, strictness) ordering: smaller value wins; at equal
/// value the strict bound is tighter.
Bound bound_min(const Bound& a, const Bound& b);
/// Bound addition (for the shortest-path closure).
Bound bound_add(const Bound& a, const Bound& b);
/// a tighter than b?
bool bound_lt(const Bound& a, const Bound& b);

// ---------------------------------------------------------------------------
// Packed bounds: (value * 2^32  rounded to nearest) << 1 | (strict ? 0 : 1).
// ---------------------------------------------------------------------------

using PackedBound = std::int64_t;

/// Infinity: larger than every finite word.  Finite packed values are
/// capped well below (|seconds| < 2^25), so a sum of two finite words can
/// never reach the clamp threshold and a sum involving infinity always
/// does — packed_add is a single add + cmov, no infinity branches.
inline constexpr PackedBound kPackedInf = PackedBound{1} << 61;
inline constexpr PackedBound kPackedInfClamp = PackedBound{1} << 60;
/// Fixed-point scale: 2^-32 s resolution (~2.3e-10), far below every
/// tolerance the concretizer and replay use.
inline constexpr double kPackedScale = 4294967296.0;  // 2^32

/// Pack a finite bound value (|v| must stay below 2^25 seconds).
PackedBound packed_bound(double value, bool strict);
inline PackedBound packed_le(double v) { return packed_bound(v, false); }
inline PackedBound packed_lt(double v) { return packed_bound(v, true); }
PackedBound pack(const Bound& b);
Bound unpack(PackedBound w);

inline bool packed_is_inf(PackedBound w) { return w >= kPackedInf; }
inline bool packed_strict(PackedBound w) { return (w & 1) == 0; }
inline double packed_value(PackedBound w) {
  return static_cast<double>(w >> 1) / kPackedScale;
}
/// a tighter than b?  (mirrors bound_lt)
inline bool packed_tighter(PackedBound a, PackedBound b) { return a < b; }
/// min in the tightness ordering (mirrors bound_min).
inline PackedBound packed_min(PackedBound a, PackedBound b) { return a < b ? a : b; }
/// Bound addition with saturation at infinity (mirrors bound_add).
inline PackedBound packed_add(PackedBound a, PackedBound b) {
  const PackedBound s = a + b - ((a | b) & 1);
  return s >= kPackedInfClamp ? kPackedInf : s;
}

class Zone {
 public:
  /// `clocks` real clocks (indices 1..clocks in the DBM; 0 is the zero
  /// clock).  Starts as the single point "all clocks = 0".
  explicit Zone(std::size_t clocks);
  Zone(const Zone& other);
  Zone(Zone&& other) noexcept;
  Zone& operator=(const Zone& other);
  Zone& operator=(Zone&& other) noexcept;
  ~Zone();

  std::size_t clocks() const { return n_ - 1; }

  /// x_i - x_j bound (i, j in 0..clocks; 0 = the constant zero clock).
  Bound at(std::size_t i, std::size_t j) const;
  PackedBound packed_at(std::size_t i, std::size_t j) const;

  bool is_empty() const { return empty_; }

  /// Future closure: remove upper bounds on all clocks (delay).
  void up();
  /// Past closure: x - δ for δ >= 0, clamped at 0 (used by the
  /// counterexample concretizer's backward pass).
  void down();
  /// Conjoin x_i - x_j {<,<=} value; canonicalizes incrementally.
  void constrain(std::size_t i, std::size_t j, PackedBound w);
  void constrain(std::size_t i, std::size_t j, const Bound& b);
  /// Would constrain(i, j, w) leave the zone non-empty?  O(1) on a
  /// canonical DBM: the only new cycle is i -> j -> i.
  bool feasible(std::size_t i, std::size_t j, PackedBound w) const {
    return !empty_ && packed_add(w, dbm_[j * n_ + i]) >= 1;  // >= packed_le(0)
  }
  /// x_i := 0.
  void reset(std::size_t i);
  /// Remove all constraints on x_i except x_i >= 0 (backward inverse of
  /// reset).
  void free(std::size_t i);

  /// k-extrapolation: bounds beyond ±k are widened to infinity / -k.
  /// Sound for reachability when k is at least the largest constant any
  /// guard or invariant compares against; guarantees a finite zone
  /// lattice and hence termination of the search.
  void extrapolate(double k);

  /// The widening half of k-extrapolation without re-canonicalization
  /// (no Floyd–Warshall).  The matrix represents exactly the same set as
  /// extrapolate(k)'s — closure never changes the solution set — but its
  /// entries are no longer pairwise-shortest, so the result is only
  /// valid as the right-hand side of inclusion tests (`probe ⊆ this`
  /// holds iff the canonical probe is entrywise <=, for ANY
  /// representation of `this`) and as the left-hand side of the
  /// sufficient entrywise test subset_of().  Do not run zone operations
  /// on a widened matrix.
  void widen(double k);

  /// this ⊆ other (both canonical, same clock count).
  bool subset_of(const Zone& other) const;

  /// Intersection (componentwise min + close).
  void intersect(const Zone& other);

  /// A concrete valuation inside the zone (canonical non-empty zone):
  /// clock i gets a value consistent with all difference bounds, biased
  /// toward each clock's lower bound.  Exact for the integer/decimal
  /// constants of the pattern configs.
  std::vector<double> some_point() const;

  /// Does `point` (index 0 = 0.0 implicitly; size = clocks()) satisfy
  /// every bound, with `eps` slack on non-strict bounds?
  bool contains(const std::vector<double>& point, double eps = 1e-9) const;

  std::uint64_t hash() const;
  bool operator==(const Zone& other) const;

  /// Monotone inclusion signature: sum of all (packed) entries, scaled to
  /// avoid overflow.  A ⊆ B implies signature(A) <= signature(B), so an
  /// antichain store can range-prune most subset tests on this scalar.
  std::int64_t signature() const;
  /// Same idea over row 0 only (the clocks' lower bounds) — a second,
  /// near-orthogonal prune axis: lower bounds stay finite under widening
  /// while most upper bounds go to infinity.
  std::int64_t lower_signature() const;
  /// Both signatures in one pass over the matrix.
  struct SigPair {
    std::int64_t sig = 0;
    std::int64_t lower = 0;
  };
  SigPair signatures() const;

  std::string str(const std::vector<std::string>& clock_names) const;

  /// Free-list statistics for the calling thread (bench_zone_ops):
  /// matrices handed out fresh from the heap vs. recycled.
  struct PoolStats {
    std::uint64_t heap_allocs = 0;
    std::uint64_t pool_hits = 0;
  };
  static PoolStats pool_stats();

 private:
  PackedBound& m(std::size_t i, std::size_t j) { return dbm_[i * n_ + j]; }
  const PackedBound& m(std::size_t i, std::size_t j) const { return dbm_[i * n_ + j]; }
  void close();

  PackedBound* dbm_;      // n_*n_ words from the per-thread pool
  std::uint32_t n_;       // matrix dimension = clocks + 1
  bool empty_ = false;
};

}  // namespace ptecps::verify
