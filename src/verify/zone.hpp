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
// Stored clocks (the active-clock reduction of Daws & Yovine, RTSS 1996):
// a matrix has rows and columns only for the zero clock and the clocks
// that are not freed, in model-clock order; a per-zone byte table after
// the matrix maps each model clock to its row.  free(c) drops c's row and
// column, reset(c) of a dropped clock inserts it again at 0, and a
// constrain that tightens a dropped clock inserts it unconstrained first.
// A dropped clock is unconstrained apart from x_c >= 0, and every
// accessor answers in model clock indices as a full matrix would after
// free(c): row c is infinite, column c equals column 0, (0, c) is <= 0.
// Zones stored under one discrete state share one layout (the checker
// frees exactly the POR-dead clocks), so inclusion and equality compare
// entrywise; zones with different layouts are first brought to the union
// of their stored clocks.
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
/// One entry of k-widening: above `upper` (packed_le(k)) goes to
/// infinity, below `lower` (packed_lt(-k)) is raised to `lower`.
inline PackedBound packed_widen(PackedBound w, PackedBound upper, PackedBound lower) {
  return w > upper ? kPackedInf : (w < lower ? lower : w);
}

class Zone {
 public:
  /// `clocks` real clocks (indices 1..clocks; 0 is the zero clock), all
  /// stored.  Starts as the single point "all clocks = 0".
  explicit Zone(std::size_t clocks);
  Zone(const Zone& other);
  Zone(Zone&& other) noexcept;
  Zone& operator=(const Zone& other);
  Zone& operator=(Zone&& other) noexcept;
  ~Zone();

  /// Model clocks, stored or dropped.
  std::size_t clocks() const { return clocks_; }
  /// Clocks with a row and column of their own (the rest were freed).
  std::size_t stored_clocks() const { return n_ - 1u; }
  /// Does clock c (0..clocks) have a row and column?
  bool stores(std::size_t c) const { return table()[c] != kDropped; }

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
    return !empty_ && packed_add(w, entry(j, i)) >= 1;  // >= packed_le(0)
  }
  /// x_i := 0.
  void reset(std::size_t i);
  /// Remove all constraints on x_i except x_i >= 0 (backward inverse of
  /// reset): drops x_i's row and column.
  void free(std::size_t i);

  /// k-extrapolation (k >= 0): bounds beyond ±k are widened to
  /// infinity / -k, then the matrix is re-closed if anything changed.
  /// Sound for reachability when k is at least the largest constant any
  /// guard or invariant compares against; guarantees a finite zone
  /// lattice and hence termination of the search.
  void extrapolate(double k);

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

  bool operator==(const Zone& other) const;

  /// Monotone inclusion signature: sum of all stored (packed) entries,
  /// scaled to avoid overflow.  Between zones that store the same clocks,
  /// A ⊆ B implies signature(A) <= signature(B), so an antichain store
  /// can range-prune most subset tests on this scalar.
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

  /// The widening half of k-extrapolation without re-canonicalization
  /// (no Floyd–Warshall), as a new matrix, with that matrix's
  /// signatures() in `sigs` — copy, widening and sums are one pass of
  /// the active kernel table's widen_sum.  The matrix represents exactly
  /// the same set as extrapolate(k)'s — closure never changes the
  /// solution set — but its entries are no longer pairwise-shortest, so
  /// the result is only valid as the right-hand side of inclusion tests
  /// (`probe ⊆ widened` holds iff the canonical probe is entrywise <=,
  /// for ANY representation of the set) and as the left-hand side of the
  /// sufficient entrywise test subset_of().  Do not run zone operations
  /// on a widened matrix.  Requires a non-empty zone and k >= 0.
  Zone widened(double k, SigPair& sigs) const;

  std::string str(const std::vector<std::string>& clock_names) const;

 private:
  static constexpr std::uint8_t kDropped = 0xFF;  // row table: no row

  struct Uninitialized {};
  /// A buffer from the pool for a `dim`-row matrix over `clocks` model
  /// clocks, matrix and row table left for the caller.
  Zone(std::size_t dim, std::size_t clocks, Uninitialized);

  PackedBound& m(std::size_t i, std::size_t j) { return dbm_[i * n_ + j]; }
  const PackedBound& m(std::size_t i, std::size_t j) const { return dbm_[i * n_ + j]; }
  /// Model clock -> stored row (kDropped if none), right after the matrix.
  std::uint8_t* table() { return reinterpret_cast<std::uint8_t*>(dbm_ + std::size_t{n_} * n_); }
  const std::uint8_t* table() const {
    return reinterpret_cast<const std::uint8_t*>(dbm_ + std::size_t{n_} * n_);
  }
  /// packed_at without the range check.
  PackedBound entry(std::size_t i, std::size_t j) const {
    const std::uint8_t* t = table();
    const std::size_t ri = t[i], rj = t[j];
    if (ri != kDropped && rj != kDropped) return m(ri, rj);
    if (i == j) return 1;                   // packed_le(0)
    if (ri == kDropped) return kPackedInf;  // nothing bounds a dropped x_i from above
    return ri == 0 ? 1 : m(ri, 0);          // x_i - x_j <= x_i since x_j >= 0
  }
  bool same_layout(const Zone& other) const;
  /// Give dropped clock c a row and column again, unconstrained
  /// (x_c >= 0 only); returns its row.
  std::size_t insert(std::size_t c);
  /// Insert every clock `other` stores and this zone does not.
  void cover(const Zone& other);
  void close();

  PackedBound* dbm_;        // n_*n_ words, then the row table, from the pool
  std::uint16_t n_;         // matrix dimension = stored clocks + 1
  std::uint16_t clocks_;    // model clocks
  bool empty_ = false;
};

}  // namespace ptecps::verify
