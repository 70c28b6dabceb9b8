#include "verify/zone.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/require.hpp"
#include "util/text.hpp"
#include "verify/zone_kernels.hpp"

namespace ptecps::verify {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr PackedBound kPackedLe0 = 1;  // packed_le(0.0)

// -- per-thread matrix free list --------------------------------------------
// All zones of one exploration share a single dimension, so recycling by
// dimension turns the copy/destroy churn of the checker's branching into
// pointer pops.  Buffers may migrate between threads (created by a
// producer worker, retired by the consumer shard) — each retire lands in
// the retiring thread's list, which is exactly where the next copy on
// that thread needs it.
struct Pool {
  std::vector<std::vector<PackedBound*>> free_by_dim;
  Zone::PoolStats stats;
  ~Pool() {
    for (auto& bucket : free_by_dim)
      for (PackedBound* p : bucket) delete[] p;
  }
};
thread_local Pool t_pool;
constexpr std::size_t kMaxPooledDim = 128;
constexpr std::size_t kMaxBucket = 16384;

PackedBound* pool_get(std::size_t n) {
  if (n < t_pool.free_by_dim.size()) {
    auto& bucket = t_pool.free_by_dim[n];
    if (!bucket.empty()) {
      ++t_pool.stats.pool_hits;
      PackedBound* p = bucket.back();
      bucket.pop_back();
      return p;
    }
  }
  ++t_pool.stats.heap_allocs;
  return new PackedBound[n * n];
}

void pool_put(PackedBound* p, std::size_t n) {
  if (p == nullptr) return;
  if (n >= kMaxPooledDim) {
    delete[] p;
    return;
  }
  auto& free_by_dim = t_pool.free_by_dim;
  if (free_by_dim.size() <= n) free_by_dim.resize(n + 1);
  if (free_by_dim[n].size() >= kMaxBucket) {
    delete[] p;
    return;
  }
  free_by_dim[n].push_back(p);
}

}  // namespace

Bound Bound::inf() { return Bound{kInf, true}; }

bool Bound::is_inf() const { return std::isinf(value); }

Bound bound_min(const Bound& a, const Bound& b) { return bound_lt(a, b) ? a : b; }

Bound bound_add(const Bound& a, const Bound& b) {
  if (a.is_inf() || b.is_inf()) return Bound::inf();
  return Bound{a.value + b.value, a.strict || b.strict};
}

bool bound_lt(const Bound& a, const Bound& b) {
  if (a.value != b.value) return a.value < b.value;
  return a.strict && !b.strict;
}

PackedBound packed_bound(double value, bool strict) {
  if (std::isinf(value)) return kPackedInf;
  // |value| < 2^25 s keeps any sum of two finite words below the
  // infinity clamp (a year of simulated time is ~2^21.6 s).
  PTE_REQUIRE(std::abs(value) < 33554432.0, "zone bound out of packable range");
  const PackedBound fixed = std::llround(value * kPackedScale);
  return (fixed << 1) | (strict ? 0 : 1);
}

PackedBound pack(const Bound& b) { return packed_bound(b.value, b.strict); }

Bound unpack(PackedBound w) {
  if (packed_is_inf(w)) return Bound::inf();
  return Bound{packed_value(w), packed_strict(w)};
}

Zone::Zone(std::size_t clocks)
    : dbm_(pool_get(clocks + 1)), n_(static_cast<std::uint32_t>(clocks + 1)) {
  // The point "all clocks = 0": x_i - x_j <= 0 for every pair.
  std::fill(dbm_, dbm_ + static_cast<std::size_t>(n_) * n_, kPackedLe0);
}

Zone::Zone(std::uint32_t dim, Uninitialized) : dbm_(pool_get(dim)), n_(dim) {}

Zone::Zone(const Zone& other)
    : dbm_(pool_get(other.n_)), n_(other.n_), empty_(other.empty_) {
  std::memcpy(dbm_, other.dbm_, sizeof(PackedBound) * n_ * n_);
}

Zone::Zone(Zone&& other) noexcept : dbm_(other.dbm_), n_(other.n_), empty_(other.empty_) {
  other.dbm_ = nullptr;
}

Zone& Zone::operator=(const Zone& other) {
  if (this == &other) return *this;
  if (dbm_ == nullptr || n_ != other.n_) {
    pool_put(dbm_, n_);
    dbm_ = pool_get(other.n_);
  }
  n_ = other.n_;
  empty_ = other.empty_;
  std::memcpy(dbm_, other.dbm_, sizeof(PackedBound) * n_ * n_);
  return *this;
}

Zone& Zone::operator=(Zone&& other) noexcept {
  if (this == &other) return *this;
  std::swap(dbm_, other.dbm_);
  std::swap(n_, other.n_);
  empty_ = other.empty_;
  return *this;
}

Zone::~Zone() { pool_put(dbm_, n_); }

Zone::PoolStats Zone::pool_stats() { return t_pool.stats; }

Bound Zone::at(std::size_t i, std::size_t j) const { return unpack(packed_at(i, j)); }

PackedBound Zone::packed_at(std::size_t i, std::size_t j) const {
  PTE_REQUIRE(i < n_ && j < n_, "zone clock index out of range");
  return m(i, j);
}

void Zone::close() {
  // Floyd–Warshall shortest paths over the packed-bound semiring: the
  // inner loop is add + clamp + min over contiguous words, dispatched to
  // the active (scalar or SIMD) kernel table.
  const ZoneKernels& kk = active_zone_kernels();
  const std::size_t n = n_;
  PackedBound* d = dbm_;
  for (std::size_t k = 0; k < n; ++k) {
    const PackedBound* row_k = d + k * n;
    for (std::size_t i = 0; i < n; ++i) {
      const PackedBound d_ik = d[i * n + k];
      if (packed_is_inf(d_ik)) continue;
      kk.min_plus_row(d + i * n, row_k, d_ik, n);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (d[i * n + i] < kPackedLe0) {
      empty_ = true;
      return;
    }
    d[i * n + i] = kPackedLe0;
  }
}

void Zone::up() {
  if (empty_) return;
  for (std::size_t i = 1; i < n_; ++i) m(i, 0) = kPackedInf;
  // Still canonical: differences and lower bounds are untouched, and no
  // path through the removed upper bounds can tighten anything.
}

void Zone::down() {
  if (empty_) return;
  // Bengtsson & Yi Fig. 10: lower bounds relax to 0 unless a difference
  // constraint through another clock keeps them up.
  for (std::size_t i = 1; i < n_; ++i) {
    m(0, i) = kPackedLe0;
    for (std::size_t j = 1; j < n_; ++j) {
      if (m(j, i) < m(0, i)) m(0, i) = m(j, i);
    }
  }
  close();
}

void Zone::constrain(std::size_t i, std::size_t j, PackedBound w) {
  PTE_REQUIRE(i < n_ && j < n_ && i != j, "bad constraint clocks");
  if (empty_) return;
  if (w >= m(i, j)) return;  // no tightening
  m(i, j) = w;
  // Incremental closure: only paths through (i, j) can improve.
  const ZoneKernels& kk = active_zone_kernels();
  const std::size_t n = n_;
  PackedBound* d = dbm_;
  const PackedBound* row_j = d + j * n;
  for (std::size_t a = 0; a < n; ++a) {
    const PackedBound d_ai = d[a * n + i];
    if (packed_is_inf(d_ai)) continue;
    const PackedBound through = packed_add(d_ai, w);
    kk.min_plus_row(d + a * n, row_j, through, n);
  }
  for (std::size_t a = 0; a < n; ++a) {
    if (d[a * n + a] < kPackedLe0) {
      empty_ = true;
      return;
    }
  }
}

void Zone::constrain(std::size_t i, std::size_t j, const Bound& b) {
  constrain(i, j, pack(b));
}

void Zone::reset(std::size_t i) {
  PTE_REQUIRE(i >= 1 && i < n_, "cannot reset the zero clock");
  if (empty_) return;
  // x_i := 0 on a canonical DBM: x_i inherits the zero clock's rows.
  for (std::size_t j = 0; j < n_; ++j) {
    m(i, j) = m(0, j);
    m(j, i) = m(j, 0);
  }
  m(i, i) = kPackedLe0;
}

void Zone::free(std::size_t i) {
  PTE_REQUIRE(i >= 1 && i < n_, "cannot free the zero clock");
  if (empty_) return;
  for (std::size_t j = 0; j < n_; ++j) {
    if (j == i) continue;
    m(i, j) = kPackedInf;
    m(j, i) = m(j, 0);  // x_j - x_i <= x_j - 0 since x_i >= 0
  }
  m(0, i) = kPackedLe0;
}

void Zone::extrapolate(double k) {
  PTE_REQUIRE(k >= 0.0, "widening constant must be non-negative");
  if (empty_) return;
  const WidenSums w =
      active_zone_kernels().widen_sum(dbm_, dbm_, n_, packed_le(k), packed_lt(-k));
  if (w.changed) close();
}

bool Zone::subset_of(const Zone& other) const {
  PTE_REQUIRE(n_ == other.n_, "zone dimension mismatch");
  if (empty_) return true;
  if (other.empty_) return false;
  const std::size_t total = static_cast<std::size_t>(n_) * n_;
  return active_zone_kernels().leq_all(dbm_, other.dbm_, total);
}

void Zone::intersect(const Zone& other) {
  PTE_REQUIRE(n_ == other.n_, "zone dimension mismatch");
  if (empty_) return;
  if (other.empty_) {
    empty_ = true;
    return;
  }
  const std::size_t total = static_cast<std::size_t>(n_) * n_;
  active_zone_kernels().min_inplace(dbm_, other.dbm_, total);
  close();
}

std::vector<double> Zone::some_point() const {
  PTE_REQUIRE(!empty_, "no point in an empty zone");
  // Assign clocks one at a time, each to the smallest value consistent
  // with the zero clock and the already-assigned clocks.  Canonical DBMs
  // make this greedy assignment safe (every partial solution extends).
  std::vector<double> x(n_, 0.0);
  for (std::size_t i = 1; i < n_; ++i) {
    // Lower bounds: 0 - x_i <= m(0,i)  =>  x_i >= -m(0,i); and for
    // assigned j: x_j - x_i <= m(j,i)  =>  x_i >= x_j - m(j,i).
    double lo = -packed_value(m(0, i));
    bool lo_strict = packed_strict(m(0, i));
    double hi = packed_is_inf(m(i, 0)) ? kInf : packed_value(m(i, 0));
    bool hi_strict = packed_is_inf(m(i, 0)) ? false : packed_strict(m(i, 0));
    for (std::size_t j = 1; j < i; ++j) {
      if (!packed_is_inf(m(j, i))) {
        const double cand = x[j] - packed_value(m(j, i));
        if (cand > lo || (cand == lo && packed_strict(m(j, i)))) {
          lo = cand;
          lo_strict = packed_strict(m(j, i));
        }
      }
      if (!packed_is_inf(m(i, j))) {
        const double cand = x[j] + packed_value(m(i, j));
        if (cand < hi || (cand == hi && packed_strict(m(i, j)))) {
          hi = cand;
          hi_strict = packed_strict(m(i, j));
        }
      }
    }
    double v = lo;
    if (lo_strict) {
      // Open lower bound: nudge inside, staying below the upper bound.
      const double room = (std::isinf(hi) ? 1.0 : hi - lo);
      v = lo + std::min(1e-6, room * 0.5);
    }
    (void)hi_strict;
    x[i] = std::max(v, 0.0);
  }
  return std::vector<double>(x.begin() + 1, x.end());
}

bool Zone::contains(const std::vector<double>& point, double eps) const {
  PTE_REQUIRE(point.size() == n_ - 1, "point dimension mismatch");
  if (empty_) return false;
  auto value = [&point](std::size_t i) { return i == 0 ? 0.0 : point[i - 1]; };
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      const PackedBound b = m(i, j);
      if (packed_is_inf(b)) continue;
      const double d = value(i) - value(j);
      const double bv = packed_value(b);
      if (packed_strict(b) ? d >= bv + eps : d > bv + eps) return false;
    }
  }
  return true;
}

std::uint64_t Zone::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(empty_ ? 1 : 0);
  const std::size_t total = static_cast<std::size_t>(n_) * n_;
  for (std::size_t idx = 0; idx < total; ++idx)
    mix(static_cast<std::uint64_t>(dbm_[idx]));
  return h;
}

std::int64_t Zone::signature() const {
  // Entry words are < 2^62; >> 16 keeps the sum of up to 2^16 entries
  // below 2^62.  Arithmetic shift is monotone, so pointwise <= (zone
  // inclusion of non-empty canonical zones) implies signature <=.
  const std::size_t total = static_cast<std::size_t>(n_) * n_;
  return active_zone_kernels().shift_sum(dbm_, total, 16);
}

std::int64_t Zone::lower_signature() const {
  return active_zone_kernels().shift_sum(dbm_, n_, 8);
}

Zone::SigPair Zone::signatures() const {
  SigPair p;
  const ZoneKernels& kk = active_zone_kernels();
  const std::size_t total = static_cast<std::size_t>(n_) * n_;
  p.sig = kk.shift_sum(dbm_, total, 16);
  p.lower = kk.shift_sum(dbm_, n_, 8);
  return p;
}

Zone Zone::widened(double k, SigPair& sigs) const {
  PTE_REQUIRE(!empty_, "cannot widen an empty zone");
  PTE_REQUIRE(k >= 0.0, "widening constant must be non-negative");
  Zone out(n_, Uninitialized{});
  const WidenSums w =
      active_zone_kernels().widen_sum(out.dbm_, dbm_, n_, packed_le(k), packed_lt(-k));
  sigs = SigPair{w.sig, w.lower};
  return out;
}

bool Zone::operator==(const Zone& other) const {
  return n_ == other.n_ && empty_ == other.empty_ &&
         std::memcmp(dbm_, other.dbm_, sizeof(PackedBound) * n_ * n_) == 0;
}

std::string Zone::str(const std::vector<std::string>& clock_names) const {
  if (empty_) return "(empty)";
  auto name = [&clock_names](std::size_t i) {
    return i - 1 < clock_names.size() ? clock_names[i - 1] : util::cat("c", i);
  };
  std::vector<std::string> parts;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      if (i == j || packed_is_inf(m(i, j))) continue;
      const Bound b = unpack(m(i, j));
      if (i == 0) {  // 0 - x_j <= c  =>  x_j >= -c
        if (b.value == 0.0 && !b.strict) continue;
        parts.push_back(util::cat(name(j), b.strict ? " > " : " >= ",
                                  util::fmt_compact(-b.value)));
      } else if (j == 0) {  // x_i <= c
        parts.push_back(util::cat(name(i), b.strict ? " < " : " <= ",
                                  util::fmt_compact(b.value)));
      } else {
        parts.push_back(util::cat(name(i), " - ", name(j), b.strict ? " < " : " <= ",
                                  util::fmt_compact(b.value)));
      }
    }
  }
  return util::join(parts, ", ");
}

}  // namespace ptecps::verify
