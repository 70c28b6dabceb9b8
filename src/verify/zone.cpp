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
// A zone's buffer holds its matrix and then its row table, so its size
// depends on the stored dimension and on the model's clock count; buffers
// are recycled by that word count.  A successor drops and re-inserts
// clocks between a few stored dimensions, so recycling turns the
// copy/destroy churn of the checker's branching into pointer pops.
// Buffers may migrate between threads (created by a producer worker,
// retired by the consumer shard) — each retire lands in the retiring
// thread's list, which is exactly where the next copy on that thread
// needs it.
struct Pool {
  std::vector<std::vector<PackedBound*>> free_by_words;
  ~Pool() {
    for (auto& bucket : free_by_words)
      for (PackedBound* p : bucket) delete[] p;
  }
};
thread_local Pool t_pool;
constexpr std::size_t kMaxPooledWords = 128 * 128;  // matrices up to dimension 127
constexpr std::size_t kMaxBucket = 16384;

/// Words of a buffer: the dim x dim matrix, then one table byte per
/// model clock and the zero clock, padded to whole words.
std::size_t buffer_words(std::size_t dim, std::size_t clocks) {
  return dim * dim + clocks / 8 + 1;
}

PackedBound* pool_get(std::size_t words) {
  if (words < t_pool.free_by_words.size()) {
    auto& bucket = t_pool.free_by_words[words];
    if (!bucket.empty()) {
      PackedBound* p = bucket.back();
      bucket.pop_back();
      return p;
    }
  }
  return new PackedBound[words];
}

void pool_put(PackedBound* p, std::size_t words) {
  if (p == nullptr) return;
  if (words >= kMaxPooledWords) {
    delete[] p;
    return;
  }
  auto& free_by_words = t_pool.free_by_words;
  if (free_by_words.size() <= words) free_by_words.resize(words + 1);
  if (free_by_words[words].size() >= kMaxBucket) {
    delete[] p;
    return;
  }
  free_by_words[words].push_back(p);
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

Zone::Zone(std::size_t clocks) : Zone(clocks + 1, clocks, Uninitialized{}) {
  // The point "all clocks = 0": x_i - x_j <= 0 for every pair.
  std::fill(dbm_, dbm_ + std::size_t{n_} * n_, kPackedLe0);
  // Every clock stored, in order; the padding bytes stay kDropped so
  // same_layout can compare whole words.
  std::uint8_t* t = table();
  std::fill(t, t + 8 * (clocks / 8 + 1), kDropped);
  for (std::size_t c = 0; c <= clocks; ++c) t[c] = static_cast<std::uint8_t>(c);
}

Zone::Zone(std::size_t dim, std::size_t clocks, Uninitialized)
    : dbm_(nullptr),
      n_(static_cast<std::uint16_t>(dim)),
      clocks_(static_cast<std::uint16_t>(clocks)) {
  PTE_REQUIRE(clocks < kDropped, "zone: at most 254 clocks");
  dbm_ = pool_get(buffer_words(dim, clocks));
}

Zone::Zone(const Zone& other) : Zone(other.n_, other.clocks_, Uninitialized{}) {
  empty_ = other.empty_;
  std::memcpy(dbm_, other.dbm_, sizeof(PackedBound) * buffer_words(n_, clocks_));
}

Zone::Zone(Zone&& other) noexcept
    : dbm_(other.dbm_), n_(other.n_), clocks_(other.clocks_), empty_(other.empty_) {
  other.dbm_ = nullptr;
}

Zone& Zone::operator=(const Zone& other) {
  if (this == &other) return *this;
  const std::size_t words = buffer_words(other.n_, other.clocks_);
  if (dbm_ == nullptr || buffer_words(n_, clocks_) != words) {
    pool_put(dbm_, buffer_words(n_, clocks_));
    dbm_ = pool_get(words);
  }
  n_ = other.n_;
  clocks_ = other.clocks_;
  empty_ = other.empty_;
  std::memcpy(dbm_, other.dbm_, sizeof(PackedBound) * words);
  return *this;
}

Zone& Zone::operator=(Zone&& other) noexcept {
  if (this == &other) return *this;
  std::swap(dbm_, other.dbm_);
  std::swap(n_, other.n_);
  std::swap(clocks_, other.clocks_);
  empty_ = other.empty_;
  return *this;
}

Zone::~Zone() { pool_put(dbm_, buffer_words(n_, clocks_)); }

Bound Zone::at(std::size_t i, std::size_t j) const { return unpack(packed_at(i, j)); }

PackedBound Zone::packed_at(std::size_t i, std::size_t j) const {
  PTE_REQUIRE(i <= clocks_ && j <= clocks_, "zone clock index out of range");
  return entry(i, j);
}

bool Zone::same_layout(const Zone& other) const {
  if (n_ != other.n_) return false;
  const std::size_t total = std::size_t{n_} * n_;
  const PackedBound* a = dbm_ + total;
  const PackedBound* b = other.dbm_ + total;
  for (std::size_t w = 0; w <= clocks_ / 8u; ++w)
    if (a[w] != b[w]) return false;
  return true;
}

std::size_t Zone::insert(std::size_t c) {
  const std::uint8_t* t = table();
  std::size_t r = 1;  // one row past the nearest stored clock below c
  for (std::size_t b = c; b-- > 1;) {
    if (t[b] != kDropped) {
      r = t[b] + 1u;
      break;
    }
  }
  const std::size_t n = n_;
  const std::size_t dim = n + 1;
  PackedBound* out = pool_get(buffer_words(dim, clocks_));
  for (std::size_t a = 0, src = 0; a < dim; ++a) {
    PackedBound* row = out + a * dim;
    if (a == r) {  // x_c has no upper bound and no bound against other clocks
      std::fill(row, row + dim, kPackedInf);
      row[r] = kPackedLe0;
      continue;
    }
    const PackedBound* in = dbm_ + src * n;
    std::copy(in, in + r, row);
    row[r] = src == 0 ? kPackedLe0 : in[0];  // x_a - x_c <= x_a - 0 since x_c >= 0
    std::copy(in + r, in + n, row + r + 1);
    ++src;
  }
  std::uint8_t* nt = reinterpret_cast<std::uint8_t*>(out + dim * dim);
  std::memcpy(nt, t, 8 * (clocks_ / 8u + 1u));
  nt[c] = static_cast<std::uint8_t>(r);
  for (std::size_t b = c + 1; b <= clocks_; ++b)
    if (nt[b] != kDropped) ++nt[b];
  pool_put(dbm_, buffer_words(n, clocks_));
  dbm_ = out;
  n_ = static_cast<std::uint16_t>(dim);
  return r;
}

void Zone::cover(const Zone& other) {
  for (std::size_t c = 1; c <= clocks_; ++c)
    if (!stores(c) && other.stores(c)) insert(c);
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
  PTE_REQUIRE(i <= clocks_ && j <= clocks_ && i != j, "bad constraint clocks");
  if (empty_) return;
  if (w >= entry(i, j)) return;  // no tightening
  if (!stores(i)) insert(i);
  if (!stores(j)) insert(j);
  const std::size_t ri = table()[i];
  const std::size_t rj = table()[j];
  m(ri, rj) = w;
  // Incremental closure: only paths through (i, j) can improve.
  const ZoneKernels& kk = active_zone_kernels();
  const std::size_t n = n_;
  PackedBound* d = dbm_;
  const PackedBound* row_j = d + rj * n;
  for (std::size_t a = 0; a < n; ++a) {
    const PackedBound d_ai = d[a * n + ri];
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
  PTE_REQUIRE(i >= 1 && i <= clocks_, "cannot reset the zero clock");
  if (empty_) return;
  const std::size_t r = stores(i) ? table()[i] : insert(i);
  // x_i := 0 on a canonical DBM: x_i inherits the zero clock's rows.
  for (std::size_t j = 0; j < n_; ++j) {
    m(r, j) = m(0, j);
    m(j, r) = m(j, 0);
  }
  m(r, r) = kPackedLe0;
}

void Zone::free(std::size_t i) {
  PTE_REQUIRE(i >= 1 && i <= clocks_, "cannot free the zero clock");
  if (empty_ || !stores(i)) return;
  // Drop x_i's row and column: the rest of a canonical DBM is the
  // canonical projection onto the remaining clocks.
  const std::size_t r = table()[i];
  const std::size_t n = n_;
  const std::size_t dim = n - 1;
  PackedBound* out = pool_get(buffer_words(dim, clocks_));
  PackedBound* o = out;
  for (std::size_t a = 0; a < n; ++a) {
    if (a == r) continue;
    const PackedBound* in = dbm_ + a * n;
    o = std::copy(in, in + r, o);
    o = std::copy(in + r + 1, in + n, o);
  }
  std::uint8_t* nt = reinterpret_cast<std::uint8_t*>(o);
  std::memcpy(nt, table(), 8 * (clocks_ / 8u + 1u));
  nt[i] = kDropped;
  for (std::size_t c = i + 1; c <= clocks_; ++c)
    if (nt[c] != kDropped) --nt[c];
  pool_put(dbm_, buffer_words(n, clocks_));
  dbm_ = out;
  n_ = static_cast<std::uint16_t>(dim);
}

void Zone::extrapolate(double k) {
  PTE_REQUIRE(k >= 0.0, "widening constant must be non-negative");
  if (empty_) return;
  const WidenSums w =
      active_zone_kernels().widen_sum(dbm_, dbm_, n_, packed_le(k), packed_lt(-k));
  if (w.changed) close();
}

bool Zone::subset_of(const Zone& other) const {
  PTE_REQUIRE(clocks_ == other.clocks_, "zone dimension mismatch");
  if (empty_) return true;
  if (other.empty_) return false;
  if (!same_layout(other)) {
    Zone a = *this, b = other;
    a.cover(other);
    b.cover(*this);
    return a.subset_of(b);
  }
  const std::size_t total = static_cast<std::size_t>(n_) * n_;
  return active_zone_kernels().leq_all(dbm_, other.dbm_, total);
}

void Zone::intersect(const Zone& other) {
  PTE_REQUIRE(clocks_ == other.clocks_, "zone dimension mismatch");
  if (empty_) return;
  if (other.empty_) {
    empty_ = true;
    return;
  }
  cover(other);
  const std::size_t total = static_cast<std::size_t>(n_) * n_;
  if (same_layout(other)) {
    active_zone_kernels().min_inplace(dbm_, other.dbm_, total);
  } else {
    Zone wide = other;
    wide.cover(*this);
    active_zone_kernels().min_inplace(dbm_, wide.dbm_, total);
  }
  close();
}

std::vector<double> Zone::some_point() const {
  PTE_REQUIRE(!empty_, "no point in an empty zone");
  // Assign clocks one at a time, each to the smallest value consistent
  // with the zero clock and the already-assigned clocks.  Canonical DBMs
  // make this greedy assignment safe (every partial solution extends).
  std::vector<double> x(std::size_t{clocks_} + 1, 0.0);
  for (std::size_t i = 1; i <= clocks_; ++i) {
    // Lower bounds: 0 - x_i <= (0,i)  =>  x_i >= -(0,i); and for
    // assigned j: x_j - x_i <= (j,i)  =>  x_i >= x_j - (j,i).
    const PackedBound lo_b = entry(0, i);
    const PackedBound hi_b = entry(i, 0);
    double lo = -packed_value(lo_b);
    bool lo_strict = packed_strict(lo_b);
    double hi = packed_is_inf(hi_b) ? kInf : packed_value(hi_b);
    for (std::size_t j = 1; j < i; ++j) {
      const PackedBound ji = entry(j, i);
      if (!packed_is_inf(ji)) {
        const double cand = x[j] - packed_value(ji);
        if (cand > lo || (cand == lo && packed_strict(ji))) {
          lo = cand;
          lo_strict = packed_strict(ji);
        }
      }
      const PackedBound ij = entry(i, j);
      if (!packed_is_inf(ij)) {
        const double cand = x[j] + packed_value(ij);
        if (cand < hi) hi = cand;
      }
    }
    double v = lo;
    if (lo_strict) {
      // Open lower bound: nudge inside, staying below the upper bound.
      const double room = (std::isinf(hi) ? 1.0 : hi - lo);
      v = lo + std::min(1e-6, room * 0.5);
    }
    x[i] = std::max(v, 0.0);
  }
  return std::vector<double>(x.begin() + 1, x.end());
}

bool Zone::contains(const std::vector<double>& point, double eps) const {
  PTE_REQUIRE(point.size() == clocks_, "point dimension mismatch");
  if (empty_) return false;
  auto value = [&point](std::size_t i) { return i == 0 ? 0.0 : point[i - 1]; };
  for (std::size_t i = 0; i <= clocks_; ++i) {
    for (std::size_t j = 0; j <= clocks_; ++j) {
      const PackedBound b = entry(i, j);
      if (packed_is_inf(b)) continue;
      const double d = value(i) - value(j);
      const double bv = packed_value(b);
      if (packed_strict(b) ? d >= bv + eps : d > bv + eps) return false;
    }
  }
  return true;
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
  Zone out(n_, clocks_, Uninitialized{});
  const WidenSums w =
      active_zone_kernels().widen_sum(out.dbm_, dbm_, n_, packed_le(k), packed_lt(-k));
  std::memcpy(out.table(), table(), 8 * (clocks_ / 8u + 1u));
  sigs = SigPair{w.sig, w.lower};
  return out;
}

bool Zone::operator==(const Zone& other) const {
  if (clocks_ != other.clocks_ || empty_ != other.empty_) return false;
  if (!same_layout(other)) {
    Zone a = *this, b = other;
    a.cover(other);
    b.cover(*this);
    return a == b;
  }
  return std::memcmp(dbm_, other.dbm_, sizeof(PackedBound) * n_ * n_) == 0;
}

std::string Zone::str(const std::vector<std::string>& clock_names) const {
  if (empty_) return "(empty)";
  auto name = [&clock_names](std::size_t i) {
    return i - 1 < clock_names.size() ? clock_names[i - 1] : util::cat("c", i);
  };
  std::vector<std::string> parts;
  for (std::size_t i = 0; i <= clocks_; ++i) {
    for (std::size_t j = 0; j <= clocks_; ++j) {
      if (i == j || packed_is_inf(entry(i, j))) continue;
      const Bound b = unpack(entry(i, j));
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
