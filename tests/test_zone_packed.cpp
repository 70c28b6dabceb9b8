// Property tests for the packed zone engine and the subsumption store:
//
//  * packed-bound arithmetic (bound_min / bound_add / bound_lt, infinity
//    handling) agrees with the double+bool reference representation on
//    randomized inputs drawn from the packable grid;
//  * inclusion signatures are monotone under zone inclusion;
//  * a zone, which keeps rows only for the clocks it stores, answers
//    every packed_at, is_empty, subset_of, intersect and == like a dense
//    full-matrix reference DBM on random operation sequences, also
//    between zones that store different clocks;
//  * the antichain subsumption store never loses a reachable violation:
//    randomized small timed models are cross-checked against the naive
//    exact-equality store (VerifyOptions::subsumption = false), and both
//    must agree on the verdict;
//  * the AVX2 kernel table computes bit-identical results to the scalar
//    reference, both on raw randomized packed matrices and through a full
//    verification run, and the fused widening kernel matches the
//    widen-then-sum it replaced on both arms;
//  * partial-order reduction preserves verdicts and counterexamples on
//    randomized models while never storing more states;
//  * parallel exploration is bit-identical across thread counts, and
//    threads = 0 resolves to hardware concurrency.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "campaign/scenario.hpp"
#include "core/config.hpp"
#include "fuzz/grammar.hpp"
#include "scenarios/builder.hpp"
#include "sim/random.hpp"
#include "verify/checker.hpp"
#include "verify/model.hpp"
#include "verify/replay.hpp"
#include "verify/zone.hpp"
#include "verify/zone_kernels.hpp"

namespace ptecps::verify {
namespace {

// ---------------------------------------------------------------------------
// Packed-bound arithmetic vs. the double+bool reference
// ---------------------------------------------------------------------------

/// A random bound on the packable grid (value = k * 2^-32 s), sometimes
/// infinite.  Grid values round-trip exactly through pack/unpack, which
/// is what makes exact agreement with the reference well-defined.
Bound random_bound(sim::Rng& rng) {
  if (rng.bernoulli(0.1)) return Bound::inf();
  // Fixed-point numerator in ±2^40 (values up to ~256 s, well inside the
  // packable range) — biased toward small "model-like" magnitudes.
  const std::int64_t fixed = static_cast<std::int64_t>(rng.uniform_int(1ull << 41)) -
                             (std::int64_t{1} << 40);
  const double value = static_cast<double>(fixed) / kPackedScale;
  return rng.bernoulli(0.5) ? Bound::lt(value) : Bound::le(value);
}

TEST(PackedBound, RoundTripsGridValues) {
  sim::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const Bound b = random_bound(rng);
    const PackedBound w = pack(b);
    const Bound back = unpack(w);
    if (b.is_inf()) {
      EXPECT_TRUE(back.is_inf());
      EXPECT_TRUE(packed_is_inf(w));
    } else {
      EXPECT_EQ(back, b) << b.value << (b.strict ? " <" : " <=");
      EXPECT_FALSE(packed_is_inf(w));
      EXPECT_EQ(packed_strict(w), b.strict);
      EXPECT_DOUBLE_EQ(packed_value(w), b.value);
    }
  }
}

TEST(PackedBound, OrderingMatchesReference) {
  sim::Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    const Bound a = random_bound(rng);
    const Bound b = random_bound(rng);
    const PackedBound wa = pack(a), wb = pack(b);
    // Reference bound_lt treats two infinities as equal (both strict);
    // packed infinity is one canonical word, same behavior.
    EXPECT_EQ(packed_tighter(wa, wb), bound_lt(a, b))
        << a.value << "/" << a.strict << " vs " << b.value << "/" << b.strict;
    EXPECT_EQ(packed_min(wa, wb), pack(bound_min(a, b)));
  }
}

TEST(PackedBound, AdditionMatchesReference) {
  sim::Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    const Bound a = random_bound(rng);
    const Bound b = random_bound(rng);
    const Bound ref = bound_add(a, b);
    const PackedBound sum = packed_add(pack(a), pack(b));
    if (ref.is_inf()) {
      EXPECT_TRUE(packed_is_inf(sum));
    } else {
      // Grid + grid is exact: the packed sum must equal the packed
      // reference sum bit for bit.
      EXPECT_EQ(sum, pack(ref)) << a.value << " + " << b.value;
    }
  }
}

TEST(PackedBound, InfinityIsAbsorbingAndLoosest) {
  const PackedBound inf = kPackedInf;
  const PackedBound tight = packed_lt(-100.0);
  const PackedBound loose = packed_le(100.0);
  EXPECT_TRUE(packed_is_inf(packed_add(inf, tight)));
  EXPECT_TRUE(packed_is_inf(packed_add(inf, inf)));
  EXPECT_TRUE(packed_tighter(loose, inf));
  EXPECT_TRUE(packed_tighter(tight, loose));
  EXPECT_EQ(packed_min(inf, loose), loose);
}

// ---------------------------------------------------------------------------
// Inclusion signatures
// ---------------------------------------------------------------------------

Zone random_zone(std::size_t clocks, sim::Rng& rng) {
  Zone z(clocks);
  z.up();
  for (std::size_t c = 0; c < 1 + rng.uniform_int(3); ++c)
    z.constrain(1 + rng.uniform_int(clocks), 0,
                packed_le(1.0 + static_cast<double>(rng.uniform_int(50))));
  for (std::size_t r = 0; r < rng.uniform_int(3); ++r)
    z.reset(1 + rng.uniform_int(clocks));
  if (rng.bernoulli(0.5)) z.up();
  return z;
}

TEST(ZoneSignature, MonotoneUnderInclusion) {
  sim::Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t clocks = 2 + rng.uniform_int(6);
    Zone big = random_zone(clocks, rng);
    if (big.is_empty()) continue;
    Zone small = big;
    small.constrain(1 + rng.uniform_int(clocks), 0,
                    packed_le(0.5 + static_cast<double>(rng.uniform_int(20))));
    if (small.is_empty()) continue;
    ASSERT_TRUE(small.subset_of(big));
    EXPECT_LE(small.signature(), big.signature());
    EXPECT_LE(small.lower_signature(), big.lower_signature());
  }
}

TEST(ZoneWiden, RepresentsTheExtrapolatedSet) {
  // probe ⊆ widened(z)  must agree with  probe ⊆ extrapolate(z): the
  // widened matrix is a non-canonical representation of the same set,
  // and inclusion only needs the probe canonical.
  sim::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t clocks = 2 + rng.uniform_int(4);
    const double k = 10.0;
    Zone z = random_zone(clocks, rng);
    if (z.is_empty()) continue;
    Zone::SigPair sigs;
    const Zone widened = z.widened(k, sigs);
    Zone extrapolated = z;
    extrapolated.extrapolate(k);
    const Zone probe = random_zone(clocks, rng);
    if (probe.is_empty()) continue;
    EXPECT_EQ(probe.subset_of(widened), probe.subset_of(extrapolated)) << i;
  }
}

// ---------------------------------------------------------------------------
// Stored clocks: Zone vs. a dense full-matrix reference
// ---------------------------------------------------------------------------

/// The differential oracle: a dense (clocks+1)^2 DBM in which every
/// clock keeps its row and column.  free() writes the freed pattern into
/// them (row c infinite, column c equal to column 0, (0, c) <= 0) and
/// reset() copies row and column 0, the textbook full-matrix rules.
/// `freed` tracks which clocks a Zone should have dropped.
class DenseDbm {
 public:
  explicit DenseDbm(std::size_t clocks)
      : n_(clocks + 1), d_(n_ * n_, packed_le(0.0)), freed_(n_, false) {}

  PackedBound at(std::size_t i, std::size_t j) const { return d_[i * n_ + j]; }
  bool empty() const { return empty_; }
  bool freed(std::size_t c) const { return freed_[c]; }

  void up() {
    if (empty_) return;
    for (std::size_t i = 1; i < n_; ++i) m(i, 0) = kPackedInf;
    // Here the full matrix lets a freed clock's column lag behind column
    // 0 (x_j - x_c keeps x_j's old upper bound), a constraint on a clock
    // nothing reads.  A Zone has no column to lag, and the checker frees
    // every dead clock again at each successor, so the oracle frees it
    // again too.
    for (std::size_t c = 1; c < n_; ++c)
      if (freed_[c]) write_free(c);
  }

  void constrain(std::size_t i, std::size_t j, PackedBound w) {
    if (empty_ || w >= m(i, j)) return;
    freed_[i] = freed_[j] = false;
    m(i, j) = w;
    for (std::size_t a = 0; a < n_; ++a) {
      if (packed_is_inf(m(a, i))) continue;
      const PackedBound through = packed_add(m(a, i), w);
      for (std::size_t b = 0; b < n_; ++b)
        m(a, b) = packed_min(m(a, b), packed_add(through, m(j, b)));
    }
    for (std::size_t a = 0; a < n_; ++a)
      if (m(a, a) < packed_le(0.0)) empty_ = true;
  }

  void reset(std::size_t i) {
    if (empty_) return;
    freed_[i] = false;
    for (std::size_t j = 0; j < n_; ++j) {
      m(i, j) = m(0, j);
      m(j, i) = m(j, 0);
    }
    m(i, i) = packed_le(0.0);
  }

  void free(std::size_t i) {
    if (empty_) return;
    freed_[i] = true;
    write_free(i);
  }

  void extrapolate(double k) {
    if (empty_) return;
    if (widen(k)) close();
  }

  DenseDbm widened(double k) const {
    DenseDbm w = *this;
    w.widen(k);
    return w;
  }

  bool subset_of(const DenseDbm& o) const {
    if (empty_) return true;
    if (o.empty_) return false;
    for (std::size_t idx = 0; idx < d_.size(); ++idx)
      if (d_[idx] > o.d_[idx]) return false;
    return true;
  }

  void intersect(const DenseDbm& o) {
    if (empty_) return;
    if (o.empty_) {
      empty_ = true;
      return;
    }
    for (std::size_t idx = 0; idx < d_.size(); ++idx) d_[idx] = packed_min(d_[idx], o.d_[idx]);
    for (std::size_t c = 0; c < n_; ++c) freed_[c] = freed_[c] && o.freed_[c];
    close();
  }

  bool operator==(const DenseDbm& o) const { return empty_ == o.empty_ && d_ == o.d_; }

 private:
  PackedBound& m(std::size_t i, std::size_t j) { return d_[i * n_ + j]; }
  PackedBound m(std::size_t i, std::size_t j) const { return d_[i * n_ + j]; }

  void write_free(std::size_t c) {
    for (std::size_t j = 0; j < n_; ++j) {
      if (j == c) continue;
      m(c, j) = kPackedInf;
      m(j, c) = m(j, 0);
    }
    m(0, c) = packed_le(0.0);
  }

  bool widen(double k) {
    bool changed = false;
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = 0; j < n_; ++j) {
        const PackedBound w = packed_widen(m(i, j), packed_le(k), packed_lt(-k));
        changed |= w != m(i, j);
        m(i, j) = w;
      }
    }
    return changed;
  }

  void close() {
    for (std::size_t k = 0; k < n_; ++k) {
      for (std::size_t i = 0; i < n_; ++i) {
        const PackedBound d_ik = m(i, k);
        if (packed_is_inf(d_ik)) continue;
        for (std::size_t j = 0; j < n_; ++j)
          m(i, j) = packed_min(m(i, j), packed_add(d_ik, m(k, j)));
      }
    }
    for (std::size_t i = 0; i < n_; ++i) {
      if (m(i, i) < packed_le(0.0)) {
        empty_ = true;
        return;
      }
      m(i, i) = packed_le(0.0);
    }
  }

  std::size_t n_;
  std::vector<PackedBound> d_;
  std::vector<bool> freed_;
  bool empty_ = false;
};

/// Every packed_at, is_empty and the stored set agree with the oracle
/// (entries of an empty zone are unspecified).
::testing::AssertionResult matches(const Zone& z, const DenseDbm& ref) {
  if (z.is_empty() != ref.empty())
    return ::testing::AssertionFailure() << "is_empty " << z.is_empty();
  if (z.is_empty()) return ::testing::AssertionSuccess();
  for (std::size_t i = 0; i <= z.clocks(); ++i) {
    if (i > 0 && z.stores(i) == ref.freed(i))
      return ::testing::AssertionFailure() << "clock " << i << " stored " << z.stores(i);
    for (std::size_t j = 0; j <= z.clocks(); ++j)
      if (z.packed_at(i, j) != ref.at(i, j))
        return ::testing::AssertionFailure() << "entry (" << i << ", " << j << "): "
                                             << z.packed_at(i, j) << " vs " << ref.at(i, j);
  }
  return ::testing::AssertionSuccess();
}

/// A random zone constraint on clocks 0..clocks: an upper, a lower or a
/// difference bound from a small grid, strict or not.
void random_constraint(std::size_t clocks, sim::Rng& rng, std::size_t& i, std::size_t& j,
                       PackedBound& w) {
  i = rng.uniform_int(clocks + 1);
  do j = rng.uniform_int(clocks + 1);
  while (j == i);
  const double v = static_cast<double>(rng.uniform_int(25)) - (j == 0 ? 0.0 : 12.0);
  w = rng.bernoulli(0.5) ? packed_lt(v) : packed_le(v);
}

TEST(ZoneStoredClocks, MatchesDenseReferenceOnRandomSequences) {
  sim::Rng rng(11);
  const double k = 10.0;
  int union_pairs = 0, union_subsets = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const std::size_t clocks = 1 + rng.uniform_int(12);
    Zone z(clocks);
    DenseDbm ref(clocks);
    // Snapshots from earlier in the sequence: they usually store other
    // clocks, which sends subset_of, intersect and == down the union path.
    std::vector<std::pair<Zone, DenseDbm>> snaps;
    for (int step = 0; step < 40 && !z.is_empty(); ++step) {
      const std::size_t c = 1 + rng.uniform_int(clocks);
      const std::uint64_t op = rng.uniform_int(10);
      SCOPED_TRACE(::testing::Message() << "trial " << trial << ", step " << step << ", op "
                                        << op << ", clock " << c << " of " << clocks);
      if (op <= 1) {
        z.up();
        ref.up();
      } else if (op <= 4) {
        std::size_t i, j;
        PackedBound w;
        random_constraint(clocks, rng, i, j, w);
        z.constrain(i, j, w);
        ref.constrain(i, j, w);
      } else if (op <= 5) {
        z.reset(c);
        ref.reset(c);
      } else if (op <= 7) {
        z.free(c);
        ref.free(c);
      } else if (op == 8) {
        z.extrapolate(k);
        ref.extrapolate(k);
      } else {
        Zone::SigPair sigs;
        const Zone w = z.widened(k, sigs);
        ASSERT_TRUE(matches(w, ref.widened(k)));
        EXPECT_EQ(sigs.sig, w.signature());
        EXPECT_EQ(sigs.lower, w.lower_signature());
      }
      ASSERT_TRUE(matches(z, ref));
      if (z.is_empty()) break;

      for (const auto& [sz, sref] : snaps) {
        bool differ = false;
        for (std::size_t cc = 1; cc <= clocks; ++cc) differ |= sz.stores(cc) != z.stores(cc);
        union_pairs += differ;
        EXPECT_EQ(sz.subset_of(z), sref.subset_of(ref));
        EXPECT_EQ(z.subset_of(sz), ref.subset_of(sref));
        union_subsets += differ && sz.subset_of(z);
        EXPECT_EQ(sz == z, sref == ref);
        Zone meet = sz;
        DenseDbm meet_ref = sref;
        meet.intersect(z);
        meet_ref.intersect(ref);
        ASSERT_TRUE(matches(meet, meet_ref));
      }
      if (rng.bernoulli(0.2) && snaps.size() < 4) snaps.emplace_back(z, ref);
    }
  }
  // The union path must actually run, with both answers.
  EXPECT_GE(union_pairs, 10000);
  EXPECT_GE(union_subsets, 1000);
}

TEST(ZoneStoredClocks, EqualSetsCompareEqualAcrossLayouts) {
  // x1 in [0, 3] with x2 dropped, against the same set storing x2 as an
  // unconstrained clock: x2 <= 50 is inserted, then widened away at k = 10.
  Zone dropped(2);
  dropped.up();
  dropped.constrain(1, 0, packed_le(3.0));
  dropped.free(2);
  Zone stored = dropped;
  stored.constrain(2, 0, packed_le(50.0));
  stored.extrapolate(10.0);
  ASSERT_FALSE(dropped.stores(2));
  ASSERT_TRUE(stored.stores(2));
  EXPECT_EQ(dropped.stored_clocks(), 1u);
  EXPECT_EQ(stored.stored_clocks(), 2u);
  EXPECT_TRUE(dropped == stored);
  EXPECT_TRUE(stored == dropped);
  EXPECT_TRUE(dropped.subset_of(stored));
  EXPECT_TRUE(stored.subset_of(dropped));
  // A dropped clock reads like a freed full matrix: no upper bound, no
  // bound against other clocks, x_c >= 0, and x_j - x_c <= x_j's bound.
  EXPECT_TRUE(packed_is_inf(dropped.packed_at(2, 0)));
  EXPECT_TRUE(packed_is_inf(dropped.packed_at(2, 1)));
  EXPECT_EQ(dropped.packed_at(0, 2), packed_le(0.0));
  EXPECT_EQ(dropped.packed_at(1, 2), packed_le(3.0));
  EXPECT_EQ(dropped.packed_at(2, 2), packed_le(0.0));
}

// ---------------------------------------------------------------------------
// SIMD kernels vs. the scalar reference
// ---------------------------------------------------------------------------

TEST(ZoneKernels, Avx2MatchesScalarOnRandomMatrices) {
  const ZoneKernels* simd = avx2_zone_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no AVX2 on this CPU/build";
  const ZoneKernels& scalar = scalar_zone_kernels();
  sim::Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    // Lengths 1..41 cover every vector/tail split (4 lanes per iteration).
    const std::size_t n = 1 + rng.uniform_int(41);
    std::vector<std::int64_t> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = pack(random_bound(rng));
      b[i] = pack(random_bound(rng));
    }
    Bound d;
    do d = random_bound(rng);
    while (d.is_inf());  // min_plus_row's contract: d_ik finite
    const PackedBound d_ik = pack(d);

    std::vector<std::int64_t> s_row = a, v_row = a;
    scalar.min_plus_row(s_row.data(), b.data(), d_ik, n);
    simd->min_plus_row(v_row.data(), b.data(), d_ik, n);
    EXPECT_EQ(s_row, v_row) << "min_plus_row, n=" << n;

    // The aliased call close() makes for row i == row k.
    std::vector<std::int64_t> s_alias = a, v_alias = a;
    scalar.min_plus_row(s_alias.data(), s_alias.data(), d_ik, n);
    simd->min_plus_row(v_alias.data(), v_alias.data(), d_ik, n);
    EXPECT_EQ(s_alias, v_alias) << "aliased min_plus_row, n=" << n;

    EXPECT_EQ(scalar.leq_all(a.data(), b.data(), n),
              simd->leq_all(a.data(), b.data(), n));
    EXPECT_TRUE(simd->leq_all(a.data(), a.data(), n));

    std::vector<std::int64_t> s_min = a, v_min = a;
    scalar.min_inplace(s_min.data(), b.data(), n);
    simd->min_inplace(v_min.data(), b.data(), n);
    EXPECT_EQ(s_min, v_min) << "min_inplace, n=" << n;

    EXPECT_EQ(scalar.shift_sum(a.data(), n, 16), simd->shift_sum(a.data(), n, 16));
    EXPECT_EQ(scalar.shift_sum(a.data(), n, 8), simd->shift_sum(a.data(), n, 8));
  }
}

/// The store's widening before widen_sum fused it with the copy and the
/// signatures: the off-diagonal finite entries above packed_le(k) go to
/// infinity, those below packed_lt(-k) are raised to it; then
/// signatures() summed the result in two more passes.
WidenSums widen_then_signatures(std::vector<std::int64_t>& d, std::size_t n, double k) {
  const PackedBound upper = packed_le(k);
  const PackedBound lower = packed_lt(-k);
  WidenSums out;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::int64_t& b = d[i * n + j];
      if (i == j || packed_is_inf(b)) continue;
      if (b > upper) {
        b = kPackedInf;
        out.changed = true;
      } else if (b < lower) {
        b = lower;
        out.changed = true;
      }
    }
  }
  out.sig = scalar_zone_kernels().shift_sum(d.data(), n * n, 16);
  out.lower = scalar_zone_kernels().shift_sum(d.data(), n, 8);
  return out;
}

TEST(ZoneKernels, WidenSumMatchesWidenThenSignaturesOnEveryArm) {
  std::vector<const ZoneKernels*> arms = {&scalar_zone_kernels()};
  if (const ZoneKernels* simd = avx2_zone_kernels()) arms.push_back(simd);
  sim::Rng rng(10);
  for (int trial = 0; trial < 2000; ++trial) {
    // Dimensions 1..12 leave every tail the 4-lane loops can leave, in
    // row 0 and in the rest of the matrix.  A canonical zone's diagonal
    // is packed_le(0); the rest are random bounds (some infinite, many
    // beyond ±k).
    const std::size_t n = 1 + rng.uniform_int(12);
    const double k = static_cast<double>(rng.uniform_int(64));
    std::vector<std::int64_t> src(n * n);
    for (std::size_t idx = 0; idx < n * n; ++idx)
      src[idx] = idx % (n + 1) == 0 ? packed_le(0.0) : pack(random_bound(rng));
    std::vector<std::int64_t> expected = src;
    const WidenSums want = widen_then_signatures(expected, n, k);
    for (const ZoneKernels* arm : arms) {
      SCOPED_TRACE(::testing::Message() << arm->name << ", n=" << n << ", k=" << k);
      std::vector<std::int64_t> dst(n * n, 0);
      const WidenSums got = arm->widen_sum(dst.data(), src.data(), n, packed_le(k), packed_lt(-k));
      EXPECT_EQ(dst, expected);
      EXPECT_EQ(got.sig, want.sig);
      EXPECT_EQ(got.lower, want.lower);
      EXPECT_EQ(got.changed, want.changed);
      // In place (extrapolate's call) gives the same matrix and sums.
      std::vector<std::int64_t> in_place = src;
      const WidenSums again =
          arm->widen_sum(in_place.data(), in_place.data(), n, packed_le(k), packed_lt(-k));
      EXPECT_EQ(in_place, expected);
      EXPECT_EQ(again.sig, want.sig);
      EXPECT_EQ(again.lower, want.lower);
      EXPECT_EQ(again.changed, want.changed);
    }
  }
}

// ---------------------------------------------------------------------------
// Subsumption store vs. the exact-equality oracle on random timed models
// ---------------------------------------------------------------------------

/// A randomized small pattern system: a random Theorem-1-consistent
/// config (fuzz::random_config) judged against either its own dwell
/// bound (expected: proved) or, when `breakable`, with probability 1/2 a
/// ceiling of 30–70 % of ξ1's lease (expected: violation).
campaign::ScenarioSpec random_model(sim::Rng& rng, bool breakable) {
  scenarios::ScenarioParams params;
  params.config = fuzz::random_config(rng, 2);
  params.mode = campaign::RunMode::kVerify;
  if (breakable && rng.bernoulli(0.5))
    params.dwell_bound = params.config.entity(1).t_run_max * rng.uniform(0.3, 0.7);
  return scenarios::build(params);
}

TEST(SubsumptionStore, NeverLosesAReachableViolation) {
  sim::Rng rng(6);
  int violations_seen = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const campaign::ScenarioSpec spec = random_model(rng, true);
    const CompiledModel model = compile_model(spec.verify_input());

    VerifyOptions antichain;
    antichain.max_losses = 1;
    antichain.max_injections = 1;
    antichain.max_states = 400'000;
    VerifyOptions oracle = antichain;
    oracle.subsumption = false;

    const VerifyResult fast = verify_pte(model, antichain);
    const VerifyResult naive = verify_pte(model, oracle);
    ASSERT_NE(naive.status, VerifyStatus::kOutOfBudget) << naive.summary();
    ASSERT_NE(fast.status, VerifyStatus::kOutOfBudget) << fast.summary();
    // The property: the stores agree on the verdict.  (In particular the
    // antichain must not have dropped a state from which the oracle can
    // reach a violation.)
    EXPECT_EQ(fast.status, naive.status)
        << "antichain: " << fast.summary() << "\noracle: " << naive.summary();
    // Subsumption only prunes — it must never store more than the
    // equality-dedup oracle.
    EXPECT_LE(fast.states_stored, naive.states_stored);
    if (fast.status == VerifyStatus::kViolation) {
      ++violations_seen;
      ASSERT_TRUE(fast.counterexample.has_value());
      EXPECT_EQ(fast.counterexample->kind, naive.counterexample->kind);
      // Both counterexamples concretize and replay in the real engine.
      const ReplayResult replay =
          replay_counterexample(spec.verify_input(), *fast.counterexample);
      EXPECT_TRUE(replay.reproduced) << fast.counterexample->str();
    }
  }
  // The trial mix must actually exercise the violating path.
  EXPECT_GE(violations_seen, 1);
}

// ---------------------------------------------------------------------------
// Parallel determinism
// ---------------------------------------------------------------------------

std::string fingerprint(const VerifyResult& r) {
  std::string fp = r.summary();
  if (r.counterexample.has_value()) fp += "\n" + r.counterexample->str();
  return fp;
}

TEST(ZoneKernels, FullVerificationIsBitIdenticalAcrossArms) {
  const ZoneKernels* simd = avx2_zone_kernels();
  if (simd == nullptr) GTEST_SKIP() << "no AVX2 on this CPU/build";
  sim::Rng rng(9);
  for (int trial = 0; trial < 4; ++trial) {
    const campaign::ScenarioSpec spec = random_model(rng, trial % 2 == 1);
    const CompiledModel model = compile_model(spec.verify_input());
    VerifyOptions opt;
    opt.max_losses = 1;
    opt.max_injections = 1;
    opt.max_states = 400'000;
    set_zone_kernels_for_test(&scalar_zone_kernels());
    const VerifyResult scalar_run = verify_pte(model, opt);
    set_zone_kernels_for_test(simd);
    const VerifyResult simd_run = verify_pte(model, opt);
    set_zone_kernels_for_test(nullptr);
    // Same verdict, same counterexample, same state counts — the dispatch
    // arm must be unobservable in the result.
    EXPECT_EQ(fingerprint(scalar_run), fingerprint(simd_run)) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Partial-order reduction vs. the full interleaving exploration
// ---------------------------------------------------------------------------

TEST(PartialOrderReduction, PreservesVerdictsOnRandomModels) {
  sim::Rng rng(8);
  int violations_seen = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const campaign::ScenarioSpec spec = random_model(rng, trial % 2 == 1);
    const CompiledModel model = compile_model(spec.verify_input());

    VerifyOptions reduced_opt;
    reduced_opt.max_losses = 1;
    reduced_opt.max_injections = 1;
    reduced_opt.max_states = 400'000;
    VerifyOptions full_opt = reduced_opt;
    full_opt.por = false;

    const VerifyResult reduced = verify_pte(model, reduced_opt);
    const VerifyResult full = verify_pte(model, full_opt);
    ASSERT_NE(full.status, VerifyStatus::kOutOfBudget) << full.summary();
    ASSERT_NE(reduced.status, VerifyStatus::kOutOfBudget) << reduced.summary();
    // The property: the reduction is exact — same verdict with and
    // without it, and it only ever prunes.
    EXPECT_EQ(reduced.status, full.status)
        << "por: " << reduced.summary() << "\nfull: " << full.summary();
    EXPECT_LE(reduced.states_stored, full.states_stored);
    if (reduced.status == VerifyStatus::kViolation) {
      ++violations_seen;
      ASSERT_TRUE(reduced.counterexample.has_value());
      EXPECT_EQ(reduced.counterexample->kind, full.counterexample->kind);
      // The reduced run's counterexample still concretizes to a replayable
      // concrete schedule (POR must not free a clock the trace reads).
      const ReplayResult replay =
          replay_counterexample(spec.verify_input(), *reduced.counterexample);
      EXPECT_TRUE(replay.reproduced) << reduced.counterexample->str();
    }
  }
  EXPECT_GE(violations_seen, 1);
}

TEST(ParallelChecker, BitIdenticalAcrossThreadCounts) {
  for (const bool broken : {false, true}) {
    campaign::ScenarioSpec spec;
    spec.name = "laser";
    spec.config = core::PatternConfig::laser_tracheotomy();
    spec.mode = campaign::RunMode::kVerify;
    if (broken) spec.dwell_bound = 30.0;
    const CompiledModel model = compile_model(spec.verify_input());
    VerifyOptions opt;
    opt.max_losses = 1;
    opt.max_injections = 1;
    std::string reference;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
      opt.threads = threads;
      const VerifyResult r = verify_pte(model, opt);
      if (threads == 1)
        reference = fingerprint(r);
      else
        EXPECT_EQ(fingerprint(r), reference) << "threads=" << threads;
    }
    ASSERT_FALSE(reference.empty());
  }
}

TEST(ParallelChecker, BudgetCutoffIsDeterministicAcrossThreads) {
  // A budget that lands mid-round must truncate the same canonical
  // prefix at every thread count.
  campaign::ScenarioSpec spec;
  spec.name = "laser";
  spec.config = core::PatternConfig::laser_tracheotomy();
  spec.mode = campaign::RunMode::kVerify;
  const CompiledModel model = compile_model(spec.verify_input());
  VerifyOptions opt;
  opt.max_losses = 1;
  opt.max_injections = 1;
  opt.max_states = 137;  // deliberately mid-round
  std::string reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    opt.threads = threads;
    const VerifyResult r = verify_pte(model, opt);
    EXPECT_EQ(r.status, VerifyStatus::kOutOfBudget);
    if (threads == 1)
      reference = fingerprint(r);
    else
      EXPECT_EQ(fingerprint(r), reference);
  }
}

TEST(ParallelChecker, ZeroThreadsResolvesToHardwareConcurrency) {
  campaign::ScenarioSpec spec;
  spec.name = "laser";
  spec.config = core::PatternConfig::laser_tracheotomy();
  spec.mode = campaign::RunMode::kVerify;
  const CompiledModel model = compile_model(spec.verify_input());
  VerifyOptions opt;
  opt.max_losses = 1;
  opt.max_injections = 1;
  opt.threads = 0;
  const VerifyResult r = verify_pte(model, opt);
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(r.threads_used, hw);
  // Resolution changes nothing but the worker count: same fingerprint as
  // an explicit single-thread run.
  opt.threads = 1;
  const VerifyResult one = verify_pte(model, opt);
  EXPECT_EQ(one.threads_used, 1u);
  EXPECT_EQ(fingerprint(r), fingerprint(one));
}

}  // namespace
}  // namespace ptecps::verify
