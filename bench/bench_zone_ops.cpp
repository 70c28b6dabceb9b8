// Zone-engine microbenchmarks: the packed-DBM primitives the verifier's
// hot path is made of — up/constrain/reset (successor construction),
// free + reset (a clock dropping out of the matrix and coming back, as
// the partial-order reduction's frees and the next reset do), subset_of
// (antichain scans), the widened copy and extrapolate (store admission),
// intersect (full Floyd–Warshall close), copy (pool recycling) — plus the
// passed-list insert path itself (signature-pruned antichain with
// subsumption eviction, the same algorithm checker.cpp runs per stored
// state, storing the fused widen_sum kernel's copy).  The primitives run
// on zones that store every clock; the insert path keys its zones by a
// discrete state that drops a fixed random subset of the clocks, as
// apply_por_frees does, so it runs on matrices of the size the store
// holds, and reports their mean dimension.
//
// Each row reports ops/s and allocs/op from a whole-binary operator-new
// counter: the zone free list should hold allocs/op at ~0 for every
// steady-state op, so a regression in the pool shows up here before it
// shows up in a proof's wall time.
//
// A second table pins the kernel dispatch (set_zone_kernels_for_test) to
// run the kernel-bound ops under the scalar and the SIMD implementations
// on the same inputs, reporting ops/s per arm and the speedup — the
// guard that keeps the AVX2 path from silently rotting into a slowdown.
//
// Usage: bench_zone_ops [--clocks 17] [--iters 200000]
// Exit 0 iff every op ran, the free list kept steady-state zone traffic
// allocation-free (< 0.01 allocs/op on the pooled ops), and — when the
// CPU has AVX2 — no kernel-bound op ran slower under SIMD than scalar
// (10% noise margin, best of 3 runs per arm).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/random.hpp"
#include "util/cli.hpp"
#include "verify/zone.hpp"
#include "verify/zone_kernels.hpp"

using namespace ptecps;
using verify::PackedBound;
using verify::Zone;

#include "alloc_counter.hpp"

namespace {

using steady_clock = std::chrono::steady_clock;

struct Row {
  const char* name;
  double ops_per_sec = 0.0;
  double allocs_per_op = 0.0;
  bool pooled = true;  // steady-state op: allocs/op must be ~0
};

/// Run `op` `iters` times, timed and allocation-counted.
template <typename Fn>
Row bench(const char* name, std::size_t iters, bool pooled, Fn&& op) {
  const std::uint64_t a0 = g_allocs.load();
  const auto t0 = steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) op(i);
  const double secs = std::chrono::duration<double>(steady_clock::now() - t0).count();
  const std::uint64_t allocs = g_allocs.load() - a0;
  Row row{name};
  row.ops_per_sec = static_cast<double>(iters) / secs;
  row.allocs_per_op = static_cast<double>(allocs) / static_cast<double>(iters);
  row.pooled = pooled;
  return row;
}

/// A randomized non-trivial canonical zone: delay, a few single-clock
/// constraints, a few resets — the shape the checker produces.
Zone random_zone(std::size_t clocks, sim::Rng& rng) {
  Zone z(clocks);
  z.up();
  const std::size_t n_constraints = 1 + rng.uniform_int(3);
  for (std::size_t c = 0; c < n_constraints; ++c) {
    const std::size_t clock = 1 + rng.uniform_int(clocks);
    const double bound = 1.0 + static_cast<double>(rng.uniform_int(40));
    z.constrain(clock, 0, verify::packed_le(bound));
  }
  const std::size_t n_resets = rng.uniform_int(3);
  for (std::size_t r = 0; r < n_resets; ++r) z.reset(1 + rng.uniform_int(clocks));
  z.up();
  const std::size_t clock = 1 + rng.uniform_int(clocks);
  z.constrain(clock, 0, verify::packed_le(5.0 + static_cast<double>(rng.uniform_int(30))));
  return z;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv, {"clocks", "iters"});
  const std::size_t clocks = static_cast<std::size_t>(args.get_int("clocks", 17));
  const std::size_t iters = static_cast<std::size_t>(args.get_int("iters", 200000));

  sim::Rng rng(42);
  std::vector<Zone> samples;
  for (std::size_t i = 0; i < 256; ++i) samples.push_back(random_zone(clocks, rng));

  std::vector<Row> rows;

  // Successor construction primitives, on a recycled working copy.
  {
    Zone scratch = samples[0];
    rows.push_back(bench("copy (pool hit)", iters, true,
                         [&](std::size_t i) { scratch = samples[i & 255]; }));
    rows.push_back(bench("up", iters, true, [&](std::size_t i) {
      scratch = samples[i & 255];
      scratch.up();
    }));
    const PackedBound guard = verify::packed_le(7.5);
    rows.push_back(bench("constrain (incremental close)", iters, true, [&](std::size_t i) {
      scratch = samples[i & 255];
      scratch.constrain(1 + (i % clocks), 0, guard);
    }));
    rows.push_back(bench("reset", iters, true, [&](std::size_t i) {
      scratch = samples[i & 255];
      scratch.reset(1 + (i % clocks));
    }));
    rows.push_back(bench("drop + re-insert a clock", iters, true, [&](std::size_t i) {
      scratch = samples[i & 255];
      scratch.free(1 + (i % clocks));
      scratch.reset(1 + (i % clocks));
    }));
    Zone::SigPair sigs;
    rows.push_back(bench("widened copy + signatures", iters, true, [&](std::size_t i) {
      scratch = samples[i & 255].widened(48.0, sigs);
    }));
    rows.push_back(bench("extrapolate (widen + close)", iters / 4, true, [&](std::size_t i) {
      scratch = samples[i & 255];
      scratch.extrapolate(48.0);
    }));
    Zone other = samples[1];
    rows.push_back(bench("intersect (full close)", iters / 4, true, [&](std::size_t i) {
      scratch = samples[i & 255];
      scratch.intersect(other);
    }));
  }

  // Store-side primitives.
  volatile bool sink = false;
  rows.push_back(bench("subset_of", iters, true, [&](std::size_t i) {
    sink = samples[i & 255].subset_of(samples[(i + 1) & 255]);
  }));
  volatile std::int64_t sig_sink = 0;
  rows.push_back(bench("signature", iters, true,
                       [&](std::size_t i) { sig_sink = samples[i & 255].signature(); }));

  // The passed-list insert path: signature-sorted antichain with
  // subsumption drop + eviction, exactly as Checker::absorb runs it, one
  // chain per discrete key.  Each key frees a fixed random subset of the
  // clocks (each dead with probability 3/4, leaving the 3-5 live clocks
  // of 17-21 the perfbench documents' mean stored zone has).
  double insert_dim = 0.0;
  {
    struct Entry {
      std::int64_t sig;
      std::int64_t lower_sig;
      Zone widened;
    };
    constexpr std::size_t kKeys = 16;
    std::vector<std::vector<std::size_t>> dead(kKeys);
    std::vector<std::vector<Entry>> chains(kKeys);
    sim::Rng key_rng(3);
    for (auto& d : dead)
      for (std::size_t c = 1; c <= clocks; ++c)
        if (key_rng.bernoulli(0.75)) d.push_back(c);
    std::size_t dims = 0, probes = 0;
    sim::Rng insert_rng(7);
    rows.push_back(bench("passed-list insert", iters / 8, false, [&](std::size_t) {
      const std::size_t key = insert_rng.uniform_int(kKeys);
      Zone z = random_zone(clocks, insert_rng);
      for (std::size_t c : dead[key]) z.free(c);
      dims += z.stored_clocks() + 1;
      ++probes;
      std::vector<Entry>& chain = chains[key];
      const Zone::SigPair raw = z.signatures();
      auto ge = std::lower_bound(
          chain.begin(), chain.end(), raw.sig,
          [](const Entry& e, std::int64_t s) { return e.sig < s; });
      for (auto it = ge; it != chain.end(); ++it) {
        if (raw.lower > it->lower_sig) continue;
        if (z.subset_of(it->widened)) return;  // subsumed: dropped
      }
      Zone::SigPair wsig;
      Zone widened = z.widened(48.0, wsig);
      auto le = std::upper_bound(chain.begin(), chain.end(), wsig.sig,
                                 [](std::int64_t s, const Entry& e) { return s < e.sig; });
      auto keep = chain.begin();
      for (auto it = chain.begin(); it != le; ++it) {
        if (it->lower_sig <= wsig.lower && it->widened.subset_of(widened)) continue;  // evicted
        if (keep != it) *keep = std::move(*it);
        ++keep;
      }
      if (keep != le) chain.erase(std::move(le, chain.end(), keep), chain.end());
      chain.insert(std::upper_bound(chain.begin(), chain.end(), wsig.sig,
                                    [](std::int64_t s, const Entry& e) {
                                      return s < e.sig;
                                    }),
                   Entry{wsig.sig, wsig.lower, std::move(widened)});
      if (chain.size() > 512) chain.clear();  // bound the store, like a fresh key
    }));
    insert_dim = static_cast<double>(dims) / static_cast<double>(probes);
  }

  // Scalar-vs-SIMD kernel table: the same workloads, dispatch pinned to
  // one arm at a time.  Only the ops whose inner loops live in
  // zone_kernels.cpp appear here (the rest are dispatch-independent).
  struct KernelRow {
    const char* name;
    double scalar = 0.0;
    double simd = 0.0;
  };
  std::vector<KernelRow> krows;
  bool kernels_ok = true;
  const verify::ZoneKernels* simd = verify::avx2_zone_kernels();
  {
    Zone scratch = samples[0];
    Zone other = samples[1];
    const PackedBound guard = verify::packed_le(7.5);
    volatile bool ksink = false;
    volatile std::int64_t ksig = 0;
    auto pinned = [&](const verify::ZoneKernels& k, std::size_t n, auto&& op) {
      // Best of 3: these loops finish in tens of milliseconds, where a
      // single scheduler hiccup would otherwise fake a regression.
      verify::set_zone_kernels_for_test(&k);
      double best = 0.0;
      for (int rep = 0; rep < 3; ++rep)
        best = std::max(best, bench("", n, true, op).ops_per_sec);
      verify::set_zone_kernels_for_test(nullptr);
      return best;
    };
    auto compare = [&](const char* name, std::size_t n, auto&& op) {
      KernelRow kr{name};
      kr.scalar = pinned(verify::scalar_zone_kernels(), n, op);
      if (simd) kr.simd = pinned(*simd, n, op);
      krows.push_back(kr);
    };
    compare("constrain (min_plus_row)", iters, [&](std::size_t i) {
      scratch = samples[i & 255];
      scratch.constrain(1 + (i % clocks), 0, guard);
    });
    compare("intersect/close (min+row)", iters / 4, [&](std::size_t i) {
      scratch = samples[i & 255];
      scratch.intersect(other);
    });
    compare("subset_of (leq_all)", iters, [&](std::size_t i) {
      ksink = samples[i & 255].subset_of(samples[(i + 1) & 255]);
    });
    compare("signature (shift_sum)", iters, [&](std::size_t i) {
      ksig = samples[i & 255].signature();
    });
    Zone::SigPair ksigs;
    compare("widened copy (widen_sum)", iters, [&](std::size_t i) {
      scratch = samples[i & 255].widened(48.0, ksigs);
    });
    (void)ksink;
    (void)ksig;
  }

  const Zone::PoolStats pool = Zone::pool_stats();
  std::printf("zone ops, %zu clocks (%zu-dim packed DBM, %zu iters):\n", clocks,
              clocks + 1, iters);
  std::printf("  %-32s %14s %12s\n", "op", "ops/s", "allocs/op");
  bool ok = true;
  for (const Row& r : rows) {
    std::printf("  %-32s %14.0f %12.4f\n", r.name, r.ops_per_sec, r.allocs_per_op);
    if (r.pooled && r.allocs_per_op > 0.01) {
      std::fprintf(stderr, "bench_zone_ops: '%s' allocated %.4f/op — free list broken?\n",
                   r.name, r.allocs_per_op);
      ok = false;
    }
  }
  std::printf("  pool: %llu heap allocs, %llu recycled\n",
              static_cast<unsigned long long>(pool.heap_allocs),
              static_cast<unsigned long long>(pool.pool_hits));
  std::printf("  passed-list insert: mean stored dimension %.2f of %zu\n", insert_dim,
              clocks + 1);

  std::printf("kernel dispatch (%s vs %s, best of 3):\n",
              verify::scalar_zone_kernels().name, simd ? simd->name : "none");
  std::printf("  %-32s %14s %14s %9s\n", "op", "scalar ops/s", "simd ops/s",
              "speedup");
  for (const KernelRow& kr : krows) {
    if (simd) {
      std::printf("  %-32s %14.0f %14.0f %8.2fx\n", kr.name, kr.scalar, kr.simd,
                  kr.simd / kr.scalar);
      if (kr.simd < 0.9 * kr.scalar) {
        std::fprintf(stderr,
                     "bench_zone_ops: '%s' is slower under SIMD (%.0f vs %.0f "
                     "ops/s) — AVX2 kernel regressed below scalar\n",
                     kr.name, kr.simd, kr.scalar);
        kernels_ok = false;
      }
    } else {
      std::printf("  %-32s %14.0f %14s %9s\n", kr.name, kr.scalar, "-", "-");
    }
  }
  if (!simd)
    std::printf("  (no AVX2 on this CPU/build — scalar column only, no gate)\n");

  ok = ok && kernels_ok;
  std::printf("%s\n", ok ? "ZONE OPS BENCH PASSED" : "ZONE OPS BENCH FAILED");
  return ok ? 0 : 1;
}
