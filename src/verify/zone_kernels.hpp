// Dispatchable inner-loop kernels for the packed-DBM zone engine.
//
// The five loops that dominate the verifier's profile — the shortest-path
// closure's min-plus row update, the entrywise inclusion scan, entrywise
// min (intersection), the inclusion-signature sums, and the store's
// widened copy — all stream over contiguous int64 words with no branches
// on the data.  This header
// exposes them as a function-pointer table with two implementations:
//
//   * scalar — portable C++, the reference semantics;
//   * AVX2   — 4 lanes per iteration, built in its own translation unit
//              with -mavx2 (see zone_kernels_avx2.cpp + CMakeLists) so
//              the rest of the binary carries no AVX encodings.
//
// Selection happens once at runtime: the AVX2 table is used iff the CPU
// reports the feature (cpuid via __builtin_cpu_supports) and the
// PTE_DISABLE_SIMD environment variable is not set to a non-empty,
// non-"0" value.  Both tables compute bit-identical results — the packed
// bound semiring is pure integer arithmetic — and test_zone_packed
// property-checks that equivalence on randomized matrices, so verdicts,
// counterexamples, and state counts never depend on the dispatch arm.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ptecps::verify {

/// What ZoneKernels::widen_sum reports about the matrix it wrote.
struct WidenSums {
  std::int64_t sig = 0;    // sum of entry >> 16 over the whole matrix
  std::int64_t lower = 0;  // sum of entry >> 8 over row 0
  bool changed = false;    // some entry differs from the source
};

struct ZoneKernels {
  const char* name = "?";

  /// row_i[j] = min(row_i[j], clamp(d_ik + row_k[j]))  for j in [0, n),
  /// where + is packed bound addition (strictness-adjusted, saturating at
  /// kPackedInf).  d_ik must be finite.  row_i == row_k is allowed (the
  /// update is elementwise).
  void (*min_plus_row)(std::int64_t* row_i, const std::int64_t* row_k,
                       std::int64_t d_ik, std::size_t n) = nullptr;

  /// a[idx] <= b[idx] for every idx in [0, total)?  (Entrywise zone
  /// inclusion test on canonical/widened matrices.)
  bool (*leq_all)(const std::int64_t* a, const std::int64_t* b,
                  std::size_t total) = nullptr;

  /// a[idx] = min(a[idx], b[idx])  for idx in [0, total).
  void (*min_inplace)(std::int64_t* a, const std::int64_t* b,
                      std::size_t total) = nullptr;

  /// Sum of (d[idx] >> shift) over [0, total) — the monotone inclusion
  /// signatures (shift 16 for the full matrix, 8 for row 0).
  std::int64_t (*shift_sum)(const std::int64_t* d, std::size_t total,
                            int shift) = nullptr;

  /// dst = src k-widened, for the n x n matrix src: every entry above
  /// `upper` becomes kPackedInf and every entry below `lower` becomes
  /// `lower`.  Returns dst's two inclusion signatures (the shift_sum
  /// values of the whole matrix at 16 and of row 0 at 8) and whether any
  /// entry changed, all from the same single pass.  Every diagonal entry
  /// must lie in [lower, upper], as packed_le(0) does for k >= 0, so the
  /// diagonal passes through unchanged.  dst == src is allowed.
  WidenSums (*widen_sum)(std::int64_t* dst, const std::int64_t* src, std::size_t n,
                         std::int64_t upper, std::int64_t lower) = nullptr;
};

/// The portable reference table.
const ZoneKernels& scalar_zone_kernels();

/// The AVX2 table, or nullptr when this build/CPU cannot run it.
const ZoneKernels* avx2_zone_kernels();

/// The table zone.cpp dispatches to (resolved once; honors
/// PTE_DISABLE_SIMD).
const ZoneKernels& active_zone_kernels();

/// Force a specific table (tests and benches comparing the arms);
/// nullptr restores runtime dispatch.  Not thread-safe — call only while
/// no zone operations are running.
void set_zone_kernels_for_test(const ZoneKernels* kernels);

}  // namespace ptecps::verify
