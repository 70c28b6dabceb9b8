// AVX2 arm of the zone kernel table (see zone_kernels.hpp).  This is the
// only translation unit compiled with -mavx2; everything here is guarded
// behind a runtime cpuid check so the binary stays runnable on any
// x86-64 (and builds to a stub on other architectures or compilers
// without AVX2 support).
//
// Bit-identity with the scalar arm is by construction: packed bounds are
// a pure int64 semiring — add, subtract, compare, min — so the 4-lane
// versions perform exactly the scalar operations, just four at a time.
// The one instruction AVX2 lacks, a 64-bit arithmetic right shift, is
// synthesized from a logical shift plus a sign mask.
#include "verify/zone_kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "verify/zone.hpp"

namespace ptecps::verify {

namespace {

// min(a, b) over signed 64-bit lanes (AVX2 has no _mm256_min_epi64).
inline __m256i min_epi64(__m256i a, __m256i b) {
  const __m256i a_gt = _mm256_cmpgt_epi64(a, b);
  return _mm256_blendv_epi8(a, b, a_gt);
}

void avx2_min_plus_row(std::int64_t* row_i, const std::int64_t* row_k,
                       std::int64_t d_ik, std::size_t n) {
  const __m256i dik = _mm256_set1_epi64x(d_ik);
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i inf = _mm256_set1_epi64x(kPackedInf);
  const __m256i clamp_m1 = _mm256_set1_epi64x(kPackedInfClamp - 1);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i rk = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row_k + j));
    // packed_add: a + b - ((a | b) & 1), then saturate at infinity.
    const __m256i strict = _mm256_and_si256(_mm256_or_si256(dik, rk), one);
    const __m256i sum = _mm256_sub_epi64(_mm256_add_epi64(dik, rk), strict);
    const __m256i over = _mm256_cmpgt_epi64(sum, clamp_m1);  // sum >= clamp
    const __m256i via = _mm256_blendv_epi8(sum, inf, over);
    const __m256i ri = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row_i + j));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(row_i + j), min_epi64(ri, via));
  }
  for (; j < n; ++j) {
    const PackedBound via = packed_add(d_ik, row_k[j]);
    if (via < row_i[j]) row_i[j] = via;
  }
}

bool avx2_leq_all(const std::int64_t* a, const std::int64_t* b, std::size_t total) {
  std::size_t idx = 0;
  for (; idx + 4 <= total; idx += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + idx));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + idx));
    if (_mm256_movemask_epi8(_mm256_cmpgt_epi64(va, vb)) != 0) return false;
  }
  for (; idx < total; ++idx) {
    if (a[idx] > b[idx]) return false;
  }
  return true;
}

void avx2_min_inplace(std::int64_t* a, const std::int64_t* b, std::size_t total) {
  std::size_t idx = 0;
  for (; idx + 4 <= total; idx += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + idx));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + idx));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + idx), min_epi64(va, vb));
  }
  for (; idx < total; ++idx) {
    if (b[idx] < a[idx]) a[idx] = b[idx];
  }
}

// x >> shift (arithmetic) per 64-bit lane: logical shift, then OR in the
// sign-extension bits for negative lanes.
inline __m256i sra_epi64(__m256i x, int shift) {
  const __m256i logical = _mm256_srli_epi64(x, shift);
  const __m256i neg = _mm256_cmpgt_epi64(_mm256_setzero_si256(), x);
  const __m256i sign = _mm256_slli_epi64(neg, 64 - shift);
  return _mm256_or_si256(logical, sign);
}

inline std::int64_t lane_sum(__m256i v) {
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

std::int64_t avx2_shift_sum(const std::int64_t* d, std::size_t total, int shift) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t idx = 0;
  for (; idx + 4 <= total; idx += 4) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + idx));
    acc = _mm256_add_epi64(acc, sra_epi64(v, shift));
  }
  std::int64_t sum = lane_sum(acc);
  for (; idx < total; ++idx) sum += d[idx] >> shift;
  return sum;
}

// Row 0 first, summed at both shifts; then the rest of the matrix at 16
// only.  Each part runs 4 lanes at a time with a scalar tail.
WidenSums avx2_widen_sum(std::int64_t* dst, const std::int64_t* src, std::size_t n,
                         std::int64_t upper, std::int64_t lower) {
  const __m256i up = _mm256_set1_epi64x(upper);
  const __m256i lo = _mm256_set1_epi64x(lower);
  const __m256i inf = _mm256_set1_epi64x(kPackedInf);
  __m256i sig = _mm256_setzero_si256();
  __m256i low = _mm256_setzero_si256();
  __m256i diff = _mm256_setzero_si256();
  WidenSums out;
  auto widen4 = [&](std::size_t idx) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + idx));
    __m256i w = _mm256_blendv_epi8(v, inf, _mm256_cmpgt_epi64(v, up));
    w = _mm256_blendv_epi8(w, lo, _mm256_cmpgt_epi64(lo, w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + idx), w);
    diff = _mm256_or_si256(diff, _mm256_xor_si256(w, v));
    sig = _mm256_add_epi64(sig, sra_epi64(w, 16));
    return w;
  };
  auto widen1 = [&](std::size_t idx) {
    const PackedBound w = packed_widen(src[idx], upper, lower);
    out.changed |= w != src[idx];
    dst[idx] = w;
    out.sig += w >> 16;
    return w;
  };
  std::size_t idx = 0;
  for (; idx + 4 <= n; idx += 4) low = _mm256_add_epi64(low, sra_epi64(widen4(idx), 8));
  for (; idx < n; ++idx) out.lower += widen1(idx) >> 8;
  const std::size_t total = n * n;
  for (; idx + 4 <= total; idx += 4) widen4(idx);
  for (; idx < total; ++idx) widen1(idx);
  out.sig += lane_sum(sig);
  out.lower += lane_sum(low);
  out.changed |= !_mm256_testz_si256(diff, diff);
  return out;
}

}  // namespace

const ZoneKernels* avx2_zone_kernels() {
  static const ZoneKernels table{"avx2", avx2_min_plus_row, avx2_leq_all,
                                 avx2_min_inplace, avx2_shift_sum, avx2_widen_sum};
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported ? &table : nullptr;
}

}  // namespace ptecps::verify

#else  // !__AVX2__

namespace ptecps::verify {

const ZoneKernels* avx2_zone_kernels() { return nullptr; }

}  // namespace ptecps::verify

#endif
