#include "verify/zone_kernels.hpp"

#include <atomic>
#include <cstdlib>

#include "verify/zone.hpp"

namespace ptecps::verify {

namespace {

void scalar_min_plus_row(std::int64_t* row_i, const std::int64_t* row_k,
                         std::int64_t d_ik, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const PackedBound via = packed_add(d_ik, row_k[j]);
    if (via < row_i[j]) row_i[j] = via;
  }
}

bool scalar_leq_all(const std::int64_t* a, const std::int64_t* b, std::size_t total) {
  for (std::size_t idx = 0; idx < total; ++idx) {
    if (a[idx] > b[idx]) return false;
  }
  return true;
}

void scalar_min_inplace(std::int64_t* a, const std::int64_t* b, std::size_t total) {
  for (std::size_t idx = 0; idx < total; ++idx) {
    if (b[idx] < a[idx]) a[idx] = b[idx];
  }
}

std::int64_t scalar_shift_sum(const std::int64_t* d, std::size_t total, int shift) {
  std::int64_t sum = 0;
  for (std::size_t idx = 0; idx < total; ++idx) sum += d[idx] >> shift;
  return sum;
}

WidenSums scalar_widen_sum(std::int64_t* dst, const std::int64_t* src, std::size_t n,
                           std::int64_t upper, std::int64_t lower) {
  WidenSums out;
  const std::size_t total = n * n;
  for (std::size_t idx = 0; idx < total; ++idx) {
    const PackedBound w = packed_widen(src[idx], upper, lower);
    out.changed |= w != src[idx];
    dst[idx] = w;
    out.sig += w >> 16;
  }
  for (std::size_t j = 0; j < n; ++j) out.lower += dst[j] >> 8;
  return out;
}

bool simd_disabled_by_env() {
  const char* v = std::getenv("PTE_DISABLE_SIMD");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

const ZoneKernels& dispatch() {
  if (!simd_disabled_by_env()) {
    if (const ZoneKernels* avx2 = avx2_zone_kernels()) return *avx2;
  }
  return scalar_zone_kernels();
}

std::atomic<const ZoneKernels*> g_active{nullptr};

}  // namespace

const ZoneKernels& scalar_zone_kernels() {
  static const ZoneKernels table{"scalar", scalar_min_plus_row, scalar_leq_all,
                                 scalar_min_inplace, scalar_shift_sum, scalar_widen_sum};
  return table;
}

const ZoneKernels& active_zone_kernels() {
  const ZoneKernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = &dispatch();
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

void set_zone_kernels_for_test(const ZoneKernels* kernels) {
  g_active.store(kernels ? kernels : &dispatch(), std::memory_order_release);
}

}  // namespace ptecps::verify
