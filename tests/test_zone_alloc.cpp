// The zone pool's contract: once a thread's free list is warm, the zone
// operations a proof runs allocate nothing.  This binary replaces the
// global operator new/delete family with a malloc-backed version that
// counts every allocation the process makes, so it is a test binary of
// its own.
//
// GCC pairs `new` expressions it inlined before seeing the replacement
// with the replaced `delete` and warns spuriously; the replacement pair
// below is the standard malloc/free-backed form and is self-consistent.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "sim/random.hpp"
#include "verify/zone.hpp"

#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n > 0 ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc requires the size to be a positive multiple of the
  // alignment.
  void* p = std::aligned_alloc(a, n > 0 ? (n + a - 1) / a * a : a);
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return counted_aligned_alloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return counted_aligned_alloc(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace ptecps::verify {
namespace {

constexpr std::size_t kClocks = 17;
constexpr double kK = 48.0;  // the store's widening constant for laser-tracheotomy
constexpr int kPasses = 20;

/// A non-trivial canonical zone: delay, a few single-clock constraints,
/// a few resets — the shape the checker produces.
Zone random_zone(sim::Rng& rng) {
  Zone z(kClocks);
  z.up();
  const std::size_t n_constraints = 1 + rng.uniform_int(3);
  for (std::size_t c = 0; c < n_constraints; ++c) {
    const std::size_t clock = 1 + rng.uniform_int(kClocks);
    z.constrain(clock, 0, packed_le(1.0 + static_cast<double>(rng.uniform_int(40))));
  }
  const std::size_t n_resets = rng.uniform_int(3);
  for (std::size_t r = 0; r < n_resets; ++r) z.reset(1 + rng.uniform_int(kClocks));
  z.up();
  z.constrain(1 + rng.uniform_int(kClocks), 0,
              packed_le(5.0 + static_cast<double>(rng.uniform_int(30))));
  return z;
}

/// 128 zones over kClocks clocks.  With `por`, each zone frees one of
/// four fixed clock sets, each clock dead with probability 3/4 — the
/// 3-5 stored clocks of 17-21 that the partial-order reduction leaves a
/// proof's stored zones.
std::vector<Zone> sample_zones(bool por) {
  sim::Rng rng(42);
  std::vector<std::vector<std::size_t>> dead(4);
  if (por)
    for (auto& d : dead)
      for (std::size_t c = 1; c <= kClocks; ++c)
        if (rng.bernoulli(0.75)) d.push_back(c);
  std::vector<Zone> zones;
  for (std::size_t i = 0; i < 128; ++i) {
    Zone z = random_zone(rng);
    for (std::size_t c : dead[i % dead.size()]) z.free(c);
    zones.push_back(std::move(z));
  }
  return zones;
}

/// One pass of every steady-state zone operation over `zones`.
void run_ops(const std::vector<Zone>& zones, Zone& scratch) {
  volatile bool subset = false;
  volatile std::int64_t sig = 0;
  Zone::SigPair sigs;
  for (std::size_t i = 0; i < zones.size(); ++i) {
    const Zone& z = zones[i];
    const Zone& other = zones[(i + 1) % zones.size()];
    const std::size_t clock = 1 + i % kClocks;
    scratch = z;  // copy
    scratch.up();
    scratch = z;
    scratch.constrain(clock, 0, packed_le(7.5));
    scratch = z;
    scratch.reset(clock);
    scratch = z;
    scratch.free(clock);
    scratch.reset(clock);
    scratch = z.widened(kK, sigs);
    scratch = z;
    scratch.extrapolate(kK);
    scratch = z;
    scratch.intersect(other);
    subset = z.subset_of(other);
    sig = z.signature();
  }
  (void)subset;
  (void)sig;
}

/// Allocations made by kPasses passes after one warm-up pass.
std::uint64_t steady_state_allocs(bool por) {
  const std::vector<Zone> zones = sample_zones(por);
  Zone scratch = zones[0];
  run_ops(zones, scratch);
  const std::uint64_t before = g_allocs.load();
  for (int pass = 0; pass < kPasses; ++pass) run_ops(zones, scratch);
  return g_allocs.load() - before;
}

TEST(ZonePool, CounterSeesAHeapMatrix) {
  // A new thread's pool starts empty, so the zone's buffer comes from
  // the heap and the counter sees it, however often this test runs.
  std::uint64_t allocs = 0;
  std::size_t stored = 0;
  std::thread([&] {
    const std::uint64_t before = g_allocs.load();
    const Zone fresh(kClocks);
    allocs = g_allocs.load() - before;
    stored = fresh.stored_clocks();
  }).join();
  EXPECT_EQ(allocs, 1u);
  EXPECT_EQ(stored, kClocks);
}

TEST(ZonePool, SteadyStateOpsAllocateNothingWhenEveryClockIsStored) {
  const std::vector<Zone> zones = sample_zones(false);
  for (const Zone& z : zones) ASSERT_EQ(z.stored_clocks(), kClocks);
  EXPECT_EQ(steady_state_allocs(false), 0u);
}

TEST(ZonePool, SteadyStateOpsAllocateNothingWithPorFreedClocks) {
  const std::vector<Zone> zones = sample_zones(true);
  std::size_t stored = 0;
  for (const Zone& z : zones) stored += z.stored_clocks();
  EXPECT_LT(stored, zones.size() * kClocks / 2);
  EXPECT_EQ(steady_state_allocs(true), 0u);
}

}  // namespace
}  // namespace ptecps::verify
