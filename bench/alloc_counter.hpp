// Whole-binary allocation counter for bench_zone_ops: replaces the
// global operator new/delete family with a malloc-backed version that
// bumps one relaxed atomic, so the bench can report allocs/op for
// everything the library does.  Include exactly once per binary (the
// replacement functions must not be defined twice in one program).
//
// GCC pairs `new` expressions it inlined before seeing the replacement
// with the replaced `delete` and warns spuriously; the replacement pair
// below is the standard malloc/free-backed form and is self-consistent.
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

static std::atomic<std::uint64_t> g_allocs{0};

static void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (!p) throw std::bad_alloc();
  return p;
}
static void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc requires the size to be a multiple of the alignment.
  void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
  if (!p) throw std::bad_alloc();
  return p;
}

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
