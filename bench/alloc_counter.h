#ifndef MOPE_BENCH_ALLOC_COUNTER_H_
#define MOPE_BENCH_ALLOC_COUNTER_H_

/// \file alloc_counter.h
/// Deterministic allocation counting for the allocation-gated benches:
/// every heap allocation in the process bumps one relaxed counter.
/// Replacing the global throwing operators is enough — std::allocator and
/// make_unique route through these. The replacements are ordinary
/// (non-inline) definitions, so include this header from exactly one
/// translation unit of a binary: its main file.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace mope::bench {

/// Heap allocations since process start.
inline std::atomic<uint64_t> g_allocs{0};

inline uint64_t Allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace mope::bench

void* operator new(std::size_t size) {
  mope::bench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  mope::bench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // MOPE_BENCH_ALLOC_COUNTER_H_
