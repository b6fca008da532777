// Counting replacement of the global operator new, for tests that pin
// how many heap allocations a piece of code makes.
//
// The replacement functions are ordinary (non-inline) definitions, so
// include this header from exactly one translation unit of a test
// binary. The array forms are replaced too: a sanitizer runtime
// supplies its own operator new[] that would bypass the count. Nothrow
// forms reach the counted operator through the standard library's
// defaults; over-aligned allocations are not counted (nothing in the
// simulator uses them).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace counting_new {

inline std::atomic<std::size_t> g_allocations{0};

/// Heap allocations made through operator new so far.
inline std::size_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace counting_new

// Out of line: an inlined replacement delete makes GCC flag free() on a
// pointer it saw come from operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  counting_new::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }

[[gnu::noinline]] void operator delete(void* p,
                                       std::size_t /*size*/) noexcept {
  std::free(p);
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void operator delete[](void* p) noexcept {
  ::operator delete(p);
}

[[gnu::noinline]] void operator delete[](void* p,
                                         std::size_t /*size*/) noexcept {
  ::operator delete(p);
}
