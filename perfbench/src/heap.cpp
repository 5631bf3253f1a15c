#include "heap.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {

namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

void* take(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  const std::size_t bytes = malloc_usable_size(p);
  const std::size_t live =
      g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void give(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

std::size_t heap_live_bytes() {
  return g_live.load(std::memory_order_relaxed);
}

std::size_t heap_peak_bytes() {
  return g_peak.load(std::memory_order_relaxed);
}

void reset_heap_peak() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

}  // namespace perfbench

// The nothrow and sized forms of the standard library forward to these.
// Aligned forms keep their own allocator and are not counted.
void* operator new(std::size_t n) { return perfbench::take(n); }
void* operator new[](std::size_t n) { return perfbench::take(n); }
void operator delete(void* p) noexcept { perfbench::give(p); }
void operator delete[](void* p) noexcept { perfbench::give(p); }
void operator delete(void* p, std::size_t) noexcept { perfbench::give(p); }
void operator delete[](void* p, std::size_t) noexcept { perfbench::give(p); }
