// Replacement global operator new/delete that count allocations (see
// alloc_counter.h). They sit in their own translation unit so the compiler
// cannot inline the free() in delete into callers whose allocation it sees
// come from operator new, which it would report as -Wmismatched-new-delete.

#include "alloc_counter.h"

#include <cstdlib>
#include <new>

std::atomic<int64_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
