// Replacement global operator new/delete that count heap allocations, per
// thread and for the whole process. The thread-local count lets a workload
// attribute its calling thread's allocations exactly, independent of what
// a transport's event loop or the daemons allocate meanwhile; the process
// count covers work a thread pool splits between threads in a
// timing-dependent way.

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace {

thread_local uint64_t t_allocs = 0;
std::atomic<uint64_t> g_allocs{0};

void Count() {
  ++t_allocs;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
}

void* CountedAlloc(std::size_t size) {
  Count();
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  Count();
  const std::size_t alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

namespace pathbench {
uint64_t ThreadAllocs() { return t_allocs; }
uint64_t ProcessAllocs() {
  return g_allocs.load(std::memory_order_relaxed);
}
}  // namespace pathbench

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
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
