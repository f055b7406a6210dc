// SPDX-License-Identifier: MIT
//
// Allocation probe for tests: replaces global operator new/delete with
// malloc-backed versions that, while a ScopedAllocProbe is alive on any
// thread, count allocations and record the size of the largest one.
// Include it from exactly one translation unit of a test binary.
//
// Sanitizer runtimes own the allocator, so there the replacement is left
// out and kAllocProbeActive is false: callers still run their parsers (the
// sanitizer checks them) but skip the size assertions.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SCEC_ALLOC_PROBE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SCEC_ALLOC_PROBE 0
#else
#define SCEC_ALLOC_PROBE 1
#endif
#else
#define SCEC_ALLOC_PROBE 1
#endif

namespace scec::testutil {

inline constexpr bool kAllocProbeActive = SCEC_ALLOC_PROBE != 0;

inline std::atomic<bool> g_probe_on{false};
inline std::atomic<size_t> g_probe_count{0};
inline std::atomic<size_t> g_probe_largest{0};

class ScopedAllocProbe {
 public:
  ScopedAllocProbe() {
    g_probe_count.store(0, std::memory_order_relaxed);
    g_probe_largest.store(0, std::memory_order_relaxed);
    g_probe_on.store(true, std::memory_order_relaxed);
  }
  ~ScopedAllocProbe() { g_probe_on.store(false, std::memory_order_relaxed); }
  ScopedAllocProbe(const ScopedAllocProbe&) = delete;
  ScopedAllocProbe& operator=(const ScopedAllocProbe&) = delete;

  // Allocations since construction.
  size_t count() const {
    return g_probe_count.load(std::memory_order_relaxed);
  }
  // Largest single allocation since construction, in bytes.
  size_t largest() const {
    return g_probe_largest.load(std::memory_order_relaxed);
  }
};

}  // namespace scec::testutil

#if SCEC_ALLOC_PROBE
// GCC pairs the malloc-backed replacement operator new with the library
// operator delete at inlined call sites and warns; the pairing is fine
// because both replacements below are global.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  using namespace scec::testutil;
  if (g_probe_on.load(std::memory_order_relaxed)) {
    g_probe_count.fetch_add(1, std::memory_order_relaxed);
    size_t seen = g_probe_largest.load(std::memory_order_relaxed);
    while (size > seen && !g_probe_largest.compare_exchange_weak(
                              seen, size, std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // SCEC_ALLOC_PROBE
