// Binary-wide allocation counting: including this header in exactly ONE
// translation unit of a binary replaces the global operator new/delete with
// counting versions. Used by the binaries that pin the simulator's
// zero-allocation event path (tests/event_alloc_test.cc, bench/perf_report.cc)
// so they share one definition of what counts as an allocation. A second
// counter sums the bytes requested in large blocks (kLargeBlockBytes and up),
// the size of a vote text or a document copy rather than a node or a scratch
// vector (tests/knockout_alloc_test.cc).
//
// Replaceable-function rules: these are definitions, so never include this
// from more than one TU of the same binary, and never from library code.
#ifndef SRC_COMMON_COUNTING_ALLOCATOR_H_
#define SRC_COMMON_COUNTING_ALLOCATOR_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace torbase {
namespace counting_allocator {

inline constexpr std::size_t kLargeBlockBytes = 64 * 1024;

inline std::atomic<uint64_t> g_allocations{0};
inline std::atomic<uint64_t> g_large_block_bytes{0};

inline uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Bytes requested in blocks of at least kLargeBlockBytes.
inline uint64_t LargeBlockBytes() {
  return g_large_block_bytes.load(std::memory_order_relaxed);
}

inline void RecordAllocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size >= kLargeBlockBytes) {
    g_large_block_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

}  // namespace counting_allocator
}  // namespace torbase

void* operator new(std::size_t size) {
  torbase::counting_allocator::RecordAllocation(size);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }
// Not inlined: once GCC inlines a replaced delete into its caller it sees
// free() on a pointer from operator new and warns -Wmismatched-new-delete
// (under -fsanitize, GCC 12). Deletes are not counted, so counts do not move.
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// The nothrow forms (std::stable_sort's temporary buffer uses them) must come
// from the same malloc the replaced deletes free, or a sanitizer's allocator
// sees a new/free mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  torbase::counting_allocator::RecordAllocation(size);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

// Over-aligned forms count too: InlineFunction routes over-aligned captures to
// the heap via aligned new, which must not be invisible to the guard.
void* operator new(std::size_t size, std::align_val_t align) {
  torbase::counting_allocator::RecordAllocation(size);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

#endif  // SRC_COMMON_COUNTING_ALLOCATOR_H_
