// LRU buffer pool in front of the heap file. A page hit costs nothing; a
// miss charges the I/O cost model (random or sequential, as declared by the
// caller). The evaluation harness sizes the pool small relative to the
// collection so the paper's disk-bound regime is faithfully simulated.
//
// Hit/miss/eviction counts are the pool's own fields (relaxed atomic
// access, so /statusz may snapshot them from another thread). Like the I/O
// model's counts they describe the simulation, so they stay out of the
// metrics registry.

#ifndef SSR_STORAGE_BUFFER_POOL_H_
#define SSR_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <unordered_map>

#include "storage/heap_file.h"
#include "storage/io_cost_model.h"
#include "storage/page.h"

namespace ssr {

/// Buffer pool statistics (a snapshot of the pool's counts).
struct BufferPoolStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Tracks which pages are resident; the heap file owns the bytes (memory-
/// backed), so "residency" is bookkeeping that drives cost accounting only.
class BufferPool {
 public:
  /// `capacity_pages` >= 1.
  explicit BufferPool(std::size_t capacity_pages)
      : capacity_(capacity_pages < 1 ? 1 : capacity_pages) {}

  /// Declares an access to `page_id`. On a miss, charges `io` one read of
  /// the given kind and makes the page resident (possibly evicting the LRU
  /// page). Returns true on hit.
  bool Access(PageId page_id, bool sequential, IoCostModel& io);

  /// Drops all resident pages (e.g., between experiment phases).
  void Clear();

  BufferPoolStats stats() const {
    return {internal::RelaxedLoad(counts_.hits),
            internal::RelaxedLoad(counts_.misses),
            internal::RelaxedLoad(counts_.evictions)};
  }
  void ResetStats();

  std::size_t capacity() const { return capacity_; }
  std::size_t resident() const { return lru_.size(); }

 private:
  std::size_t capacity_;
  // Front = most recently used.
  std::list<PageId> lru_;
  std::unordered_map<PageId, std::list<PageId>::iterator> index_;
  mutable BufferPoolStats counts_;  // touched only through internal::Relaxed*
};

}  // namespace ssr

#endif  // SSR_STORAGE_BUFFER_POOL_H_
