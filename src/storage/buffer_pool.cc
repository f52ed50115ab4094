#include "storage/buffer_pool.h"

namespace ssr {

bool BufferPool::Access(PageId page_id, bool sequential, IoCostModel& io) {
  auto it = index_.find(page_id);
  if (it != index_.end()) {
    internal::RelaxedAdd(counts_.hits, 1);
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }
  internal::RelaxedAdd(counts_.misses, 1);
  if (sequential) {
    io.ChargeSequentialRead();
  } else {
    io.ChargeRandomRead();
  }
  if (lru_.size() >= capacity_) {
    const PageId victim = lru_.back();
    lru_.pop_back();
    index_.erase(victim);
    internal::RelaxedAdd(counts_.evictions, 1);
  }
  lru_.push_front(page_id);
  index_[page_id] = lru_.begin();
  return false;
}

void BufferPool::Clear() {
  lru_.clear();
  index_.clear();
}

void BufferPool::ResetStats() {
  internal::RelaxedZero(counts_.hits);
  internal::RelaxedZero(counts_.misses);
  internal::RelaxedZero(counts_.evictions);
}

}  // namespace ssr
