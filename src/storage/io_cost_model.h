// Simulated I/O cost accounting. The paper's response-time experiments
// (Figures 7a/7b) hinge on the random-vs-sequential access cost ratio
// rtn = ran/seq ≈ 8 (Section 6): the index performs O(l) random bucket
// accesses plus one random fetch per candidate set, while the sequential
// scan reads every page of the collection sequentially. We count both kinds
// of page access explicitly and convert to simulated time with a tunable
// cost model, making the paper's crossover analysis reproducible on any
// hardware.
//
// The counts are modeled page accesses, not measured ones, so they stay out
// of the metrics registry: they are the model's own fields, and the
// harness, QueryStats::io and per-query deltas read them through stats().

#ifndef SSR_STORAGE_IO_COST_MODEL_H_
#define SSR_STORAGE_IO_COST_MODEL_H_

#include <atomic>
#include <cstdint>

namespace ssr {

/// Cost parameters. Defaults model a year-2000 disk shape: sequential page
/// read 100 microseconds, random read 8x that (the paper's measured ratio).
struct IoCostParams {
  double seq_page_micros = 100.0;
  double random_multiplier = 8.0;

  double random_page_micros() const {
    return seq_page_micros * random_multiplier;
  }
};

/// A snapshot of I/O counters; subtraction gives per-query deltas.
struct IoStats {
  std::uint64_t sequential_reads = 0;
  std::uint64_t random_reads = 0;
  std::uint64_t page_writes = 0;

  IoStats operator-(const IoStats& other) const {
    return {sequential_reads - other.sequential_reads,
            random_reads - other.random_reads,
            page_writes - other.page_writes};
  }
  IoStats& operator+=(const IoStats& other) {
    sequential_reads += other.sequential_reads;
    random_reads += other.random_reads;
    page_writes += other.page_writes;
    return *this;
  }

  /// Simulated elapsed time for these accesses under `params`. Writes are
  /// charged as sequential pages (append-mostly workload).
  double SimulatedMicros(const IoCostParams& params) const;
  double SimulatedSeconds(const IoCostParams& params) const {
    return SimulatedMicros(params) / 1e6;
  }
};

namespace internal {
// Relaxed atomic access to a plain counter field. IoCostModel and
// BufferPool keep their counts as ordinary struct fields, so both stay
// movable, while charges and snapshots from different threads (serial
// queries charge the store's model without the store lock) stay race-free.
inline void RelaxedAdd(std::uint64_t& count, std::uint64_t n) {
  std::atomic_ref<std::uint64_t>(count).fetch_add(n,
                                                  std::memory_order_relaxed);
}
inline std::uint64_t RelaxedLoad(std::uint64_t& count) {
  return std::atomic_ref<std::uint64_t>(count).load(std::memory_order_relaxed);
}
inline void RelaxedZero(std::uint64_t& count) {
  std::atomic_ref<std::uint64_t>(count).store(0, std::memory_order_relaxed);
}
}  // namespace internal

/// Mutable counter of page accesses. Storage components charge it; the
/// evaluation harness snapshots it around each query.
class IoCostModel {
 public:
  explicit IoCostModel(IoCostParams params = IoCostParams())
      : params_(params) {}

  void ChargeSequentialRead(std::uint64_t pages = 1) {
    internal::RelaxedAdd(counts_.sequential_reads, pages);
  }
  void ChargeRandomRead(std::uint64_t pages = 1) {
    internal::RelaxedAdd(counts_.random_reads, pages);
  }
  void ChargeWrite(std::uint64_t pages = 1) {
    internal::RelaxedAdd(counts_.page_writes, pages);
  }

  /// Snapshot of the counts.
  IoStats stats() const {
    return {internal::RelaxedLoad(counts_.sequential_reads),
            internal::RelaxedLoad(counts_.random_reads),
            internal::RelaxedLoad(counts_.page_writes)};
  }
  const IoCostParams& params() const { return params_; }
  void set_params(const IoCostParams& params) { params_ = params; }

  /// Resets all counters to zero.
  void Reset() {
    internal::RelaxedZero(counts_.sequential_reads);
    internal::RelaxedZero(counts_.random_reads);
    internal::RelaxedZero(counts_.page_writes);
  }

  double SimulatedMicros() const { return stats().SimulatedMicros(params_); }

 private:
  IoCostParams params_;
  mutable IoStats counts_;  // touched only through internal::Relaxed*
};

}  // namespace ssr

#endif  // SSR_STORAGE_IO_COST_MODEL_H_
