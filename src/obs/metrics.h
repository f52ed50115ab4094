// Lock-cheap metrics instruments and their registry. Instruments are
// created once (mutex-guarded) and updated on hot paths with relaxed
// atomics only, so a counter bump costs one uncontended atomic add. The
// registry owns every instrument it hands out (pointers are stable for the
// registry's lifetime), which lets movable long-lived components — stores,
// indices, routers — hold plain pointers.
//
// Scoping: an instrument is identified by (name, scope). The empty scope is
// the process-wide namespace (e.g. hash-table probe totals); components
// that need isolated per-instance counters allocate a unique scope via
// `NewScope("store")` -> "store/0", "store/1", ... Exporters render the
// scope as a Prometheus label. The registry never frees a scope, so only
// long-lived components take one: per-query and per-view objects (ReadView,
// its BufferPool and IoCostModel) count in their own fields, and the
// simulated I/O counts (IoStats, BufferPoolStats) never enter the registry.

#ifndef SSR_OBS_METRICS_H_
#define SSR_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ssr {
namespace obs {

namespace internal {
/// Relaxed compare-exchange add for pre-C++20-style atomic doubles.
inline void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}
}  // namespace internal

/// Monotonic event counter.
class Counter {
 public:
  void Add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  /// Zeroes the counter. Used by the repo's "reset accounting between
  /// experiment phases" idiom; a live Prometheus deployment would never
  /// reset, but this system's exporters snapshot per run.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value instrument (e.g. live set count, resident pages).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) { internal::AtomicAddDouble(value_, delta); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations v with
/// v <= bounds[i] (and > bounds[i-1]); one implicit overflow bucket counts
/// v > bounds.back(). Bounds are fixed at creation and sorted ascending.
class Histogram {
 public:
  void Observe(double v);

  /// Adds `n` pre-binned observations directly to bucket `i` (the overflow
  /// bucket when `i == bounds().size()`), contributing `sum_delta` to the
  /// running sum. This is the merge path for components that keep their own
  /// per-thread bins (e.g. the workload observer) and fold them into a
  /// registry histogram in one pass instead of replaying every observation.
  void AddBucket(std::size_t i, std::uint64_t n, double sum_delta);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket `i`; `i == bounds().size()` is the overflow bucket.
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);

  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Common exponential bucket boundaries: {start, start*factor, ...}, n
/// bounds total.
std::vector<double> ExponentialBounds(double start, double factor,
                                      std::size_t n);

/// Exponential bounds covering [lo, hi]: {lo, lo*factor, ...} extended
/// until a bound reaches hi (the last bound is >= hi). Requires lo > 0 and
/// factor > 1; the bucket count follows from the span, so callers state
/// the measured range instead of hand-rolling bucket lists.
std::vector<double> ExponentialBoundsCovering(double lo, double hi,
                                              double factor);

/// The repo's standard latency buckets in microseconds: factor-4
/// exponential bounds covering 1 us .. 10 s. Every *_latency_micros
/// histogram uses these so latency profiles are comparable across
/// components.
std::vector<double> LatencyBoundsMicros();

/// Owns named instruments; lookup-or-create is mutex-guarded, updates are
/// lock-free. Instrument pointers remain valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in component reports to. Never
  /// destroyed (intentionally leaked) so instruments outlive any static
  /// component teardown order.
  static MetricsRegistry& Default();

  /// Returns the instrument registered under (name, scope), creating it on
  /// first use. The returned pointer is stable. Re-requesting an existing
  /// name with a different instrument kind returns nullptr (a programming
  /// error surfaced loudly in tests rather than via UB).
  Counter* GetCounter(std::string_view name, std::string_view scope = "");
  Gauge* GetGauge(std::string_view name, std::string_view scope = "");
  /// `bounds` applies on first creation only; later lookups return the
  /// existing histogram regardless of bounds.
  Histogram* GetHistogram(std::string_view name, std::string_view scope,
                          std::vector<double> bounds);

  /// Allocates a process-unique scope string "prefix/N" for per-instance
  /// instrument isolation.
  std::string NewScope(std::string_view prefix);

  /// Zeroes every registered instrument (between experiment phases).
  void ResetAll();

  /// A snapshot row for exporters; exactly one instrument pointer is set.
  struct Entry {
    std::string name;
    std::string scope;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };

  /// All instruments, sorted by (name, scope) for deterministic export.
  std::vector<Entry> Entries() const;

 private:
  struct Slot {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::pair<std::string, std::string>, Slot> instruments_;
  std::atomic<std::uint64_t> next_scope_id_{0};
};

}  // namespace obs
}  // namespace ssr

#endif  // SSR_OBS_METRICS_H_
