// SetStore: the disk-resident set collection. Composes the heap file (record
// storage), the sid index (sid -> record locator, the "conventional data
// structure such as a B-tree supporting queries on set identifier" of
// Section 6), the buffer pool, and the I/O cost model. This is what both
// query paths touch:
//   - the index path fetches candidate sets by sid (random reads), and
//   - the sequential-scan baseline reads every page in file order.
//
// The sid index is a dense array indexed by sid, where an invalid locator
// means "not live". That is exact, not an approximation of the paper's
// B-tree: the store hands out sids densely and never reuses one, so the
// array has one slot per sid ever added, and the index was never charged
// simulated I/O (only record pages are).

#ifndef SSR_STORAGE_SET_STORE_H_
#define SSR_STORAGE_SET_STORE_H_

#include <functional>
#include <istream>
#include <ostream>
#include <shared_mutex>
#include <string>
#include <vector>

#include "fault/retry.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/io_cost_model.h"
#include "storage/snapshot.h"
#include "util/result.h"
#include "util/types.h"

namespace ssr {

/// SetStore construction options.
struct SetStoreOptions {
  /// Buffer pool capacity in pages. Small relative to the collection keeps
  /// the workload disk-bound, as in the paper's setup.
  std::size_t buffer_pool_pages = 256;

  /// Simulated I/O cost parameters (seq/random page cost).
  IoCostParams io;

  /// Scope for this store's instruments (record counters, fetch latency)
  /// in obs::MetricsRegistry::Default(). Empty allocates a unique "store/N"
  /// scope so independent stores never share counters. The buffer pool's
  /// and the I/O model's simulated counts are not registry instruments.
  std::string metrics_scope;

  /// Retry policy for transient (Unavailable) failures on record fetches —
  /// the "store/get" fault site. Defaults to 3 attempts, no backoff delay.
  fault::RetryPolicy get_retry;
};

/// Mutable collection of sets with paged storage and I/O accounting.
/// Internally synchronized: Add/Delete/Get/SimilarityTo/ScanAll take the
/// store's exclusive lock (fetches mutate the shared buffer pool's LRU
/// state and the I/O counters), while Contains, RecordSize and ReadView
/// reads share it — so any number of ReadViews may run concurrently with
/// writers. High-throughput concurrent readers still prefer ReadView
/// (private pool, no contention on the store's own pool).
class SetStore {
 public:
  explicit SetStore(SetStoreOptions options = SetStoreOptions());

  /// A per-worker read-only view: a private buffer pool (with the store's
  /// capacity) and a private I/O cost model over the store's immutable heap
  /// file and sid index. As long as no writer runs concurrently, any number
  /// of ReadViews may Get() in parallel — the only mutable state each
  /// touches is its own. The batch executor gives each worker one view and
  /// merges io_stats() deltas into per-query stats; process-wide store
  /// counters (gets, failures, latency) are still shared, which is safe
  /// (relaxed atomics). A view registers no metrics, so building one per
  /// query costs no registry growth.
  class ReadView {
   public:
    explicit ReadView(const SetStore& store);

    /// Identical semantics to SetStore::Get (fault retries included), but
    /// charges this view's pool and cost model only.
    Result<ElementSet> Get(SetId sid);

    /// Identical semantics to SetStore::SimilarityTo, charging this view's
    /// pool and cost model; spanned records go through a scratch buffer
    /// the view reuses across calls.
    Result<Similarity> SimilarityTo(SetId sid, const ElementSet& query);

    /// Identical semantics to SetStore::ScanAll (sequential-read charging
    /// included), against this view's cost model.
    void ScanAll(const std::function<bool(SetId, const ElementSet&)>& visitor);

    /// This view's accumulated simulated I/O.
    IoStats io_stats() const { return io_.stats(); }
    IoCostModel& io() { return io_; }
    const IoCostModel& io() const { return io_; }
    BufferPool& buffer_pool() { return pool_; }

   private:
    const SetStore* store_;
    BufferPool pool_;
    IoCostModel io_;
    std::vector<std::uint8_t> scratch_;  // spanned-record bytes
  };

  /// Adds a set, assigning the next dense SetId. `set` must be normalized
  /// (sorted unique); InvalidArgument otherwise.
  Result<SetId> Add(const ElementSet& set);

  /// Fetches a set by sid through the buffer pool, charging random reads
  /// on misses. NotFound for deleted/unknown sids. Transient page-fetch
  /// faults (the "store/get" site, surfaced as Unavailable) are retried
  /// under options.get_retry before the error escapes.
  Result<ElementSet> Get(SetId sid);

  /// The verification fetch: Jaccard(query, <sid's set>), computed against
  /// the record bytes in place — slotted records straight off the page,
  /// spanned ones through a reused scratch buffer — so no ElementSet is
  /// materialized. Everything else is Get's: the "store/get" fault site
  /// under get_retry, the same statuses (NotFound, DataLoss for quarantined
  /// pages, Corruption for a sid mismatch), per-page pool and I/O charging,
  /// and the gets/fetch-failure counters. Bit-identical to
  /// Jaccard(query, Get(sid).value()).
  Result<Similarity> SimilarityTo(SetId sid, const ElementSet& query);

  /// The element count of sid's record, read from its header without
  /// decoding the elements and without touching the pool or the I/O
  /// model. Fails like Get (NotFound, DataLoss, Corruption on a sid
  /// mismatch) but never retries: it is a metadata read for index loads.
  Result<std::uint32_t> RecordSize(SetId sid) const;

  /// Removes a set from the collection (unlinks it from the sid index; heap
  /// space is not reclaimed, as in a heap file without vacuum).
  Status Delete(SetId sid);

  /// True iff sid currently maps to a live record.
  bool Contains(SetId sid) const;

  /// Visits every live set in file order, charging one sequential read per
  /// distinct page in file order (the cost of a full-file scan). Returning
  /// false stops the scan early (the cost of remaining pages is not
  /// charged).
  void ScanAll(const std::function<bool(SetId, const ElementSet&)>& visitor);

  /// Number of live sets.
  std::size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return live_count_;
  }

  /// Total heap-file pages (the sequential-scan cost in pages).
  std::size_t num_pages() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return file_.num_pages();
  }

  /// Average live-record size in pages (fractional); the paper's crossover
  /// bound |Q| < |S| * a / rtn uses this "a".
  double AvgSetPages() const;

  IoCostModel& io() { return io_; }
  const IoCostModel& io() const { return io_; }
  BufferPool& buffer_pool() { return pool_; }
  const BufferPool& buffer_pool() const { return pool_; }
  const HeapFile& file() const { return file_; }

  /// The scope this store's instruments are registered under.
  const std::string& metrics_scope() const { return options_.metrics_scope; }

  /// Drops the buffer pool contents and zeroes I/O counters (between
  /// experiment phases).
  void ResetIoAccounting();

  /// Persists the collection (heap file + live-set index) as checksummed v2
  /// snapshots (storage/snapshot.h); Load reconstructs it under fresh
  /// `options` (buffer pool and I/O accounting start empty). Round-trips
  /// all live and deleted state.
  ///
  /// Strict loads (default) fail with a typed status on the first integrity
  /// error: DataLoss for truncation, Corruption for checksum mismatches,
  /// NotSupported for version skew. With `load_options.salvage`, damage in
  /// the heap's pages section is tolerated — corrupt pages are quarantined,
  /// records living on them are dropped from the live index (counted in
  /// ssr_recovery_* metrics and `load_options.report`), and the store comes
  /// up serving the surviving records.
  Status SaveTo(std::ostream& out) const;
  static Result<SetStore> Load(std::istream& in,
                               SetStoreOptions options = SetStoreOptions(),
                               const SnapshotLoadOptions& load_options = {});

  // Moves happen only while singly-owned (Load plumbing, shard setup) —
  // never concurrently with readers or writers; the lock is not moved.
  SetStore(SetStore&& other) noexcept;
  SetStore& operator=(SetStore&& other) noexcept;
  ~SetStore() = default;

 private:
  // The record fetch shared by Get and SimilarityTo on the store and its
  // views: sid lookup, the "store/get" fault site under get_retry, the
  // sid check, per-page charging to `pool`/`io`, and the store counters.
  // `use` maps the validated RecordView to the result while the caller
  // still holds mu_. Defined (and only instantiated) in set_store.cc.
  template <typename T, typename Use>
  Result<T> FetchRecord(SetId sid, BufferPool& pool, IoCostModel& io,
                        std::vector<std::uint8_t>* scratch, Use&& use) const;

  // sid's live-record locator, or NotFound. The caller holds mu_.
  Result<RecordLocator> Locate(SetId sid) const;

  // Guards file_/locators_/live_count_/pool_/io_/next_sid_/live_bytes_:
  // exclusive for mutations and pool-touching reads, shared for ReadView
  // fetches and pure lookups. Declared first so it outlives every guarded
  // member during destruction.
  mutable std::shared_mutex mu_;
  SetStoreOptions options_;
  HeapFile file_;
  // The sid index: locators_[sid] is sid's record, invalid once deleted;
  // locators_.size() == next_sid_.
  std::vector<RecordLocator> locators_;
  std::size_t live_count_ = 0;
  BufferPool pool_;
  IoCostModel io_;
  obs::Counter* sets_added_;      // ssr_store_sets_added_total
  obs::Counter* gets_;            // ssr_store_gets_total
  obs::Counter* scans_;           // ssr_store_scans_total
  obs::Counter* fetch_failures_;  // ssr_store_fetch_failures_total
  obs::Gauge* live_sets_;         // ssr_store_live_sets
  obs::Gauge* heap_pages_;        // ssr_store_heap_pages
  obs::Histogram* get_latency_hist_;  // ssr_store_get_latency_micros
  SetId next_sid_ = 0;
  std::uint64_t live_bytes_ = 0;
  std::vector<std::uint8_t> scratch_;  // spanned-record bytes; under mu_
};

}  // namespace ssr

#endif  // SSR_STORAGE_SET_STORE_H_
