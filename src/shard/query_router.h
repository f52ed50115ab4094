// QueryRouter: the parallel scatter/gather front end of the sharded index.
// A single query is validated and signed once, then fans out to every
// shard on the router's thread pool (one ReadView per shard, so shards are
// queried concurrently without touching each other's buffer pools); a
// batch goes through one BatchExecutor per shard, every executor
// scheduling on the router's one shared pool. Either way each shard is
// classified by the index's one RunShard and the answers are gathered *in
// shard order* by its one GatherShards — the serial
// ShardedSetSimilarityIndex::Query differs only in the per-shard runner.
// Router and serial answers therefore agree on sids, tags and merged
// counters (the differential harness, tests/difftest/, holds the sids
// equal); stats.io does not, since routed reads go through per-shard
// ReadViews and serial reads through each shard store's buffer pool.
//
// Failure semantics are inherited from the index's ShardFailurePolicy: a
// degraded or erroring shard either fails the query (kFailFast) or is
// skipped with the answer tagged partial + degraded (kPartialResults).

#ifndef SSR_SHARD_QUERY_ROUTER_H_
#define SSR_SHARD_QUERY_ROUTER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "exec/batch_executor.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/workload_observer.h"
#include "shard/sharded_index.h"
#include "util/result.h"
#include "util/types.h"

namespace ssr {
namespace shard {

struct QueryRouterOptions {
  /// Worker threads for the router's pool: 0 = resolve from SSR_THREADS /
  /// hardware concurrency (exec::ResolveThreadCount), 1 = serial.
  std::size_t num_threads = 0;

  /// Scope for this router's per-shard instruments
  /// (ssr_router_shard_latency_micros under <scope>/shard/<s>). Empty
  /// allocates a unique "router/N" scope.
  std::string metrics_scope;

  /// Workload capture target (not owned; may be null). The router counts
  /// each routed query once — thresholds, set size, merged per-FI probes —
  /// plus per-shard load (CountShardAnswer), and offers completed answers
  /// to the observer's sampled side channels. Shard-level executors do NOT
  /// get the observer (that would count every query once per shard). Must
  /// outlive the router's queries.
  obs::WorkloadObserver* workload_observer = nullptr;
};

/// The outcome of one QueryRouter::RunBatch.
struct RoutedBatchResult {
  /// Per-query status/result, in input order. results[i] is meaningful iff
  /// statuses[i].ok(); a query can fail while its neighbors succeed
  /// (kFailFast with a degraded shard fails every query in the batch).
  std::vector<Status> statuses;
  std::vector<ShardedQueryResult> results;

  std::size_t queries = 0;
  std::size_t failed = 0;
  std::size_t threads_used = 0;

  /// Host wall clock for the whole batch (scatter + gather), and for the
  /// gather/merge alone.
  double wall_seconds = 0.0;
  double merge_seconds = 0.0;

  /// Per-shard batch execution reports, by shard. Default-initialized for
  /// shards that were skipped (degraded).
  std::vector<exec::BatchResult> per_shard;

  /// Modeled batch runtime when every shard runs on its own machine: the
  /// slowest shard's modeled batch makespan plus the (measured) merge time
  /// at the router. modeled_qps = queries / that.
  double modeled_makespan_seconds = 0.0;
  double modeled_qps = 0.0;
};

/// Scatters queries across a ShardedSetSimilarityIndex's shards on a shared
/// thread pool and gathers deterministically. After the index's
/// EnableConcurrentWrites, Query/RunBatch may run concurrently with
/// Insert/Erase and an online rebalance (the router pins epochs around
/// every scatter; mid-rebalance answers come back tagged rebalancing +
/// partial). Without it, the index must not be mutated while a
/// Query/RunBatch is in flight (SetShardDegraded included).
class QueryRouter {
 public:
  explicit QueryRouter(const ShardedSetSimilarityIndex& index,
                       QueryRouterOptions options = {});

  /// One query, validated and signed once, then scattered to all shards in
  /// parallel. Sids, tags and merged counters equal the serial
  /// ShardedSetSimilarityIndex::Query's; stats.io and timings do not.
  Result<ShardedQueryResult> Query(const ElementSet& query, double sigma1,
                                   double sigma2);

  /// A batch of queries: one BatchExecutor per shard on the router's pool
  /// (shard batches run one after another on this host; the modeled
  /// makespan treats them as concurrent machines), then a per-query gather
  /// in shard order.
  RoutedBatchResult RunBatch(const std::vector<exec::BatchQuery>& queries);

  std::size_t num_threads() const { return pool_.size(); }
  const std::string& metrics_scope() const { return options_.metrics_scope; }

 private:
  /// Feeds one merged answer to the workload observer (counts + sampled
  /// side channels + per-shard load). No-op when no observer is attached.
  void ObserveRoutedAnswer(const ElementSet& query, double sigma1,
                           double sigma2, const ShardedQueryResult& result);

  const ShardedSetSimilarityIndex* index_;
  QueryRouterOptions options_;
  exec::ThreadPool pool_;
  /// Per-shard gather-latency histograms under <scope>/shard/<s>: the wall
  /// time of each shard's probe in Query, and each shard's batch makespan
  /// in RunBatch. This is where shard skew becomes visible — the modeled
  /// makespan scalar only reports the max.
  std::vector<obs::Histogram*> shard_latency_;
  /// End-to-end routed query latency (scatter + gather + merge) under the
  /// router's scope: the series the SLO windows track for the sharded
  /// front end, the sharded counterpart of ssr_index_query_latency_micros.
  obs::Histogram* query_latency_;
};

}  // namespace shard
}  // namespace ssr

#endif  // SSR_SHARD_QUERY_ROUTER_H_
