#include "shard/query_router.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "exec/epoch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace ssr {
namespace shard {

using ShardReply = ShardedSetSimilarityIndex::ShardReply;

QueryRouter::QueryRouter(const ShardedSetSimilarityIndex& index,
                         QueryRouterOptions options)
    : index_(&index),
      options_(options),
      pool_(exec::ResolveThreadCount(options.num_threads)) {
  auto& registry = obs::MetricsRegistry::Default();
  if (options_.metrics_scope.empty()) {
    options_.metrics_scope = registry.NewScope("router");
  }
  const std::vector<double> bounds = obs::LatencyBoundsMicros();
  shard_latency_.reserve(index_->num_shards());
  for (std::uint32_t s = 0; s < index_->num_shards(); ++s) {
    shard_latency_.push_back(registry.GetHistogram(
        "ssr_router_shard_latency_micros",
        options_.metrics_scope + "/shard/" + std::to_string(s), bounds));
  }
  query_latency_ = registry.GetHistogram("ssr_router_query_latency_micros",
                                         options_.metrics_scope, bounds);
}

void QueryRouter::ObserveRoutedAnswer(const ElementSet& query, double sigma1,
                                      double sigma2,
                                      const ShardedQueryResult& result) {
  obs::WorkloadObserver* const target = options_.workload_observer;
  if (target == nullptr) return;
  target->CountQuery(sigma1, sigma2, query.size());
  // The merged stats carry per-FI probe totals summed across shards, so one
  // routed query contributes exactly one probe record per FI, like serial.
  for (const auto& p : result.stats.fi_probes) {
    target->CountFiProbe(p.fi, p.bucket_accesses, p.sids, p.failed);
  }
  for (std::size_t s = 0; s < result.per_shard.size(); ++s) {
    if (s < result.shard_status.size() && !result.shard_status[s].ok()) {
      continue;  // degraded shard did no work for this query
    }
    target->CountShardAnswer(s, result.per_shard[s].results);
  }
  target->OfferSample(query, sigma1, sigma2, result.sids,
                      result.stats.candidates);
}

Result<ShardedQueryResult> QueryRouter::Query(const ElementSet& query,
                                              double sigma1, double sigma2) {
  static obs::Counter* const queries =
      obs::MetricsRegistry::Default().GetCounter("ssr_router_queries_total");
  static obs::Counter* const partials = obs::MetricsRegistry::Default()
      .GetCounter("ssr_router_partial_answers_total");
  queries->Increment();

  // End-to-end latency covers every exit path (including rejected queries:
  // a caller-bug rejection is still time the front end spent answering).
  struct LatencyGuard {
    Stopwatch watch;
    obs::Histogram* hist;
    ~LatencyGuard() { hist->Observe(watch.ElapsedSeconds() * 1e6); }
  } latency_guard{Stopwatch(), query_latency_};

  // Pin an epoch for the whole scatter/gather: shard slots and routing
  // tables loaded here — or by the workers, which finish before it drops —
  // stay dereferenceable even if a concurrent rebalance retires them.
  std::optional<exec::EpochGuard> epoch_guard;
  if (index_->epoch_manager() != nullptr) {
    epoch_guard.emplace(*index_->epoch_manager());
  }
  const std::uint32_t num_shards = index_->num_shards();
  obs::TraceSpan span("router_query");
  span.Tag("shards", static_cast<std::uint64_t>(num_shards));
  span.Tag("workers", static_cast<std::uint64_t>(pool_.size()));
  // Validated and signed once; a malformed query never reaches a shard.
  Signature sig;
  SSR_ASSIGN_OR_RETURN(sig, index_->SignQuery(query, sigma1, sigma2));
  const bool rebalancing = index_->rebalancing();

  // Scatter, the routed runner: every healthy shard answers concurrently
  // through its own ReadView (private buffer pool + I/O model), so the
  // only shared state the workers touch is read-only index structure.
  // Replies are per-shard, so writes are index-disjoint.
  std::vector<ShardReply> replies(num_shards);
  {
    obs::TraceSpan scatter("router_scatter");
    pool_.ParallelFor(0, num_shards, 1, [&](std::size_t s, std::size_t) {
      replies[s] = index_->RunShard(
          static_cast<std::uint32_t>(s),
          [&](const SetStore& store, const SetSimilarityIndex& shard_index) {
            Stopwatch probe_watch;
            SetStore::ReadView view(store);
            std::vector<SetId> scratch;
            auto r = shard_index.QuerySigned(query, sig, sigma1, sigma2,
                                             &view, &scratch);
            // Shards added by a grow rebalance after router construction
            // have no histogram slot; their latency is uncounted until a
            // new router.
            if (s < shard_latency_.size()) {
              shard_latency_[s]->Observe(probe_watch.ElapsedSeconds() * 1e6);
            }
            return r;
          });
    });
  }

  // Gather in shard order — deterministic regardless of which worker
  // finished when.
  obs::TraceSpan gather("router_gather");
  auto result = index_->GatherShards(
      num_shards, rebalancing,
      [&](std::uint32_t s) { return std::move(replies[s]); });
  if (!result.ok()) return result.status();
  if (result->partial) partials->Increment();
  if (options_.workload_observer != nullptr) {
    ObserveRoutedAnswer(query, sigma1, sigma2, *result);
    options_.workload_observer->UpdateGauges();
  }
  span.Tag("results", static_cast<std::uint64_t>(result->sids.size()));
  return result;
}

RoutedBatchResult QueryRouter::RunBatch(
    const std::vector<exec::BatchQuery>& queries) {
  static obs::Counter* const batches =
      obs::MetricsRegistry::Default().GetCounter("ssr_router_batches_total");
  static obs::Counter* const batch_queries = obs::MetricsRegistry::Default()
      .GetCounter("ssr_router_batch_queries_total");
  batches->Increment();
  batch_queries->Add(queries.size());

  // Pinned for the whole batch: shard objects loaded below survive a
  // concurrent shrink (inner copy-on-write structures are protected by the
  // per-query pins the executors' workers take themselves).
  std::optional<exec::EpochGuard> epoch_guard;
  if (index_->epoch_manager() != nullptr) {
    epoch_guard.emplace(*index_->epoch_manager());
  }
  const std::uint32_t num_shards = index_->num_shards();
  const bool rebalancing = index_->rebalancing();
  Stopwatch wall;
  obs::TraceSpan span("router_batch");
  span.Tag("queries", static_cast<std::uint64_t>(queries.size()));
  span.Tag("shards", static_cast<std::uint64_t>(num_shards));

  RoutedBatchResult out;
  out.queries = queries.size();
  out.threads_used = pool_.size();
  out.statuses.resize(queries.size());
  out.results.resize(queries.size());
  out.per_shard.resize(num_shards);
  // Validated before the scatter: a malformed query fails alone, whatever
  // the shards make of it.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    out.statuses[i] = SetSimilarityIndex::ValidateQuery(
        queries[i].query, queries[i].sigma1, queries[i].sigma2);
  }

  // Scatter, the batch runner: each shard runs the whole batch through a
  // BatchExecutor on the router's shared pool. Shard batches execute one
  // after another on this host (the pool is not reentrant), but deploy to
  // one machine per shard — the modeled makespan below is the slowest
  // shard, not the sum.
  std::vector<ShardReply> shard_replies;
  shard_replies.reserve(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    shard_replies.push_back(index_->RunShard(
        s, [&](const SetStore&, const SetSimilarityIndex& shard_index) {
          obs::TraceSpan shard_span("router_shard_batch");
          shard_span.Tag("shard", static_cast<std::uint64_t>(s));
          exec::BatchExecutor executor(shard_index, pool_);
          out.per_shard[s] = executor.Run(queries);
          // One observation per batch: the shard's host wall clock, the
          // honest per-shard figure the latency histogram tracks in batch
          // mode. Shards grown after router construction have no slot.
          if (s < shard_latency_.size()) {
            shard_latency_[s]->Observe(out.per_shard[s].wall_seconds * 1e6);
          }
          out.modeled_makespan_seconds =
              std::max(out.modeled_makespan_seconds,
                       out.per_shard[s].modeled_makespan_seconds);
          return QueryResult{};
        }));
  }

  // Gather: per query, the shard-order gather over that query's slice of
  // each shard's batch (a shard that answered the batch can still fail
  // one query).
  Stopwatch merge_watch;
  {
    obs::TraceSpan gather("router_gather");
    gather.Tag("queries", static_cast<std::uint64_t>(queries.size()));
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (!out.statuses[i].ok()) {
        ++out.failed;
        continue;
      }
      auto merged = index_->GatherShards(
          num_shards, rebalancing, [&](std::uint32_t s) {
            ShardReply reply = shard_replies[s];
            if (reply.outcome == ShardReply::Outcome::kAnswered) {
              reply.status = out.per_shard[s].statuses[i];
              if (!reply.status.ok()) {
                reply.outcome = ShardReply::Outcome::kFailed;
              }
              reply.answer = std::move(out.per_shard[s].results[i]);
            }
            return reply;
          });
      if (!merged.ok()) {
        out.statuses[i] = merged.status();
        ++out.failed;
        continue;
      }
      out.results[i] = std::move(merged).value();
    }
  }
  if (options_.workload_observer != nullptr) {
    // Serial post-gather pass in input order, exactly like BatchExecutor:
    // deterministic decimation for the sampled side channels.
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (!out.statuses[i].ok()) continue;
      ObserveRoutedAnswer(queries[i].query, queries[i].sigma1,
                          queries[i].sigma2, out.results[i]);
    }
    options_.workload_observer->UpdateGauges();
  }
  out.merge_seconds = merge_watch.ElapsedSeconds();
  out.wall_seconds = wall.ElapsedSeconds();
  out.modeled_makespan_seconds += out.merge_seconds;
  if (out.modeled_makespan_seconds > 0.0) {
    out.modeled_qps =
        static_cast<double>(out.queries) / out.modeled_makespan_seconds;
  }
  span.Tag("failed", static_cast<std::uint64_t>(out.failed));
  span.Tag("modeled_qps", out.modeled_qps);
  return out;
}

}  // namespace shard
}  // namespace ssr
