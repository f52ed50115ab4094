// QueryRouter equivalence and scheduling tests: parallel scatter/gather
// answers are identical to the serial ShardedSetSimilarityIndex::Query at
// every worker count, batches match query-at-a-time routing, failure
// semantics follow the ShardFailurePolicy, and the modeled makespan
// bookkeeping behaves. These run under TSan in CI (tsan-critical label) —
// the scatter path is the only place shard stores are read concurrently.

#include "shard/query_router.h"

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "shard/sharded_index.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace shard {
namespace {

struct Fixture {
  SetCollection sets;
  std::unique_ptr<ShardedSetSimilarityIndex> index;
};

std::unique_ptr<Fixture> BuildFixture(std::size_t n, std::uint32_t num_shards,
                                      ShardFailurePolicy policy =
                                          ShardFailurePolicy::kPartialResults) {
  auto f = std::make_unique<Fixture>();
  Rng rng(8787);
  for (std::size_t i = 0; i < n; ++i) {
    ElementSet s;
    const std::size_t size = 10 + rng.Uniform(60);
    for (std::size_t j = 0; j < size; ++j) s.push_back(rng.Uniform(6000));
    NormalizeSet(s);
    if (s.empty()) s.push_back(1);
    f->sets.push_back(s);
  }
  IndexLayout layout;
  layout.delta = 0.4;
  layout.points = {{0.15, FilterKind::kDissimilarity, 8, 0},
                   {0.4, FilterKind::kDissimilarity, 8, 0},
                   {0.4, FilterKind::kSimilarity, 8, 0},
                   {0.75, FilterKind::kSimilarity, 8, 0}};
  ShardedIndexOptions options;
  options.num_shards = num_shards;
  options.index.embedding.minhash.num_hashes = 80;
  options.index.embedding.minhash.seed = 777;
  options.index.seed = 4242;
  options.on_shard_failure = policy;
  auto built = ShardedSetSimilarityIndex::Build(f->sets, layout, options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return nullptr;
  f->index =
      std::make_unique<ShardedSetSimilarityIndex>(std::move(built).value());
  return f;
}

std::vector<exec::BatchQuery> MakeBatch(const Fixture& f, std::size_t n,
                                        std::uint64_t seed) {
  std::vector<exec::BatchQuery> batch;
  Rng rng(seed);
  for (std::size_t t = 0; t < n; ++t) {
    exec::BatchQuery q;
    q.query = f.sets[rng.Uniform(f.sets.size())];
    q.sigma1 = rng.NextDouble() * 0.8;
    q.sigma2 = q.sigma1 + rng.NextDouble() * (1.0 - q.sigma1);
    batch.push_back(std::move(q));
  }
  return batch;
}

// Everything a serial and a routed answer share: sids, tags, per-shard
// status codes and the merged counters. stats.io (and the timings) are
// excluded — serial reads go through each shard store's buffer pool,
// routed reads through per-shard ReadViews, by design.
void ExpectSameAnswer(const ShardedQueryResult& routed,
                      const ShardedQueryResult& serial) {
  EXPECT_EQ(routed.sids, serial.sids);
  EXPECT_EQ(routed.partial, serial.partial);
  EXPECT_EQ(routed.rebalancing, serial.rebalancing);
  EXPECT_EQ(routed.degraded_shards, serial.degraded_shards);
  ASSERT_EQ(routed.shard_status.size(), serial.shard_status.size());
  for (std::size_t s = 0; s < routed.shard_status.size(); ++s) {
    EXPECT_EQ(routed.shard_status[s].code(), serial.shard_status[s].code())
        << "shard " << s;
  }
  const QueryStats& a = routed.stats;
  const QueryStats& b = serial.stats;
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.bucket_accesses, b.bucket_accesses);
  EXPECT_EQ(a.bucket_pages, b.bucket_pages);
  EXPECT_EQ(a.sids_scanned, b.sids_scanned);
  EXPECT_EQ(a.sets_fetched, b.sets_fetched);
  EXPECT_EQ(a.length_pruned, b.length_pruned);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.probe_failures, b.probe_failures);
  EXPECT_EQ(a.fetch_failures, b.fetch_failures);
  EXPECT_EQ(a.retry_attempts, b.retry_attempts);
  ASSERT_EQ(a.fi_probes.size(), b.fi_probes.size());
  for (std::size_t i = 0; i < a.fi_probes.size(); ++i) {
    EXPECT_EQ(a.fi_probes[i].fi, b.fi_probes[i].fi);
    EXPECT_EQ(a.fi_probes[i].bucket_accesses, b.fi_probes[i].bucket_accesses);
    EXPECT_EQ(a.fi_probes[i].sids, b.fi_probes[i].sids);
    EXPECT_EQ(a.fi_probes[i].failed, b.fi_probes[i].failed);
  }
}

TEST(QueryRouterTest, MatchesSerialQueryAtEveryWorkerCount) {
  auto f = BuildFixture(250, 4);
  ASSERT_NE(f, nullptr);
  const auto batch = MakeBatch(*f, 30, 11);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    QueryRouterOptions options;
    options.num_threads = threads;
    QueryRouter router(*f->index, options);
    ASSERT_EQ(router.num_threads(), threads);
    for (const exec::BatchQuery& q : batch) {
      auto serial = f->index->Query(q.query, q.sigma1, q.sigma2);
      auto routed = router.Query(q.query, q.sigma1, q.sigma2);
      ASSERT_TRUE(serial.ok());
      ASSERT_TRUE(routed.ok()) << routed.status().ToString();
      EXPECT_EQ(routed->sids, serial->sids) << "threads " << threads;
      EXPECT_EQ(routed->partial, serial->partial);
      // The gather is in shard order on both paths, so even the merged
      // stats agree counter for counter.
      EXPECT_EQ(routed->stats.candidates, serial->stats.candidates);
      EXPECT_EQ(routed->stats.bucket_accesses, serial->stats.bucket_accesses);
      EXPECT_EQ(routed->stats.sets_fetched, serial->stats.sets_fetched);
      EXPECT_EQ(routed->stats.results, serial->stats.results);
      ASSERT_EQ(routed->per_shard.size(), serial->per_shard.size());
      for (std::size_t s = 0; s < routed->per_shard.size(); ++s) {
        EXPECT_EQ(routed->per_shard[s].candidates,
                  serial->per_shard[s].candidates)
            << "shard " << s;
      }
    }
  }
}

TEST(QueryRouterTest, BatchMatchesQueryAtATimeRouting) {
  auto f = BuildFixture(250, 4);
  ASSERT_NE(f, nullptr);
  const auto batch = MakeBatch(*f, 50, 22);
  QueryRouterOptions options;
  options.num_threads = 4;
  QueryRouter router(*f->index, options);
  RoutedBatchResult result = router.RunBatch(batch);
  EXPECT_EQ(result.queries, batch.size());
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.threads_used, 4u);
  ASSERT_EQ(result.results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(result.statuses[i].ok()) << result.statuses[i].ToString();
    auto serial =
        f->index->Query(batch[i].query, batch[i].sigma1, batch[i].sigma2);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(result.results[i].sids, serial->sids) << "query " << i;
  }
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_GE(result.merge_seconds, 0.0);
  EXPECT_GT(result.modeled_makespan_seconds, 0.0);
  EXPECT_GT(result.modeled_qps, 0.0);
  // The modeled makespan treats shards as concurrent machines: the slowest
  // shard's batch makespan plus the merge, never the per-shard sum.
  double max_shard = 0.0, sum_shard = 0.0;
  for (const exec::BatchResult& br : result.per_shard) {
    max_shard = std::max(max_shard, br.modeled_makespan_seconds);
    sum_shard += br.modeled_makespan_seconds;
  }
  EXPECT_DOUBLE_EQ(result.modeled_makespan_seconds,
                   max_shard + result.merge_seconds);
  EXPECT_LE(max_shard, sum_shard);
}

TEST(QueryRouterTest, InvalidRangePropagatesAsInvalidArgument) {
  auto f = BuildFixture(60, 3);
  ASSERT_NE(f, nullptr);
  QueryRouter router(*f->index);
  ElementSet unsorted = f->sets[0];
  ASSERT_GE(unsorted.size(), 2u);
  std::swap(unsorted[0], unsorted[1]);

  // Serial and routed queries reject a malformed query before the scatter:
  // no shard index counts a query, no shard probe is timed.
  auto& registry = obs::MetricsRegistry::Default();
  std::vector<obs::Counter*> shard_queries;
  std::vector<obs::Histogram*> shard_latency;
  for (std::uint32_t s = 0; s < f->index->num_shards(); ++s) {
    const std::string shard = "/shard/" + std::to_string(s);
    shard_queries.push_back(registry.GetCounter(
        "ssr_index_queries_total", f->index->metrics_scope() + shard +
                                       "/index"));
    shard_latency.push_back(registry.GetHistogram(
        "ssr_router_shard_latency_micros", router.metrics_scope() + shard,
        obs::LatencyBoundsMicros()));
  }
  const auto counts = [&] {
    std::vector<std::uint64_t> out;
    for (const obs::Counter* c : shard_queries) out.push_back(c->value());
    for (const obs::Histogram* h : shard_latency) out.push_back(h->count());
    return out;
  };
  const std::vector<std::uint64_t> before = counts();
  for (const auto& [q, s1, s2] :
       {std::tuple{f->sets[0], 0.9, 0.2}, std::tuple{unsorted, 0.2, 0.9}}) {
    auto r = router.Query(q, s1, s2);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalidArgument());
    auto serial = f->index->Query(q, s1, s2);
    ASSERT_FALSE(serial.ok());
    EXPECT_TRUE(serial.status().IsInvalidArgument());
  }
  EXPECT_EQ(counts(), before) << "a malformed query reached a shard";

  // In a batch, only the malformed queries fail.
  auto batch = MakeBatch(*f, 4, 33);
  exec::BatchQuery bad;
  bad.query = f->sets[0];
  bad.sigma1 = 0.9;
  bad.sigma2 = 0.2;
  batch.insert(batch.begin() + 1, bad);
  bad.query = unsorted;
  bad.sigma1 = 0.2;
  bad.sigma2 = 0.9;
  batch.insert(batch.begin() + 3, bad);
  RoutedBatchResult result = router.RunBatch(batch);
  EXPECT_EQ(result.failed, 2u);
  EXPECT_TRUE(result.statuses[1].IsInvalidArgument());
  EXPECT_TRUE(result.statuses[3].IsInvalidArgument());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i == 1 || i == 3) continue;
    EXPECT_TRUE(result.statuses[i].ok()) << "query " << i;
  }
}

TEST(QueryRouterTest, DegradedShardTagsPartialAnswersInBothPaths) {
  auto f = BuildFixture(200, 4);
  ASSERT_NE(f, nullptr);
  f->index->SetShardDegraded(1, true);
  QueryRouterOptions options;
  options.num_threads = 4;
  QueryRouter router(*f->index, options);

  const auto batch = MakeBatch(*f, 20, 44);
  for (const exec::BatchQuery& q : batch) {
    auto serial = f->index->Query(q.query, q.sigma1, q.sigma2);
    auto routed = router.Query(q.query, q.sigma1, q.sigma2);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(routed.ok());
    EXPECT_TRUE(routed->partial);
    EXPECT_TRUE(routed->stats.degraded);
    ASSERT_EQ(routed->degraded_shards.size(), 1u);
    EXPECT_EQ(routed->degraded_shards[0], 1u);
    EXPECT_TRUE(routed->shard_status[1].IsUnavailable());
    ExpectSameAnswer(*routed, *serial);
  }

  RoutedBatchResult result = router.RunBatch(batch);
  EXPECT_EQ(result.failed, 0u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(result.statuses[i].ok());
    EXPECT_TRUE(result.results[i].partial) << "query " << i;
    auto serial =
        f->index->Query(batch[i].query, batch[i].sigma1, batch[i].sigma2);
    ASSERT_TRUE(serial.ok());
    SCOPED_TRACE("batch query " + std::to_string(i));
    ExpectSameAnswer(result.results[i], *serial);
  }
}

TEST(QueryRouterTest, DegradedShardFailsQueriesUnderFailFast) {
  auto f = BuildFixture(100, 3, ShardFailurePolicy::kFailFast);
  ASSERT_NE(f, nullptr);
  f->index->SetShardDegraded(2, true);
  QueryRouterOptions options;
  options.num_threads = 2;
  QueryRouter router(*f->index, options);

  auto r = router.Query(f->sets[0], 0.0, 1.0);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  auto serial = f->index->Query(f->sets[0], 0.0, 1.0);
  ASSERT_FALSE(serial.ok());
  EXPECT_TRUE(serial.status().IsUnavailable());

  const auto batch = MakeBatch(*f, 6, 55);
  RoutedBatchResult result = router.RunBatch(batch);
  EXPECT_EQ(result.failed, batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(result.statuses[i].IsUnavailable())
        << result.statuses[i].ToString();
    auto one = f->index->Query(batch[i].query, batch[i].sigma1,
                               batch[i].sigma2);
    ASSERT_FALSE(one.ok());
    EXPECT_TRUE(one.status().IsUnavailable()) << one.status().ToString();
  }
}

TEST(QueryRouterTest, SingleShardRoutingDegeneratesToPlainBatching) {
  auto f = BuildFixture(150, 1);
  ASSERT_NE(f, nullptr);
  const auto batch = MakeBatch(*f, 25, 66);
  QueryRouterOptions options;
  options.num_threads = 4;
  QueryRouter router(*f->index, options);
  RoutedBatchResult routed = router.RunBatch(batch);

  exec::BatchExecutorOptions exec_options;
  exec_options.num_threads = 4;
  exec::BatchExecutor executor(*f->index->shard_index(0), exec_options);
  exec::BatchResult plain = executor.Run(batch);

  ASSERT_EQ(routed.results.size(), plain.results.size());
  EXPECT_EQ(routed.failed, plain.failed);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(routed.results[i].sids, plain.results[i].sids) << "query " << i;
  }
}

}  // namespace
}  // namespace shard
}  // namespace ssr
