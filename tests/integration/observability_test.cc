// Integration of the obs/ subsystem with the query pipeline: the QueryStats
// a query returns must be exact before/after deltas of the registry
// instruments, and an enabled tracer must capture the phase spans the
// design documents (query -> embed/plan/verify, probe_fi under plan).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/index_layout.h"
#include "core/set_similarity_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/set_store.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace {

ElementSet RandomSet(Rng& rng, std::size_t size, std::uint64_t universe) {
  ElementSet s;
  s.reserve(size);
  for (std::size_t i = 0; i < size; ++i) s.push_back(rng.Uniform(universe));
  NormalizeSet(s);
  return s;
}

struct Env {
  std::unique_ptr<SetStore> store;
  std::unique_ptr<SetSimilarityIndex> index;
  std::vector<ElementSet> sets;
};

Env MakeEnv(std::size_t num_sets = 400) {
  Env env;
  SetStoreOptions store_options;
  store_options.buffer_pool_pages = 16;  // small: force misses and evictions
  env.store = std::make_unique<SetStore>(store_options);
  Rng rng(0x0b5e7e57ULL);
  for (std::size_t i = 0; i < num_sets; ++i) {
    env.sets.push_back(RandomSet(rng, 30, 1 << 14));
    EXPECT_TRUE(env.store->Add(env.sets.back()).ok());
  }
  IndexLayout layout;
  layout.delta = 0.3;
  layout.points.push_back({0.2, FilterKind::kDissimilarity, 4, 0});
  layout.points.push_back({0.5, FilterKind::kSimilarity, 4, 0});
  layout.points.push_back({0.8, FilterKind::kSimilarity, 4, 0});
  IndexOptions options;
  options.embedding.minhash.num_hashes = 60;
  options.embedding.minhash.value_bits = 8;
  auto index = SetSimilarityIndex::Build(*env.store, layout, options);
  EXPECT_TRUE(index.ok());
  env.index = std::make_unique<SetSimilarityIndex>(std::move(index).value());
  return env;
}

std::uint64_t CounterValue(const std::string& name, const std::string& scope) {
  return obs::MetricsRegistry::Default().GetCounter(name, scope)->value();
}

TEST(ObservabilityIntegrationTest, IndexAndStoreGetDistinctScopes) {
  Env a = MakeEnv(50);
  Env b = MakeEnv(50);
  EXPECT_FALSE(a.index->metrics_scope().empty());
  EXPECT_FALSE(a.store->metrics_scope().empty());
  EXPECT_NE(a.index->metrics_scope(), b.index->metrics_scope());
  EXPECT_NE(a.store->metrics_scope(), b.store->metrics_scope());
  EXPECT_EQ(a.index->metrics_scope().rfind("index/", 0), 0u);
  EXPECT_EQ(a.store->metrics_scope().rfind("store/", 0), 0u);
}

TEST(ObservabilityIntegrationTest, QueryStatsAreRegistryDeltas) {
  Env env = MakeEnv();
  const std::string& scope = env.index->metrics_scope();
  const std::string& store_scope = env.store->metrics_scope();

  struct Snapshot {
    std::uint64_t queries, bucket_accesses, bucket_pages, sids_scanned;
    std::uint64_t sets_fetched, length_pruned, results, random_reads;
  };
  const auto snapshot = [&] {
    return Snapshot{
        CounterValue("ssr_index_queries_total", scope),
        CounterValue("ssr_index_bucket_accesses_total", scope),
        CounterValue("ssr_index_bucket_pages_total", scope),
        CounterValue("ssr_index_sids_scanned_total", scope),
        CounterValue("ssr_index_sets_fetched_total", scope),
        CounterValue("ssr_index_length_pruned_total", scope),
        CounterValue("ssr_index_results_total", scope),
        CounterValue("ssr_io_random_reads_total", store_scope),
    };
  };

  for (const auto& [lo, up] : std::vector<std::pair<double, double>>{
           {0.55, 0.95}, {0.05, 0.25}, {0.1, 0.9}, {0.0, 1.0}}) {
    const Snapshot before = snapshot();
    auto result = env.index->Query(env.sets[7], lo, up);
    ASSERT_TRUE(result.ok());
    const Snapshot after = snapshot();
    const QueryStats& stats = result->stats;
    EXPECT_EQ(after.queries - before.queries, 1u);
    EXPECT_EQ(after.bucket_accesses - before.bucket_accesses,
              stats.bucket_accesses);
    EXPECT_EQ(after.bucket_pages - before.bucket_pages, stats.bucket_pages);
    EXPECT_EQ(after.sids_scanned - before.sids_scanned, stats.sids_scanned);
    EXPECT_EQ(after.sets_fetched - before.sets_fetched, stats.sets_fetched);
    EXPECT_EQ(after.length_pruned - before.length_pruned, stats.length_pruned);
    EXPECT_EQ(after.results - before.results, stats.results);
    EXPECT_EQ(after.random_reads - before.random_reads,
              stats.io.random_reads);
    if (stats.plan == QueryPlanKind::kFullCollection && lo <= 0.0 &&
        up >= 1.0) {
      // [0, 1] needs no verification, hence no fetches.
      EXPECT_EQ(stats.sets_fetched, 0u);
      EXPECT_EQ(stats.length_pruned, 0u);
    } else {
      // Every candidate is either dropped by the length bound or fetched.
      EXPECT_EQ(stats.sets_fetched + stats.length_pruned, stats.candidates);
    }
  }
}

TEST(ObservabilityIntegrationTest, StatsViewsAgreeWithInstruments) {
  Env env = MakeEnv();
  (void)env.index->Query(env.sets[3], 0.5, 1.0);
  const std::string& store_scope = env.store->metrics_scope();
  const BufferPoolStats pool = env.store->buffer_pool().stats();
  EXPECT_EQ(pool.hits,
            CounterValue("ssr_buffer_pool_hits_total", store_scope));
  EXPECT_EQ(pool.misses,
            CounterValue("ssr_buffer_pool_misses_total", store_scope));
  EXPECT_EQ(pool.evictions,
            CounterValue("ssr_buffer_pool_evictions_total", store_scope));
  const IoStats io = env.store->io().stats();
  EXPECT_EQ(io.sequential_reads,
            CounterValue("ssr_io_sequential_reads_total", store_scope));
  EXPECT_EQ(io.random_reads,
            CounterValue("ssr_io_random_reads_total", store_scope));
  EXPECT_EQ(io.page_writes,
            CounterValue("ssr_io_page_writes_total", store_scope));
  EXPECT_GT(io.random_reads, 0u);  // candidate fetches are random reads
}

TEST(ObservabilityIntegrationTest, LiveSetsGaugeTracksInsertAndErase) {
  Env env = MakeEnv(100);
  obs::Gauge* gauge = obs::MetricsRegistry::Default().GetGauge(
      "ssr_index_live_sets", env.index->metrics_scope());
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value(), 100.0);
  ASSERT_TRUE(env.index->Erase(5).ok());
  EXPECT_DOUBLE_EQ(gauge->value(), 99.0);
  auto sid = env.store->Add(env.sets[5]);
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(env.index->Insert(sid.value(), env.sets[5]).ok());
  EXPECT_DOUBLE_EQ(gauge->value(), 100.0);
}

TEST(ObservabilityIntegrationTest, TracerCapturesQueryPhaseSpans) {
  Env env = MakeEnv();
  obs::Tracer& tracer = obs::Tracer::Default();
  tracer.Clear();
  tracer.set_enabled(true);
  auto result = env.index->Query(env.sets[11], 0.5, 0.95);
  tracer.set_enabled(false);
  ASSERT_TRUE(result.ok());

  const auto spans = tracer.Snapshot();
  tracer.Clear();
  const auto find = [&](const std::string& name) {
    return std::find_if(spans.begin(), spans.end(),
                        [&](const obs::SpanRecord& s) {
                          return s.name == name;
                        });
  };
  const auto root = find("query");
  ASSERT_NE(root, spans.end());
  EXPECT_EQ(root->depth, 0u);
  for (const char* phase : {"embed", "plan", "verify"}) {
    const auto child = find(phase);
    ASSERT_NE(child, spans.end()) << "missing span " << phase;
    EXPECT_EQ(child->parent_id, root->id);
    EXPECT_EQ(child->depth, 1u);
  }
  const auto probe = find("probe_fi");
  ASSERT_NE(probe, spans.end());
  EXPECT_EQ(probe->depth, 2u);

  // The root span carries the plan tags the JSON artifact relies on.
  bool saw_plan = false, saw_candidates = false;
  for (const auto& [key, value] : root->tags) {
    if (key == "plan") {
      saw_plan = true;
      EXPECT_EQ(value, QueryPlanKindName(result->stats.plan));
    }
    if (key == "candidates") {
      saw_candidates = true;
      EXPECT_EQ(value, std::to_string(result->stats.candidates));
    }
  }
  EXPECT_TRUE(saw_plan);
  EXPECT_TRUE(saw_candidates);
}

TEST(ObservabilityIntegrationTest, DisabledTracerRecordsNothingDuringQuery) {
  Env env = MakeEnv(100);
  obs::Tracer& tracer = obs::Tracer::Default();
  tracer.Clear();
  ASSERT_FALSE(tracer.enabled());
  ASSERT_TRUE(env.index->Query(env.sets[1], 0.5, 0.95).ok());
  EXPECT_TRUE(tracer.Snapshot().empty());
}

}  // namespace
}  // namespace ssr
