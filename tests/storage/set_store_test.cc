#include "storage/set_store.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace {

ElementSet MakeSet(std::size_t n, ElementId base = 0) {
  ElementSet s;
  for (std::size_t i = 0; i < n; ++i) s.push_back(base + i);
  return s;
}

TEST(SetStoreTest, AddAssignsDenseSids) {
  SetStore store;
  EXPECT_EQ(store.Add(MakeSet(3)).value(), 0u);
  EXPECT_EQ(store.Add(MakeSet(4)).value(), 1u);
  EXPECT_EQ(store.Add(MakeSet(5)).value(), 2u);
  EXPECT_EQ(store.size(), 3u);
}

TEST(SetStoreTest, RejectsUnnormalizedSets) {
  SetStore store;
  EXPECT_TRUE(store.Add({3, 1, 2}).status().IsInvalidArgument());
  EXPECT_TRUE(store.Add({1, 1}).status().IsInvalidArgument());
}

TEST(SetStoreTest, GetRoundTrips) {
  SetStore store;
  const ElementSet set = MakeSet(10, 42);
  const SetId sid = store.Add(set).value();
  auto got = store.Get(sid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), set);
}

TEST(SetStoreTest, GetUnknownSidFails) {
  SetStore store;
  EXPECT_TRUE(store.Get(99).status().IsNotFound());
}

TEST(SetStoreTest, DeleteUnlinksButKeepsOthers) {
  SetStore store;
  const SetId a = store.Add(MakeSet(3, 0)).value();
  const SetId b = store.Add(MakeSet(3, 10)).value();
  ASSERT_TRUE(store.Delete(a).ok());
  EXPECT_FALSE(store.Contains(a));
  EXPECT_TRUE(store.Contains(b));
  EXPECT_TRUE(store.Get(a).status().IsNotFound());
  EXPECT_TRUE(store.Get(b).ok());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.Delete(a).IsNotFound());
}

TEST(SetStoreTest, ScanSkipsDeleted) {
  SetStore store;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Add(MakeSet(3, i * 10)).ok());
  }
  ASSERT_TRUE(store.Delete(4).ok());
  ASSERT_TRUE(store.Delete(7).ok());
  std::vector<SetId> seen;
  store.ScanAll([&](SetId sid, const ElementSet&) {
    seen.push_back(sid);
    return true;
  });
  EXPECT_EQ(seen.size(), 8u);
  for (SetId sid : seen) {
    EXPECT_NE(sid, 4u);
    EXPECT_NE(sid, 7u);
  }
}

TEST(SetStoreTest, ScanChargesSequentialReads) {
  SetStore store;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(store.Add(MakeSet(50, i * 100)).ok());
  }
  store.ResetIoAccounting();
  store.ScanAll([](SetId, const ElementSet&) { return true; });
  EXPECT_EQ(store.io().stats().sequential_reads, store.num_pages());
  EXPECT_EQ(store.io().stats().random_reads, 0u);
}

TEST(SetStoreTest, GetChargesRandomReadsWhenCold) {
  SetStoreOptions options;
  options.buffer_pool_pages = 1;  // effectively no caching across pages
  SetStore store(options);
  std::vector<SetId> sids;
  for (int i = 0; i < 300; ++i) {
    sids.push_back(store.Add(MakeSet(60, i * 100)).value());
  }
  store.ResetIoAccounting();
  ASSERT_TRUE(store.Get(sids[0]).ok());
  ASSERT_TRUE(store.Get(sids[250]).ok());
  EXPECT_GE(store.io().stats().random_reads, 2u);
  EXPECT_EQ(store.io().stats().sequential_reads, 0u);
}

TEST(SetStoreTest, BufferPoolAbsorbsRepeatedGets) {
  SetStoreOptions options;
  options.buffer_pool_pages = 64;
  SetStore store(options);
  const SetId sid = store.Add(MakeSet(10)).value();
  store.ResetIoAccounting();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(store.Get(sid).ok());
  EXPECT_EQ(store.io().stats().random_reads, 1u);  // only the first is cold
}

TEST(SetStoreTest, SpannedSetsRoundTripThroughStore) {
  SetStore store;
  const ElementSet big = MakeSet(3000);
  const SetId sid = store.Add(big).value();
  auto got = store.Get(sid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), big);
}

// The verification fetch computes Jaccard against the record bytes in
// place. It must agree bit for bit with Jaccard over Get, and charge the
// pool, the I/O model and the gets counter exactly as Get does — for
// slotted records, spanned ones (scratch path) and the empty set.
TEST(SetStoreTest, SimilarityToMatchesGetAndChargesLikeIt) {
  SetStoreOptions options;
  options.buffer_pool_pages = 2;
  SetStore store(options);
  std::vector<ElementSet> sets = {MakeSet(40), MakeSet(700, 20), {},
                                  MakeSet(1500, 5), MakeSet(3, 30)};
  std::vector<SetId> sids;
  for (const ElementSet& s : sets) sids.push_back(store.Add(s).value());
  const std::vector<ElementSet> queries = {MakeSet(40, 10), MakeSet(800),
                                           {}, MakeSet(3, 30)};
  obs::Counter* gets = obs::MetricsRegistry::Default().GetCounter(
      "ssr_store_gets_total", store.metrics_scope());
  for (const ElementSet& q : queries) {
    for (std::size_t i = 0; i < sids.size(); ++i) {
      store.ResetIoAccounting();
      auto set = store.Get(sids[i]);
      ASSERT_TRUE(set.ok());
      const IoStats get_io = store.io().stats();
      const BufferPoolStats get_pool = store.buffer_pool().stats();

      store.ResetIoAccounting();
      const std::uint64_t gets_before = gets->value();
      auto sim = store.SimilarityTo(sids[i], q);
      ASSERT_TRUE(sim.ok()) << sim.status().ToString();
      EXPECT_EQ(sim.value(), Jaccard(q, set.value())) << "set " << i;
      EXPECT_EQ(gets->value() - gets_before, 1u);
      EXPECT_EQ(store.io().stats().random_reads, get_io.random_reads);
      EXPECT_EQ(store.buffer_pool().stats().misses, get_pool.misses);
    }
  }
  // A view reuses one scratch buffer across spanned records of different
  // sizes; every answer still matches.
  SetStore::ReadView view(store);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < sids.size(); ++i) {
      auto sim = view.SimilarityTo(sids[i], queries[1]);
      ASSERT_TRUE(sim.ok());
      EXPECT_EQ(sim.value(), Jaccard(queries[1], sets[i]));
    }
  }
  ASSERT_TRUE(store.Delete(sids[1]).ok());
  EXPECT_TRUE(store.SimilarityTo(sids[1], queries[0]).status().IsNotFound());
  EXPECT_TRUE(view.SimilarityTo(99, queries[0]).status().IsNotFound());
}

TEST(SetStoreTest, RecordSizeReadsTheHeaderWithoutCharging) {
  SetStore store;
  const std::vector<ElementSet> sets = {MakeSet(12), MakeSet(900), {}};
  std::vector<SetId> sids;
  for (const ElementSet& s : sets) sids.push_back(store.Add(s).value());
  store.ResetIoAccounting();
  for (std::size_t i = 0; i < sets.size(); ++i) {
    auto size = store.RecordSize(sids[i]);
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(size.value(), sets[i].size());
  }
  EXPECT_EQ(store.io().stats().random_reads, 0u);
  EXPECT_EQ(store.buffer_pool().stats().misses, 0u);
  ASSERT_TRUE(store.Delete(sids[0]).ok());
  EXPECT_TRUE(store.RecordSize(sids[0]).status().IsNotFound());
  EXPECT_TRUE(store.RecordSize(1234).status().IsNotFound());
}

TEST(SetStoreTest, AvgSetPagesReflectsSizes) {
  SetStore store;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Add(MakeSet(100)).ok());  // 808 bytes each
  }
  const double avg = store.AvgSetPages();
  EXPECT_NEAR(avg, 808.0 / 4096.0, 0.01);
}

TEST(SetStoreTest, ScanEarlyStopHaltsCharging) {
  SetStore store;
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(store.Add(MakeSet(60, i)).ok());
  }
  store.ResetIoAccounting();
  int visits = 0;
  store.ScanAll([&](SetId, const ElementSet&) { return ++visits < 5; });
  EXPECT_LT(store.io().stats().sequential_reads, store.num_pages());
}

TEST(SetStoreTest, ManySetsStressRoundTrip) {
  SetStore store;
  Rng rng(66);
  std::vector<ElementSet> sets;
  for (int i = 0; i < 500; ++i) {
    ElementSet s;
    const std::size_t n = 1 + rng.Uniform(120);
    for (std::size_t j = 0; j < n; ++j) s.push_back(rng.Uniform(100000));
    NormalizeSet(s);
    sets.push_back(s);
    ASSERT_TRUE(store.Add(s).ok());
  }
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(store.Get(static_cast<SetId>(i)).value(), sets[i]);
  }
}

}  // namespace
}  // namespace ssr
