// Graceful degradation under injected faults. The invariants (per
// DegradeMode's contract that a query never silently returns a wrong
// answer):
//   - every returned sid really lies in [sigma1, sigma2] (exact Jaccard);
//   - under kSequentialFallback a faulted answer is a superset of the
//     fault-free answer (subtractive losses only widen the candidate set,
//     additive losses trigger the exact full scan);
//   - under kPartialResults a faulted answer may shrink but never lies;
//   - under kFailFast degradation surfaces as Status::Unavailable.
// Also covers salvage-loading an index with a corrupted signatures section.

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/set_similarity_index.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "storage/heap_file.h"
#include "storage/snapshot.h"
#include "util/serialize.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace {

constexpr double kEps = 1e-12;  // matches the index's verification slack

struct Fixture {
  SetCollection sets;
  SetStore store;
  std::unique_ptr<SetSimilarityIndex> index;
};

std::unique_ptr<SetSimilarityIndex> BuildIndex(
    SetStore& store, DegradeMode degrade,
    const fault::RetryPolicy& probe_retry = {}) {
  IndexLayout layout;
  layout.delta = 0.3;
  layout.points = {{0.3, FilterKind::kDissimilarity, 6, 0},
                   {0.3, FilterKind::kSimilarity, 6, 0},
                   {0.7, FilterKind::kSimilarity, 6, 3}};
  IndexOptions options;
  options.embedding.minhash.num_hashes = 80;
  options.embedding.minhash.seed = 999;
  options.seed = 1234;
  options.degrade = degrade;
  options.probe_retry = probe_retry;
  auto index = SetSimilarityIndex::Build(store, layout, options);
  EXPECT_TRUE(index.ok());
  if (!index.ok()) return nullptr;
  return std::make_unique<SetSimilarityIndex>(std::move(index).value());
}

std::unique_ptr<Fixture> BuildFixture(
    std::size_t n, DegradeMode degrade,
    const fault::RetryPolicy& probe_retry = {}) {
  auto f = std::make_unique<Fixture>();
  Rng rng(5150);
  for (std::size_t i = 0; i < n; ++i) {
    ElementSet s;
    const std::size_t size = 10 + rng.Uniform(60);
    for (std::size_t j = 0; j < size; ++j) s.push_back(rng.Uniform(5000));
    NormalizeSet(s);
    if (s.empty()) s.push_back(1);
    f->sets.push_back(s);
    EXPECT_TRUE(f->store.Add(s).ok());
  }
  f->index = BuildIndex(f->store, degrade, probe_retry);
  if (f->index == nullptr) return nullptr;
  return f;
}

std::vector<SetId> BruteForce(const SetCollection& sets, const ElementSet& q,
                              double s1, double s2) {
  std::vector<SetId> out;
  for (SetId sid = 0; sid < sets.size(); ++sid) {
    const double sim = Jaccard(sets[sid], q);
    if (sim >= s1 - kEps && sim <= s2 + kEps) out.push_back(sid);
  }
  return out;
}

bool IsSubset(const std::vector<SetId>& a, const std::vector<SetId>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

struct TestQuery {
  ElementSet q;
  double s1, s2;
};

std::vector<TestQuery> MakeQueries(const Fixture& f, std::size_t n) {
  std::vector<TestQuery> queries;
  Rng rng(6);
  for (std::size_t t = 0; t < n; ++t) {
    TestQuery tq;
    tq.q = f.sets[rng.Uniform(f.sets.size())];
    tq.s1 = rng.NextDouble() * 0.8;
    tq.s2 = tq.s1 + rng.NextDouble() * (1.0 - tq.s1);
    queries.push_back(std::move(tq));
  }
  return queries;
}

class DegradedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultInjector::Default().Reset(); }
  void TearDown() override { fault::FaultInjector::Default().Reset(); }
};

// Degradation tests need faults to actually fire; the salvage-load tests
// below corrupt bytes directly and run in every build configuration.
#ifdef SSR_NO_FAULT_INJECTION
#define SKIP_WITHOUT_INJECTION() \
  GTEST_SKIP() << "built with SSR_NO_FAULT_INJECTION"
#else
#define SKIP_WITHOUT_INJECTION() (void)0
#endif

TEST_F(DegradedQueryTest, SequentialFallbackNeverReturnsWrongAnswers) {
  SKIP_WITHOUT_INJECTION();
  auto f = BuildFixture(300, DegradeMode::kSequentialFallback);
  ASSERT_NE(f, nullptr);
  const auto queries = MakeQueries(*f, 60);

  // Fault-free reference pass over the same index (queries are read-only).
  std::vector<std::vector<SetId>> reference;
  for (const TestQuery& tq : queries) {
    auto r = f->index->Query(tq.q, tq.s1, tq.s2);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->stats.degraded);
    reference.push_back(r->sids);
  }

  auto& registry = obs::MetricsRegistry::Default();
  obs::Counter* injected = registry.GetCounter("ssr_fault_injected_total");
  obs::Counter* degraded_metric =
      registry.GetCounter("ssr_degraded_queries_total", f->index->metrics_scope());
  const std::uint64_t injected_before = injected->value();
  const std::uint64_t degraded_before = degraded_metric->value();

  auto& fi = fault::FaultInjector::Default();
  // The invariants below hold for any schedule, so the CI fault matrix may
  // override the seed via SSR_FAULT_SEED.
  fi.Enable(fault::SeedFromEnv(0xdeadULL));
  fi.Arm("store/get", fault::FaultKind::kReadError,
         fault::FaultSchedule::WithProbability(0.05));
  fi.Arm("index/probe_fi", fault::FaultKind::kReadError,
         fault::FaultSchedule::WithProbability(0.05));
  fi.Arm("sfi/probe_table", fault::FaultKind::kReadError,
         fault::FaultSchedule::WithProbability(0.05));

  std::size_t degraded_queries = 0;
  for (std::size_t t = 0; t < queries.size(); ++t) {
    const TestQuery& tq = queries[t];
    auto r = f->index->Query(tq.q, tq.s1, tq.s2);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const std::vector<SetId> exact = BruteForce(f->sets, tq.q, tq.s1, tq.s2);
    // Precision is absolute: every returned sid is truly in range.
    EXPECT_TRUE(IsSubset(r->sids, exact)) << "query " << t;
    // Fallback can only add true answers, never lose ones the fault-free
    // index would have found.
    EXPECT_TRUE(IsSubset(reference[t], r->sids)) << "query " << t;
    if (r->stats.degraded) {
      ++degraded_queries;
    } else {
      EXPECT_EQ(r->sids, reference[t]) << "query " << t;
    }
  }
  // A 5% per-probe schedule over 60 queries must degrade some of them and
  // leave a visible trail in the fault + degradation metrics.
  EXPECT_GT(degraded_queries, 0u);
  EXPECT_GT(fi.total_fires(), 0u);
  EXPECT_GT(injected->value(), injected_before);
  EXPECT_EQ(degraded_metric->value() - degraded_before, degraded_queries);
}

TEST_F(DegradedQueryTest, RetriesRecoverTransientFetchFaults) {
  SKIP_WITHOUT_INJECTION();
  auto f = BuildFixture(150, DegradeMode::kSequentialFallback);
  ASSERT_NE(f, nullptr);
  auto& registry = obs::MetricsRegistry::Default();
  obs::Counter* recoveries =
      registry.GetCounter("ssr_retry_recoveries_total");
  const std::uint64_t before = recoveries->value();

  auto& fi = fault::FaultInjector::Default();
  fi.Enable(fault::SeedFromEnv(77));
  fi.Arm("store/get", fault::FaultKind::kReadError,
         fault::FaultSchedule::WithProbability(0.3));
  const auto queries = MakeQueries(*f, 20);
  for (const TestQuery& tq : queries) {
    auto r = f->index->Query(tq.q, tq.s1, tq.s2);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(
        IsSubset(r->sids, BruteForce(f->sets, tq.q, tq.s1, tq.s2)));
  }
  // At ~30% per-attempt failure most faulted fetches succeed on retry.
  EXPECT_GT(recoveries->value(), before);
}

TEST_F(DegradedQueryTest, PartialResultsShrinkButNeverLie) {
  SKIP_WITHOUT_INJECTION();
  auto f = BuildFixture(200, DegradeMode::kPartialResults);
  ASSERT_NE(f, nullptr);
  auto& fi = fault::FaultInjector::Default();
  fi.Enable(fault::SeedFromEnv(0xbeefULL));
  // Heavy enough that retries are regularly exhausted.
  fi.Arm("store/get", fault::FaultKind::kReadError,
         fault::FaultSchedule::WithProbability(0.6));
  std::size_t degraded = 0;
  for (const TestQuery& tq : MakeQueries(*f, 25)) {
    auto r = f->index->Query(tq.q, tq.s1, tq.s2);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(
        IsSubset(r->sids, BruteForce(f->sets, tq.q, tq.s1, tq.s2)));
    if (r->stats.degraded) {
      ++degraded;
      EXPECT_GT(r->stats.fetch_failures + r->stats.probe_failures, 0u);
    }
  }
  EXPECT_GT(degraded, 0u);
}

TEST_F(DegradedQueryTest, FailFastSurfacesUnavailable) {
  SKIP_WITHOUT_INJECTION();
  auto f = BuildFixture(100, DegradeMode::kFailFast);
  ASSERT_NE(f, nullptr);
  auto& fi = fault::FaultInjector::Default();
  fi.Enable(1);
  fi.Arm("index/probe_fi", fault::FaultKind::kReadError,
         fault::FaultSchedule::Always());
  // A range needing FI probes fails loudly...
  auto r = f->index->Query(f->sets[0], 0.4, 0.6);
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
  // ...while [0, 1] needs no probes and still succeeds.
  auto full = f->index->Query(f->sets[0], 0.0, 1.0);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->sids.size(), 100u);
  EXPECT_FALSE(full->stats.degraded);
}

TEST_F(DegradedQueryTest, CandidateFallbackReturnsLiveSuperset) {
  SKIP_WITHOUT_INJECTION();
  auto f = BuildFixture(120, DegradeMode::kSequentialFallback);
  ASSERT_NE(f, nullptr);
  const auto clean = f->index->QueryCandidates(f->sets[0], 0.4, 0.6);
  ASSERT_TRUE(clean.ok());

  auto& registry = obs::MetricsRegistry::Default();
  obs::Counter* fallbacks = registry.GetCounter(
      "ssr_index_seqscan_fallbacks_total", f->index->metrics_scope());
  const std::uint64_t before = fallbacks->value();

  auto& fi = fault::FaultInjector::Default();
  fi.Enable(1);
  fi.Arm("index/probe_fi", fault::FaultKind::kReadError,
         fault::FaultSchedule::Always());
  auto degraded = f->index->QueryCandidates(f->sets[0], 0.4, 0.6);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->stats.degraded);
  EXPECT_GT(degraded->stats.probe_failures, 0u);
  // The sound fallback candidate set is every live sid.
  EXPECT_EQ(degraded->sids.size(), 120u);
  EXPECT_TRUE(IsSubset(clean->sids, degraded->sids));
  EXPECT_EQ(fallbacks->value(), before + 1);
}

// A transient probe fault that the retry policy absorbs shows up in
// QueryStats (attempts and backoff slept) while the answer stays exactly
// the fault-free one — retries are invisible to correctness, visible to
// observability.
TEST_F(DegradedQueryTest, AbsorbedRetriesSurfaceInQueryStats) {
  SKIP_WITHOUT_INJECTION();
  fault::RetryPolicy probe_retry;
  probe_retry.max_attempts = 4;
  probe_retry.initial_backoff_micros = 5.0;  // tiny but nonzero: sums show
  probe_retry.jitter_fraction = 0.5;
  auto f = BuildFixture(120, DegradeMode::kSequentialFallback, probe_retry);
  ASSERT_NE(f, nullptr);
  const auto clean = f->index->Query(f->sets[0], 0.4, 0.6);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->stats.retry_attempts, 0u);

  auto& fi = fault::FaultInjector::Default();
  fi.Enable(fault::SeedFromEnv(3));
  // One transient failure: the first probe attempt faults, its retry
  // succeeds, and the query never degrades.
  fi.Arm("index/probe_fi", fault::FaultKind::kReadError,
         fault::FaultSchedule::Once());
  auto retried = f->index->Query(f->sets[0], 0.4, 0.6);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_FALSE(retried->stats.degraded);
  EXPECT_EQ(retried->stats.probe_failures, 0u);
  EXPECT_EQ(retried->stats.retry_attempts, 1u);
  EXPECT_GT(retried->stats.retry_backoff_micros, 0.0);
  EXPECT_EQ(retried->sids, clean->sids);
}

// ---------------------------------------------------------------------------
// The in-place verification fetch (SetStore::SimilarityTo) under faults: the
// same statuses and degrade tags the materializing fetch produced, in every
// DegradeMode. Length-pruned candidates never reach the store at all.
// ---------------------------------------------------------------------------

constexpr DegradeMode kAllModes[] = {DegradeMode::kFailFast,
                                     DegradeMode::kPartialResults,
                                     DegradeMode::kSequentialFallback};

TEST_F(DegradedQueryTest, InPlaceVerifyRetryExhaustionInEveryMode) {
  SKIP_WITHOUT_INJECTION();
  for (DegradeMode mode : kAllModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    auto f = BuildFixture(150, mode);
    ASSERT_NE(f, nullptr);
    const ElementSet& q = f->sets[0];  // J(q, q) = 1: always fetched
    auto clean = f->index->Query(q, 0.5, 1.0);
    ASSERT_TRUE(clean.ok());
    ASSERT_GT(clean->stats.sets_fetched, 0u);

    auto& fi = fault::FaultInjector::Default();
    fi.Reset();
    fi.Enable(1);
    fi.Arm("store/get", fault::FaultKind::kReadError,
           fault::FaultSchedule::Always());
    auto r = f->index->Query(q, 0.5, 1.0);
    const std::uint64_t hits = fi.hits("store/get");
    fi.Reset();
    if (mode == DegradeMode::kFailFast) {
      EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
      continue;
    }
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->stats.degraded);
    EXPECT_EQ(r->stats.sets_fetched, 0u);
    if (mode == DegradeMode::kPartialResults) {
      // Every unpruned candidate was tried (3 attempts each, the default
      // get_retry) and failed; no pruned one was ever tried.
      EXPECT_EQ(r->stats.length_pruned, clean->stats.length_pruned);
      const std::size_t tried =
          r->stats.candidates - r->stats.length_pruned;
      EXPECT_EQ(r->stats.fetch_failures, tried);
      EXPECT_EQ(hits, 3u * tried);
      EXPECT_TRUE(r->sids.empty());
    } else {
      EXPECT_EQ(r->stats.fetch_failures, 1u);
      EXPECT_EQ(r->sids, BruteForce(f->sets, q, 0.5, 1.0));
    }
  }
}

// A store whose sid index maps sids `a` and `b` to each other's records,
// built from a valid store's snapshot sections: every fetch of either sid
// hits the heap record's sid check. (Quarantined pages cannot be reached
// this way — a salvage load drops their records from the sid index — so
// their DataLoss is pinned at the heap level, SnapshotFaultTest.)
std::unique_ptr<SetStore> SwapRecordLocators(const SetStore& src,
                                             const SetCollection& sets,
                                             SetId a, SetId b) {
  std::vector<SetId> live;
  std::vector<RecordLocator> locators;
  // The fixture deletes nothing, so every heap record is live.
  src.file().Scan(
      [&](SetId sid, const ElementSet&, const RecordLocator& loc) {
        live.push_back(sid);
        locators.push_back(loc);
        return true;
      });
  std::swap(locators[a], locators[b]);
  std::uint64_t live_bytes = 0;
  for (const ElementSet& s : sets) {
    live_bytes += HeapFile::RecordBytes(s.size());
  }
  std::stringstream bytes;
  SnapshotWriter snapshot(bytes, "SSRSTORE", 2);
  BinaryWriter& meta = snapshot.BeginSection("meta");
  meta.WriteU32(static_cast<std::uint32_t>(sets.size()));
  meta.WriteU64(live_bytes);
  EXPECT_TRUE(snapshot.EndSection().ok());
  BinaryWriter& live_sec = snapshot.BeginSection("live");
  live_sec.WriteVector(live);
  live_sec.WriteVector(locators);
  EXPECT_TRUE(snapshot.EndSection().ok());
  EXPECT_TRUE(snapshot.Finish().ok());
  EXPECT_TRUE(src.file().SaveTo(bytes).ok());
  auto store = SetStore::Load(bytes);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (!store.ok()) return nullptr;
  return std::make_unique<SetStore>(std::move(store).value());
}

TEST_F(DegradedQueryTest, InPlaceVerifySidMismatchInEveryMode) {
  auto f = BuildFixture(150, DegradeMode::kSequentialFallback);
  ASSERT_NE(f, nullptr);
  auto swapped = SwapRecordLocators(f->store, f->sets, 0, 1);
  ASSERT_NE(swapped, nullptr);
  EXPECT_TRUE(swapped->Get(0).status().IsCorruption());
  EXPECT_TRUE(
      swapped->SimilarityTo(0, f->sets[0]).status().IsCorruption());
  EXPECT_TRUE(swapped->RecordSize(1).status().IsCorruption());

  const ElementSet& q = f->sets[0];
  const std::vector<SetId> truth = BruteForce(f->sets, q, 0.5, 1.0);
  for (DegradeMode mode : kAllModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    auto index = BuildIndex(*swapped, mode);
    ASSERT_NE(index, nullptr);
    auto r = index->Query(q, 0.5, 1.0);
    if (mode == DegradeMode::kFailFast) {
      EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
      continue;
    }
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->stats.degraded);
    EXPECT_GE(r->stats.fetch_failures, 1u);
    if (mode == DegradeMode::kPartialResults) {
      EXPECT_TRUE(IsSubset(r->sids, truth));
      EXPECT_FALSE(std::binary_search(r->sids.begin(), r->sids.end(), 0u));
    } else {
      EXPECT_EQ(r->sids, truth);  // the scan reads records, not locators
    }
  }
}

// An index loaded against a store that cannot size a record keeps that
// sid unprunable, so verification still meets it and degrades on it.
TEST_F(DegradedQueryTest, UnsizableRecordsAreNeverPrunedAfterLoad) {
  auto f = BuildFixture(150, DegradeMode::kSequentialFallback);
  ASSERT_NE(f, nullptr);
  auto swapped = SwapRecordLocators(f->store, f->sets, 0, 1);
  ASSERT_NE(swapped, nullptr);
  std::stringstream snapshot;
  ASSERT_TRUE(f->index->SaveTo(snapshot).ok());
  auto loaded = SetSimilarityIndex::Load(*swapped, snapshot);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->set_size(0), SetSimilarityIndex::kUnknownSetSize);
  EXPECT_EQ(loaded->set_size(1), SetSimilarityIndex::kUnknownSetSize);
  EXPECT_EQ(loaded->set_size(2), f->sets[2].size());
  EXPECT_EQ(loaded->ContentDigest(), f->index->ContentDigest());

  // A tiny query bounds every stored set below σ1 = 0.5 — all are pruned
  // except the two unsizable sids, whose fetch reports the mismatch.
  const ElementSet q = {f->sets[0][0]};
  auto r = loaded->Query(q, 0.5, 1.0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  if (r->stats.candidates > r->stats.length_pruned) {
    EXPECT_TRUE(r->stats.degraded);
    EXPECT_EQ(r->sids, BruteForce(f->sets, q, 0.5, 1.0));
  }
  for (SetId sid = 2; sid < f->sets.size(); ++sid) {
    EXPECT_EQ(loaded->set_size(sid), f->sets[sid].size());
  }
}

// ---------------------------------------------------------------------------
// Index snapshot salvage: a damaged signatures section is rebuilt from the
// store instead of failing the load.
// ---------------------------------------------------------------------------

// Serialized footprint of the snapshot footer (WriteString("SSRFOOT") +
// section count + crc-of-crcs).
constexpr std::size_t kFooterBytes = 8 + 7 + 4 + 4;

TEST_F(DegradedQueryTest, SalvageRebuildsCorruptSignatures) {
  auto f = BuildFixture(150, DegradeMode::kSequentialFallback);
  ASSERT_NE(f, nullptr);
  std::stringstream buffer;
  ASSERT_TRUE(f->index->SaveTo(buffer).ok());
  std::string bytes = buffer.str();
  // The signatures section is the last before the footer; flip a payload
  // byte well inside it.
  bytes[bytes.size() - kFooterBytes - 32] ^= 0x20;

  {
    std::stringstream in(bytes);
    EXPECT_TRUE(
        SetSimilarityIndex::Load(f->store, in).status().IsCorruption());
  }

  RecoveryReport report;
  SnapshotLoadOptions load_options;
  load_options.salvage = true;
  load_options.report = &report;
  std::stringstream in(bytes);
  auto loaded = SetSimilarityIndex::Load(f->store, in, load_options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(report.salvaged);
  EXPECT_EQ(report.signatures_rebuilt, 150u);
  EXPECT_EQ(loaded->num_live_sets(), 150u);

  // Re-embedding is deterministic under the saved seeds: the rebuilt index
  // stores identical signatures and answers queries identically.
  for (SetId sid = 0; sid < 150; ++sid) {
    EXPECT_EQ(loaded->signature(sid), f->index->signature(sid));
    EXPECT_EQ(loaded->set_size(sid), f->sets[sid].size());
  }
  // Re-embedding also re-derives every set size, so pruning and fetching
  // are identical too.
  for (const TestQuery& tq : MakeQueries(*f, 15)) {
    auto a = f->index->Query(tq.q, tq.s1, tq.s2);
    auto b = loaded->Query(tq.q, tq.s1, tq.s2);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->sids, b->sids);
    EXPECT_EQ(a->stats.length_pruned, b->stats.length_pruned);
    EXPECT_EQ(a->stats.sets_fetched, b->stats.sets_fetched);
  }
}

TEST_F(DegradedQueryTest, SalvageDropsSignaturesOfLostRecords) {
  auto f = BuildFixture(150, DegradeMode::kSequentialFallback);
  ASSERT_NE(f, nullptr);
  std::stringstream index_buf;
  ASSERT_TRUE(f->index->SaveTo(index_buf).ok());
  std::stringstream store_buf;
  ASSERT_TRUE(f->store.SaveTo(store_buf).ok());

  // Corrupt one heap page of the store snapshot (its "pages" section sits
  // last, just before the footer), then salvage-load the store.
  std::string store_bytes = store_buf.str();
  constexpr std::size_t kPageEntryBytes = 4 + kPageSize;
  const std::size_t payload_start = store_bytes.size() - kFooterBytes -
                                    f->store.num_pages() * kPageEntryBytes;
  store_bytes[payload_start + 2 * kPageEntryBytes + 200] ^= 0x08;

  RecoveryReport store_report;
  SnapshotLoadOptions salvage;
  salvage.salvage = true;
  salvage.report = &store_report;
  std::stringstream store_in(store_bytes);
  auto store = SetStore::Load(store_in, SetStoreOptions(), salvage);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_GT(store_report.records_quarantined, 0u);

  // The (intact) index snapshot, loaded against the salvaged store, must
  // drop the signatures of the lost records rather than serve candidates
  // that can never be fetched.
  RecoveryReport index_report;
  SnapshotLoadOptions index_salvage;
  index_salvage.salvage = true;
  index_salvage.report = &index_report;
  auto index = SetSimilarityIndex::Load(*store, index_buf, index_salvage);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->num_live_sets(), store->size());
  for (SetId sid = 0; sid < f->sets.size(); ++sid) {
    if (store->Contains(sid)) {
      EXPECT_EQ(index->set_size(sid), f->sets[sid].size());
    } else {
      EXPECT_FALSE(index->set_size(sid).has_value());
    }
  }

  for (const TestQuery& tq : MakeQueries(*f, 15)) {
    auto r = index->Query(tq.q, tq.s1, tq.s2);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (SetId sid : r->sids) {
      EXPECT_TRUE(store->Contains(sid));
      const double sim = Jaccard(f->sets[sid], tq.q);
      EXPECT_GE(sim, tq.s1 - kEps);
      EXPECT_LE(sim, tq.s2 + kEps);
    }
  }
}

}  // namespace
}  // namespace ssr
