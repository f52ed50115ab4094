#include "workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "baseline/exact_evaluator.h"
#include "exec/epoch.h"
#include "obs/metrics.h"
#include "optimizer/index_builder.h"
#include "optimizer/similarity_distribution.h"
#include "shard/query_router.h"
#include "shard/sharded_index.h"
#include "stats.h"
#include "storage/recovery.h"
#include "storage/set_store.h"
#include "storage/wal.h"
#include "util/random.h"
#include "util/set_ops.h"
#include "workload/datasets.h"
#include "workload/query_generator.h"
#include "workload/weblog_generator.h"

namespace perfbench {

namespace {

using ssr::ElementSet;
using ssr::SetCollection;
using ssr::SetId;
using ssr::Status;
using ssr::shard::ShardedIndexOptions;
using ssr::shard::ShardedQueryResult;
using ssr::shard::ShardedSetSimilarityIndex;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- config

constexpr double kScale = 0.05;  // 10,000 sets of the 200,000-set datasets
constexpr std::uint32_t kShards = 4;
constexpr std::size_t kTableBudget = 300;
constexpr std::size_t kMinHashes = 100;
constexpr unsigned kValueBits = 8;
constexpr std::size_t kDistributionPairs = 100000;
constexpr std::uint64_t kDistributionSeed = 0xd15b0f;
constexpr std::uint64_t kTrafficSeed = 0x7aff1c;
constexpr int kSetupRepeats = 3;
constexpr int kRecoverRepeats = 5;
constexpr double kInsertShare = 0.55;
// The attribution sub-pass of the traced run repeats this share of each
// client's queries with the extra per-layer calls.
constexpr std::size_t kAttributionDivisor = 8;
// The untimed warm-up runs this share of each client's queries.
constexpr std::size_t kWarmupDivisor = 10;
// Rounds a timed phase is split into (see Phase).
constexpr std::size_t kRounds = 3;
// Untraced/traced round pairs of a traced run (even, see Phase).
constexpr std::size_t kTraceRounds = 4;
// Noise allowed when a self time is derived by subtraction, as a share of
// the parent: spans nested in one call, and separately timed calls (on a
// shared 4-vCPU VM single-thread speed drifts by up to ~15% in seconds).
constexpr double kNestedNoise = 0.02;
constexpr double kCrossCallNoise = 0.2;
// Queries routed through a fresh QueryRouter to count registry growth.
constexpr std::size_t kSeriesProbeQueries = 50;
// Requests per client whose raw spans go to the span dump.
constexpr std::uint32_t kDumpedRequests = 200;

struct Spec {
  const char* name;
  bool set2;               // Set2-shaped collection (else Set1)
  bool paper_ranges;       // QueryGenerator ranges (else [0.8, 1] lookups)
  int query_clients;
  int writer_clients;      // writers beside the readers in the timed phase
  double queries_per_s;    // per query client: sizes the fixed sequence
  double writes_per_s;     // per writer client
  std::size_t recall_sample;
};

// The rates turn --seconds into fixed operation counts (no time-bounded
// loop, so every count repeats exactly); on a 4-vCPU VM the timed phase of
// --seconds 10 lasts 10-14 s. At 10 s near_dup's queries and every
// workload's writes give each of the kRounds rounds 1000 samples, enough
// for a per-round p99.
constexpr Spec kSpecs[] = {
    {"near_dup", false, false, 3, 0, 100.0, 300.0, 100},
    {"paper_ranges", true, true, 3, 0, 55.0, 300.0, 100},
    {"churn_wal", false, false, 1, 2, 110.0, 150.0, 100},
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b, c);
  return buf;
}

double Mean(double sum, double count) { return count > 0 ? sum / count : 0.0; }

double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------- inputs

struct Query {
  SetId sid;  // the query set is collection member `sid`
  double sigma1;
  double sigma2;
};

struct WriteOp {
  bool insert;
  SetId sid;
  std::size_t set;  // insert payload: index into Inputs::fresh
};

struct Inputs {
  SetCollection sets;
  std::vector<std::vector<Query>> queries;  // by query client
  SetCollection fresh;                      // insert payloads
  std::vector<std::vector<WriteOp>> writes;  // by writer
  std::vector<std::pair<int, std::size_t>> recall_sample;  // (client, index)
};

ssr::WeblogParams DatasetParams(const Spec& spec) {
  return spec.set2 ? ssr::Set2Params(kScale) : ssr::Set1Params(kScale);
}

// GenerateWeblogCollection(params), kept in `cache_dir` so that runs after
// the first skip the generator (seconds per run). The file is named by
// every parameter and written whole before it is renamed into place.
SetCollection CachedCollection(const ssr::WeblogParams& p,
                               const std::string& cache_dir) {
  if (cache_dir.empty()) return ssr::GenerateWeblogCollection(p);
  char name[256];
  std::snprintf(name, sizeof name,
                "weblog-%zu-%zu-%.6g-%zu-%zu-%.6g-%zu-%zu-%.6g-%.6g-%zu-%.6g-"
                "%llx.bin",
                p.num_sets, p.num_urls, p.zipf_alpha, p.num_profiles,
                p.profile_urls, p.profile_affinity, p.min_set_size,
                p.max_set_size, p.duplicate_rate, p.casual_rate,
                p.casual_max_size, p.duplicate_mutation,
                static_cast<unsigned long long>(p.seed));
  const std::filesystem::path path = std::filesystem::path(cache_dir) / name;
  SetCollection sets;
  if (std::ifstream in{path, std::ios::binary}) {
    std::uint64_t count = 0;
    in.read(reinterpret_cast<char*>(&count), sizeof count);
    for (std::uint64_t i = 0; in && i < count; ++i) {
      std::uint32_t size = 0;
      in.read(reinterpret_cast<char*>(&size), sizeof size);
      ElementSet set(size);
      in.read(reinterpret_cast<char*>(set.data()),
              static_cast<std::streamsize>(size * sizeof(ssr::ElementId)));
      sets.push_back(std::move(set));
    }
    if (in && sets.size() == count) return sets;
    sets.clear();
  }
  sets = ssr::GenerateWeblogCollection(p);
  std::filesystem::create_directories(cache_dir);
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    const std::uint64_t count = sets.size();
    out.write(reinterpret_cast<const char*>(&count), sizeof count);
    for (const ElementSet& set : sets) {
      const auto size = static_cast<std::uint32_t>(set.size());
      out.write(reinterpret_cast<const char*>(&size), sizeof size);
      out.write(reinterpret_cast<const char*>(set.data()),
                static_cast<std::streamsize>(size * sizeof(ssr::ElementId)));
    }
    if (!out) return sets;
  }
  std::error_code ignored;
  std::filesystem::rename(tmp, path, ignored);
  return sets;
}

std::size_t Scaled(double per_second, int seconds, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(per_second * seconds));
}

// One writer's fixed script: 55% inserts of fresh sets under its own sid
// range, 45% erases of sets it inserted earlier. Insert payloads are
// numbered from `first_set` and bound once the fresh sets exist.
std::vector<WriteOp> WriterScript(SetId first_sid, std::size_t first_set,
                                  std::size_t ops, std::uint64_t seed) {
  ssr::Rng rng(seed);
  std::vector<WriteOp> script;
  std::vector<SetId> live;
  SetId next = first_sid;
  std::size_t next_set = first_set;
  for (std::size_t i = 0; i < ops; ++i) {
    if (live.size() < 8 || rng.Bernoulli(kInsertShare)) {
      script.push_back({true, next, next_set++});
      live.push_back(next++);
    } else {
      const std::size_t pick = rng.Uniform(live.size());
      script.push_back({false, live[pick], 0});
      live[pick] = live.back();
      live.pop_back();
    }
  }
  return script;
}

// The collection is the fixed Set1 or Set2 of src/workload (their own
// generator seeds), as the paper's datasets are fixed logs. The queries and
// the inserted sets are fixed multisets too, drawn with kTrafficSeed; the
// run's seed orders them, deals the queries to the clients, writes the
// insert/erase scripts and picks the recall sample. Drawing the collection
// or the query multiset from the run's seed made runs differ by up to 30%
// (median) and 35% (p99) with the code unchanged: a few heavy near-duplicate
// lookups set the tail.
Inputs MakeInputs(const Spec& spec, const RunOptions& opt) {
  const std::uint64_t seed = opt.seed;
  const int seconds = opt.seconds;
  Inputs in;
  in.sets = CachedCollection(DatasetParams(spec), opt.cache_dir);
  // At least 1000 queries in all, so p99 has ten samples beyond it.
  const std::size_t clients = static_cast<std::size_t>(spec.query_clients);
  const std::size_t total =
      clients * Scaled(spec.queries_per_s, seconds, (1000 + clients - 1) / clients);
  std::vector<Query> pool;
  pool.reserve(total);
  if (spec.paper_ranges) {
    ssr::QueryGeneratorParams qp;
    qp.seed = kTrafficSeed;
    ssr::QueryGenerator gen(in.sets, qp);
    for (const ssr::RangeQuery& q : gen.Batch(total)) {
      pool.push_back({q.query_sid, q.sigma1, q.sigma2});
    }
  } else {
    ssr::Rng rng(kTrafficSeed);
    for (std::size_t i = 0; i < total; ++i) {
      pool.push_back({static_cast<SetId>(rng.Uniform(in.sets.size())), 0.8, 1.0});
    }
  }
  ssr::Rng order(Mix(seed, 100));
  order.Shuffle(pool);
  in.queries.resize(clients);
  for (std::size_t i = 0; i < total; ++i) {
    in.queries[i % clients].push_back(pool[i]);
  }

  // Read-only workloads still run one writer after their reads, so every
  // workload reports the write and recovery metrics on its own collection.
  const int writers = std::max(spec.writer_clients, 1);
  const std::size_t ops = Scaled(spec.writes_per_s, seconds, 1000);
  std::size_t inserts = 0;
  for (int w = 0; w < writers; ++w) {
    const SetId first = static_cast<SetId>(in.sets.size() + w * (ops + 1));
    in.writes.push_back(WriterScript(first, inserts, ops, Mix(seed, 300 + w)));
    for (const WriteOp& op : in.writes.back()) inserts += op.insert;
  }
  // The generator is sequential, so the pool's first `inserts` sets are the
  // same whatever the pool size: one cached pool serves every seed.
  ssr::WeblogParams fresh = DatasetParams(spec);
  fresh.seed = kTrafficSeed;
  fresh.num_sets = ops * writers;
  in.fresh = CachedCollection(fresh, opt.cache_dir);
  in.fresh.resize(inserts);
  order.Shuffle(in.fresh);

  ssr::Rng rng(Mix(seed, 400));
  for (std::size_t i = 0; i < spec.recall_sample; ++i) {
    const int c = static_cast<int>(rng.Uniform(spec.query_clients));
    in.recall_sample.emplace_back(c, rng.Uniform(in.queries[c].size()));
  }
  return in;
}

// ---------------------------------------------------------------- setup

struct Layout {
  ssr::IndexLayout layout;
  ShardedIndexOptions options;
};

struct SetupTimes {
  double distribution_s = 0.0;
  double layout_s = 0.0;
  double build_s = 0.0;
};

// The §5 layout for `sets`. The pair sample is fixed, like the collection,
// so every run indexes with the same layout.
ssr::Result<Layout> OptimizeLayout(const SetCollection& sets,
                                   SetupTimes* times) {
  Clock::time_point t0 = Clock::now();
  ssr::Rng rng(kDistributionSeed);
  const ssr::SimilarityHistogram hist = ssr::ComputeSampledDistribution(
      sets, kDistributionPairs, /*num_bins=*/100, rng);
  times->distribution_s = SecondsSince(t0);

  t0 = Clock::now();
  ssr::EmbeddingParams embedding_params;
  embedding_params.minhash.num_hashes = kMinHashes;
  embedding_params.minhash.value_bits = kValueBits;
  auto embedding = ssr::Embedding::Create(embedding_params);
  if (!embedding.ok()) return embedding.status();
  ssr::IndexBuilderOptions builder;
  builder.table_budget = kTableBudget;
  // Like the experiment harness: relax the recall target in 0.05 steps
  // down to 0.6 when the budget cannot meet it.
  ssr::Result<ssr::BuiltLayout> built = Status::Internal("unreached");
  for (double threshold = 0.9; threshold > 0.6 - 1e-9; threshold -= 0.05) {
    builder.recall_threshold = threshold;
    built = ssr::ConstructIndexLayout(hist, embedding.value(), builder);
    if (built.ok()) break;
  }
  if (!built.ok()) return built.status();
  times->layout_s = SecondsSince(t0);

  Layout out;
  out.layout = built->layout;
  out.options.num_shards = kShards;
  out.options.index.embedding = embedding_params;
  return out;
}

// An index plus the epoch manager its concurrent-write mode publishes
// through (declared first so it outlives the index).
struct Served {
  std::unique_ptr<ssr::exec::EpochManager> epochs;
  std::unique_ptr<ShardedSetSimilarityIndex> index;
};

Served Serve(ShardedSetSimilarityIndex&& index) {
  Served s;
  s.epochs = std::make_unique<ssr::exec::EpochManager>();
  s.index = std::make_unique<ShardedSetSimilarityIndex>(std::move(index));
  s.index->EnableConcurrentWrites(s.epochs.get());
  return s;
}

ssr::Result<ShardedSetSimilarityIndex> BuildIndex(const SetCollection& sets,
                                                  const Layout& layout,
                                                  SetupTimes* times) {
  const Clock::time_point t0 = Clock::now();
  auto built =
      ShardedSetSimilarityIndex::Build(sets, layout.layout, layout.options);
  times->build_s = SecondsSince(t0);
  return built;
}

// ---------------------------------------------------------------- checks

bool WellFormed(const ShardedQueryResult& r) {
  return std::adjacent_find(r.sids.begin(), r.sids.end(),
                            [](SetId a, SetId b) { return a >= b; }) ==
         r.sids.end();
}

// A routed answer counts as failed when it is not OK or not whole.
bool AnswerFailed(const ssr::Result<ShardedQueryResult>& r) {
  return !r.ok() || r->partial || r->stats.degraded ||
         !r->degraded_shards.empty();
}

// The live collection as (sid, set) pairs, sid-ascending.
struct LiveCollection {
  SetCollection sets;
  std::vector<SetId> sids;
};

LiveCollection BaseCollection(const SetCollection& sets) {
  LiveCollection live;
  live.sets = sets;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    live.sids.push_back(static_cast<SetId>(i));
  }
  return live;
}

// Base sets plus the inserts of `scripts` that no later op erased.
LiveCollection SurvivingCollection(const Inputs& in) {
  std::vector<std::pair<SetId, std::size_t>> extra;
  for (const auto& script : in.writes) {
    std::vector<std::pair<SetId, std::size_t>> mine;
    for (const WriteOp& op : script) {
      if (op.insert) {
        mine.emplace_back(op.sid, op.set);
      } else {
        mine.erase(std::find_if(mine.begin(), mine.end(),
                                [&](const auto& p) { return p.first == op.sid; }));
      }
    }
    extra.insert(extra.end(), mine.begin(), mine.end());
  }
  std::sort(extra.begin(), extra.end());
  LiveCollection live = BaseCollection(in.sets);
  for (const auto& [sid, set] : extra) {
    live.sids.push_back(sid);
    live.sets.push_back(in.fresh[set]);
  }
  return live;
}

// Recall of routed answers against ExactEvaluator on the sampled queries,
// and the precision-1 check: every returned sid's exact Jaccard is in
// [σ1, σ2], i.e. it is in the exact answer.
double MeasureRecall(const ShardedSetSimilarityIndex& index,
                     const Inputs& in, const LiveCollection& live,
                     RunOutcome* out) {
  ssr::shard::QueryRouterOptions ro;
  ro.num_threads = 1;
  ssr::shard::QueryRouter router(index, ro);
  ssr::ExactEvaluator exact(live.sets);
  std::uint64_t found = 0, relevant = 0, wrong = 0;
  for (const auto& [client, i] : in.recall_sample) {
    const Query& q = in.queries[client][i];
    const ElementSet& set = in.sets[q.sid];
    auto answer = router.Query(set, q.sigma1, q.sigma2);
    if (AnswerFailed(answer) || !WellFormed(*answer)) {
      out->violations.push_back("recall sample query failed or malformed");
      continue;
    }
    std::vector<SetId> truth;
    for (SetId pos : exact.Query(set, q.sigma1, q.sigma2)) {
      truth.push_back(live.sids[pos]);
    }
    relevant += truth.size();
    for (SetId sid : answer->sids) {
      if (std::binary_search(truth.begin(), truth.end(), sid)) {
        ++found;
      } else {
        ++wrong;
      }
    }
  }
  if (wrong > 0) {
    out->violations.push_back(std::to_string(wrong) +
                              " returned sids outside [sigma1, sigma2]");
  }
  out->notes.push_back("recall: " + std::to_string(found) + " of " +
                       std::to_string(relevant) + " exact answers over " +
                       std::to_string(in.recall_sample.size()) + " queries");
  return relevant == 0 ? 1.0 : static_cast<double>(found) / relevant;
}

// ---------------------------------------------------------------- spans

// Results of calls made only to time them land here, so the compiler
// cannot drop the calls.
std::atomic<std::uint64_t> g_consumed{0};
void Consume(std::uint64_t v) {
  g_consumed.fetch_add(v, std::memory_order_relaxed);
}

enum Layer : std::uint8_t {
  kRouter,
  kEpochPin,
  kEpochUnpin,
  kViewOpen,
  kViewClose,
  kQueryThrough,
  kSign,
  kCandidates,
  kAttrQueryThrough,
  kFetch,
  kJaccard,
  kNumLayers,
};

constexpr const char* kLayerNames[kNumLayers] = {
    "shard.router_query", "exec.epoch_pin",     "exec.epoch_unpin",
    "storage.view_open",  "storage.view_close", "core.query_through",
    "hamming.sign",       "core.candidates",    "core.query_through",
    "storage.get",        "util.jaccard"};

struct Span {
  std::uint32_t request;
  std::int32_t parent;  // index into the same log; -1 for a root
  Layer layer;
  std::uint8_t shard;
  std::uint32_t items;  // calls a leaf span covers (fetch, jaccard)
  std::int64_t start_ns;
  std::int64_t end_ns;
};

// One client's spans: every span adds to its layer's totals, and the spans
// of the first kDumpedRequests requests are kept for the dump.
class SpanLog {
 public:
  struct Totals {
    double ns = 0.0;
    double spans = 0.0;
    double items = 0.0;
  };

  std::int32_t Begin(std::uint32_t request, Layer layer, std::int32_t parent,
                     std::uint8_t shard = 0) {
    open_.push_back({request, parent, layer, shard, 0, Now(), 0});
    return static_cast<std::int32_t>(open_.size() - 1);
  }
  void End(std::int32_t handle, std::uint32_t items = 0) {
    const std::int64_t end = Now();
    Span& s = open_[handle];
    s.end_ns = end;
    s.items = items;
    Totals& t = totals_[s.layer];
    t.ns += static_cast<double>(s.end_ns - s.start_ns);
    t.spans += 1;
    t.items += items;
  }
  // Closes a request: keeps its spans for the dump or drops them.
  void Flush() {
    for (const Span& s : open_) {
      if (s.request < kDumpedRequests) kept_.push_back(s);
    }
    open_.clear();
  }

  const Totals& totals(Layer l) const { return totals_[l]; }
  const std::vector<Span>& kept() const { return kept_; }
  void Merge(const SpanLog& other) {
    for (int l = 0; l < kNumLayers; ++l) {
      totals_[l].ns += other.totals_[l].ns;
      totals_[l].spans += other.totals_[l].spans;
      totals_[l].items += other.totals_[l].items;
    }
  }

 private:
  static std::int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> open_;
  std::vector<Span> kept_;
  Totals totals_[kNumLayers];
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::uint32_t request, Layer layer,
             std::int32_t parent, std::uint8_t shard = 0)
      : log_(log), handle_(log.Begin(request, layer, parent, shard)) {}
  ~ScopedSpan() { log_.End(handle_, items_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t handle() const { return handle_; }
  void set_items(std::uint32_t n) { items_ = n; }

 private:
  SpanLog& log_;
  std::int32_t handle_;
  std::uint32_t items_ = 0;
};

// The router's scatter/gather, rebuilt from the public calls QueryRouter
// makes with one worker, with a span around each call into a layer.
ssr::Result<ShardedQueryResult> TracedRouterQuery(
    const ShardedSetSimilarityIndex& index, const ElementSet& query,
    double sigma1, double sigma2, std::uint32_t request, SpanLog& log) {
  ScopedSpan root(log, request, kRouter, -1);
  const std::int32_t parent = root.handle();
  ssr::exec::EpochManager& epochs = *index.epoch_manager();
  std::optional<ssr::exec::EpochGuard> pin;
  {
    ScopedSpan s(log, request, kEpochPin, parent);
    pin.emplace(epochs);
  }
  const std::uint32_t num_shards = index.num_shards();
  ShardedQueryResult result;
  result.per_shard.resize(num_shards);
  result.shard_status.assign(num_shards, Status::OK());
  std::vector<SetId> scratch;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    const auto shard = static_cast<std::uint8_t>(s);
    std::optional<ssr::exec::EpochGuard> worker_pin;
    {
      ScopedSpan span(log, request, kEpochPin, parent, shard);
      worker_pin.emplace(epochs);
    }
    const ssr::SetStore* store = index.shard_store(s);
    const ssr::SetSimilarityIndex* shard_index = index.shard_index(s);
    if (store == nullptr || shard_index == nullptr ||
        index.shard_degraded(s)) {
      SSR_RETURN_IF_ERROR(index.GatherShardFailure(
          s, Status::Unavailable("shard degraded"), &result));
      continue;
    }
    std::optional<ssr::SetStore::ReadView> view;
    {
      ScopedSpan span(log, request, kViewOpen, parent, shard);
      view.emplace(*store);
    }
    ssr::Result<ssr::QueryResult> answer = Status::Internal("unreached");
    {
      ScopedSpan span(log, request, kQueryThrough, parent, shard);
      answer = shard_index->QueryThrough(*view, query, sigma1, sigma2,
                                         &scratch);
    }
    {
      ScopedSpan span(log, request, kViewClose, parent, shard);
      view.reset();
    }
    {
      ScopedSpan span(log, request, kEpochUnpin, parent, shard);
      worker_pin.reset();
    }
    if (answer.ok()) {
      index.GatherShardAnswer(s, std::move(answer).value(), &result);
    } else {
      SSR_RETURN_IF_ERROR(
          index.GatherShardFailure(s, answer.status(), &result));
    }
  }
  index.FinishGather(&result);
  {
    ScopedSpan s(log, request, kEpochUnpin, parent);
    pin.reset();
  }
  return result;
}

// Per-query counts from the attribution sub-pass; they repeat exactly.
struct Counts {
  double queries = 0;
  double candidates = 0;
  double results = 0;
  double bucket_accesses = 0;
  double sids_scanned = 0;
  double pages = 0;
  double pool_hits = 0;
  double pool_misses = 0;
  void Merge(const Counts& o) {
    queries += o.queries;
    candidates += o.candidates;
    results += o.results;
    bucket_accesses += o.bucket_accesses;
    sids_scanned += o.sids_scanned;
    pages += o.pages;
    pool_hits += o.pool_hits;
    pool_misses += o.pool_misses;
  }
};

// The calls the router path makes inside QueryThrough, made one at a time
// per shard: Sign, QueryCandidates, QueryThrough, then ReadView::Get and
// Jaccard over the candidates.
bool AttributeQuery(const ShardedSetSimilarityIndex& index,
                    const ElementSet& query, double sigma1, double sigma2,
                    std::uint32_t request, SpanLog& log, Counts* counts) {
  ssr::exec::EpochGuard pin(*index.epoch_manager());
  counts->queries += 1;
  for (std::uint32_t s = 0; s < index.num_shards(); ++s) {
    const auto shard = static_cast<std::uint8_t>(s);
    const ssr::SetStore* store = index.shard_store(s);
    const ssr::SetSimilarityIndex* shard_index = index.shard_index(s);
    if (store == nullptr || shard_index == nullptr) return false;
    {
      ScopedSpan span(log, request, kSign, -1, shard);
      const ssr::Signature sig = shard_index->embedding().Sign(query);
      Consume(sig.empty() ? 0 : sig[0]);
    }
    ssr::Result<ssr::QueryResult> candidates = Status::Internal("unreached");
    {
      ScopedSpan span(log, request, kCandidates, -1, shard);
      candidates = shard_index->QueryCandidates(query, sigma1, sigma2);
    }
    if (!candidates.ok()) return false;
    {
      ssr::SetStore::ReadView view(*store);
      ssr::Result<ssr::QueryResult> answer = Status::Internal("unreached");
      {
        ScopedSpan span(log, request, kAttrQueryThrough, -1, shard);
        answer = shard_index->QueryThrough(view, query, sigma1, sigma2);
      }
      if (!answer.ok()) return false;
      const ssr::QueryStats& st = answer->stats;
      counts->candidates += st.candidates;
      counts->results += st.results;
      counts->bucket_accesses += st.bucket_accesses;
      counts->sids_scanned += st.sids_scanned;
      counts->pages += st.io.random_reads + st.io.sequential_reads;
      const ssr::BufferPoolStats pool = view.buffer_pool().stats();
      counts->pool_hits += pool.hits;
      counts->pool_misses += pool.misses;
    }
    ssr::SetStore::ReadView view(*store);
    std::vector<ElementSet> fetched;
    fetched.reserve(candidates->sids.size());
    {
      ScopedSpan span(log, request, kFetch, -1, shard);
      for (SetId sid : candidates->sids) {
        auto set = view.Get(sid);
        if (!set.ok()) return false;
        fetched.push_back(std::move(set).value());
      }
      span.set_items(static_cast<std::uint32_t>(fetched.size()));
    }
    {
      ScopedSpan span(log, request, kJaccard, -1, shard);
      double sum = 0.0;
      for (const ElementSet& set : fetched) sum += ssr::Jaccard(query, set);
      Consume(static_cast<std::uint64_t>(sum));
      span.set_items(static_cast<std::uint32_t>(fetched.size()));
    }
  }
  log.Flush();
  return true;
}

// ---------------------------------------------------------------- clients

struct ClientLog {
  std::vector<double> latency_us;
  std::vector<double> insert_us;
  std::vector<double> erase_us;
  std::uint64_t failed = 0;
  std::uint64_t malformed = 0;
  Clock::time_point end;
  SpanLog spans;
};

// Runs seq[begin, end) closed-loop: the next query goes out when the last
// one has returned.
void RunQueryClient(const ShardedSetSimilarityIndex& index,
                    const SetCollection& sets, const std::vector<Query>& seq,
                    std::size_t begin, std::size_t end, bool traced,
                    std::latch& start, ClientLog* log) {
  ssr::shard::QueryRouterOptions ro;
  ro.num_threads = 1;
  ssr::shard::QueryRouter router(index, ro);
  start.arrive_and_wait();
  for (std::size_t i = begin; i < end; ++i) {
    const Query& q = seq[i];
    const ElementSet& set = sets[q.sid];
    const Clock::time_point t0 = Clock::now();
    auto answer =
        traced ? TracedRouterQuery(index, set, q.sigma1, q.sigma2,
                                   static_cast<std::uint32_t>(i), log->spans)
               : router.Query(set, q.sigma1, q.sigma2);
    log->latency_us.push_back(MicrosSince(t0));
    if (traced) log->spans.Flush();
    if (AnswerFailed(answer)) {
      ++log->failed;
    } else if (!WellFormed(*answer)) {
      ++log->malformed;
    }
  }
  log->end = Clock::now();
}

void RunWriter(ShardedSetSimilarityIndex& index, const SetCollection& fresh,
               const std::vector<WriteOp>& script, std::size_t begin,
               std::size_t end, std::latch& start, ClientLog* log) {
  start.arrive_and_wait();
  for (std::size_t i = begin; i < end; ++i) {
    const WriteOp& op = script[i];
    const Clock::time_point t0 = Clock::now();
    const Status st = op.insert ? index.Insert(op.sid, fresh[op.set])
                                : index.Erase(op.sid);
    const double us = MicrosSince(t0);
    log->latency_us.push_back(us);
    (op.insert ? log->insert_us : log->erase_us).push_back(us);
    if (!st.ok()) ++log->failed;
  }
  log->end = Clock::now();
}

// A closed-loop phase: query clients and writers start together from one
// latch. The sequences run in kRounds consecutive rounds, each ending when
// every client has finished its share; rates are the median over rounds,
// so a burst of outside load moves one round, not the result. In
// kAlternate mode every round runs twice, untraced and traced, and the
// traced clients log into `traced`. The pair sees the same drift of the
// host's speed, so its ratio gives the tracing overhead; the second run of
// a pair finds the same sets in cache, so the order alternates (ABBA) and
// the overhead is the mean over an even number of pairs.
struct Phase {
  std::vector<ClientLog> readers;
  std::vector<ClientLog> writers;
  std::vector<ClientLog> traced;
  std::vector<double> round_qps;
  std::vector<double> round_write_rate;
  std::vector<double> round_traced_qps;
  std::vector<std::vector<double>> round_query_us;  // untraced rounds
  std::vector<std::vector<double>> round_write_us;

  std::uint64_t queries() const {
    std::uint64_t n = 0;
    for (const ClientLog& c : readers) n += c.latency_us.size();
    for (const ClientLog& c : traced) n += c.latency_us.size();
    return n;
  }
  std::uint64_t writes() const {
    std::uint64_t n = 0;
    for (const ClientLog& c : writers) n += c.latency_us.size();
    return n;
  }
  double qps() const { return Median(round_qps); }
  double write_rate() const { return Median(round_write_rate); }
  // (untraced - traced) / untraced qps, mean over the paired rounds.
  double trace_overhead() const {
    double sum = 0.0;
    for (std::size_t r = 0; r < round_traced_qps.size(); ++r) {
      sum += 1.0 - round_traced_qps[r] / round_qps[r];
    }
    return Mean(sum, static_cast<double>(round_traced_qps.size()));
  }
};

enum class QueryMode { kRouter, kTraced, kAlternate };

Phase RunPhase(ShardedSetSimilarityIndex& index, const Inputs& in,
               const std::vector<std::vector<Query>>& queries,
               const std::vector<std::vector<WriteOp>>& writes,
               QueryMode mode, std::size_t rounds = kRounds) {
  Phase phase;
  phase.readers.resize(queries.size());
  phase.traced.resize(queries.size());
  phase.writers.resize(writes.size());
  auto slice = [rounds](std::size_t n, std::size_t r) { return n * r / rounds; };
  auto run_round = [&](std::size_t r, bool traced) {
    std::latch start(
        static_cast<std::ptrdiff_t>(queries.size() + writes.size() + 1));
    std::vector<ClientLog>& readers = traced ? phase.traced : phase.readers;
    std::vector<std::thread> threads;
    std::size_t round_queries = 0, round_writes = 0;
    for (std::size_t c = 0; c < queries.size(); ++c) {
      const std::size_t n = queries[c].size();
      round_queries += slice(n, r + 1) - slice(n, r);
      threads.emplace_back(RunQueryClient, std::cref(index),
                           std::cref(in.sets), std::cref(queries[c]),
                           slice(n, r), slice(n, r + 1), traced,
                           std::ref(start), &readers[c]);
    }
    for (std::size_t w = 0; w < writes.size(); ++w) {
      const std::size_t n = writes[w].size();
      round_writes += slice(n, r + 1) - slice(n, r);
      threads.emplace_back(RunWriter, std::ref(index), std::cref(in.fresh),
                           std::cref(writes[w]), slice(n, r), slice(n, r + 1),
                           std::ref(start), &phase.writers[w]);
    }
    std::vector<std::size_t> reader_mark, writer_mark;
    for (const ClientLog& c : readers) reader_mark.push_back(c.latency_us.size());
    for (const ClientLog& c : phase.writers) writer_mark.push_back(c.latency_us.size());
    start.arrive_and_wait();
    const Clock::time_point t0 = Clock::now();
    for (std::thread& t : threads) t.join();
    auto since_mark = [](const std::vector<ClientLog>& logs,
                         const std::vector<std::size_t>& mark) {
      std::vector<double> samples;
      for (std::size_t c = 0; c < logs.size(); ++c) {
        samples.insert(samples.end(), logs[c].latency_us.begin() + mark[c],
                       logs[c].latency_us.end());
      }
      return samples;
    };
    if (!traced) phase.round_query_us.push_back(since_mark(readers, reader_mark));
    if (!writes.empty()) {
      phase.round_write_us.push_back(since_mark(phase.writers, writer_mark));
    }
    auto last_end = [&](const std::vector<ClientLog>& logs) {
      double seconds = 0.0;
      for (const ClientLog& c : logs) {
        seconds = std::max(seconds,
                           std::chrono::duration<double>(c.end - t0).count());
      }
      return seconds;
    };
    if (!queries.empty()) {
      (traced && mode == QueryMode::kAlternate ? phase.round_traced_qps
                                               : phase.round_qps)
          .push_back(round_queries / last_end(readers));
    }
    if (!writes.empty()) {
      phase.round_write_rate.push_back(round_writes / last_end(phase.writers));
    }
  };
  for (std::size_t r = 0; r < rounds; ++r) {
    if (mode == QueryMode::kAlternate) {
      run_round(r, r % 2 == 1);
      run_round(r, r % 2 == 0);
      continue;
    }
    run_round(r, mode == QueryMode::kTraced);
  }
  return phase;
}

void CountPhaseFailures(const Phase& phase, RunOutcome* out) {
  out->attempted += phase.queries() + phase.writes();
  std::uint64_t malformed = 0;
  for (const auto* logs : {&phase.readers, &phase.traced}) {
    for (const ClientLog& c : *logs) {
      out->failed += c.failed;
      malformed += c.malformed;
    }
  }
  for (const ClientLog& c : phase.writers) out->failed += c.failed;
  if (malformed > 0) {
    out->violations.push_back(std::to_string(malformed) +
                              " answers not sorted and unique");
  }
}

std::vector<double> Concat(const std::vector<ClientLog>& logs,
                           std::vector<double> ClientLog::*field) {
  std::vector<double> all;
  for (const ClientLog& c : logs) {
    all.insert(all.end(), (c.*field).begin(), (c.*field).end());
  }
  return all;
}

double MeanOf(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return Mean(sum, static_cast<double>(v.size()));
}

// ---------------------------------------------------------------- durability

std::string ScratchPath(const RunOptions& opt, const std::string& name) {
  return (std::filesystem::path(opt.scratch_dir) / name).string();
}

// Writes the checkpoint and fsyncs it: durable before the writes it
// anchors, and with no writeback of its pages left to stall the WAL
// appends timed next.
Status WriteCheckpoint(const ShardedSetSimilarityIndex& index,
                       const std::string& path) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    SSR_RETURN_IF_ERROR(ssr::WriteShardedCheckpoint(
        index, std::vector<std::uint64_t>(index.num_shards(), 0), out));
    out.close();
    if (out.fail()) return Status::Internal("checkpoint write failed");
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  const bool synced = fd >= 0 && ::fsync(fd) == 0;
  if (fd >= 0) ::close(fd);
  return synced ? Status::OK() : Status::Internal("checkpoint fsync failed");
}

// One file-backed WAL per shard, synced on every record.
class ShardWals {
 public:
  ShardWals(ShardedSetSimilarityIndex& index, const RunOptions& opt,
            const std::string& tag)
      : index_(index) {
    ssr::WalOptions wo;
    wo.sync_policy = ssr::WalSyncPolicy::kEveryRecord;
    for (std::uint32_t s = 0; s < index.num_shards(); ++s) {
      paths_.push_back(ScratchPath(opt, tag + "-wal-" + std::to_string(s)));
      files_.push_back(std::make_unique<std::ofstream>(
          paths_.back(), std::ios::binary | std::ios::trunc));
      writers_.push_back(
          std::make_unique<ssr::WalWriter>(*files_.back(), ssr::kWalFirstLsn, wo));
      index.AttachShardWal(s, writers_.back().get());
    }
  }
  ~ShardWals() { (void)Close(); }
  ShardWals(const ShardWals&) = delete;
  ShardWals& operator=(const ShardWals&) = delete;

  // Detaches, syncs and closes the logs; returns the records they hold.
  ssr::Result<std::uint64_t> Close() {
    std::uint64_t records = 0;
    Status status;
    for (std::size_t s = 0; s < writers_.size(); ++s) {
      index_.AttachShardWal(static_cast<std::uint32_t>(s), nullptr);
      records += writers_[s]->records_appended();
      Status synced = writers_[s]->Sync();
      files_[s]->close();
      if (synced.ok() && files_[s]->fail()) {
        synced = Status::Internal("WAL file close failed");
      }
      if (status.ok()) status = synced;
    }
    writers_.clear();
    files_.clear();
    if (!status.ok()) return status;
    return records;
  }
  const std::vector<std::string>& paths() const { return paths_; }

 private:
  ShardedSetSimilarityIndex& index_;
  std::vector<std::string> paths_;
  std::vector<std::unique_ptr<std::ofstream>> files_;
  std::vector<std::unique_ptr<ssr::WalWriter>> writers_;
};

ssr::Result<ssr::RecoveredShardedIndex> Recover(
    const std::string& checkpoint, const std::vector<std::string>& wal_paths,
    const ShardedIndexOptions& options) {
  std::ifstream ckpt(checkpoint, std::ios::binary);
  std::vector<std::unique_ptr<std::ifstream>> files;
  std::vector<std::istream*> wals(options.num_shards, nullptr);
  for (std::size_t s = 0; s < wal_paths.size(); ++s) {
    files.push_back(std::make_unique<std::ifstream>(wal_paths[s], std::ios::binary));
    wals[s] = files.back().get();
  }
  return ssr::RecoverShardedIndex(ckpt, wals, options);
}

// Times recovery from `checkpoint` + `wal_paths` kRecoverRepeats times and,
// when WALs are given, checks each recovered index digests equal to the
// live one.
double TimeRecovery(const std::string& checkpoint,
                    const std::vector<std::string>& wal_paths,
                    const ShardedIndexOptions& options,
                    std::uint64_t live_digest, RunOutcome* out) {
  std::vector<double> seconds;
  for (int r = 0; r < kRecoverRepeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    auto rec = Recover(checkpoint, wal_paths, options);
    seconds.push_back(SecondsSince(t0));
    if (!rec.ok()) {
      out->violations.push_back("recovery failed: " + rec.status().ToString());
      break;
    }
    if (!wal_paths.empty() && rec->index->ContentDigest() != live_digest) {
      out->violations.push_back("recovered digest differs from the live one");
      break;
    }
  }
  std::string times = wal_paths.empty() ? "checkpoint load s:" : "recover s:";
  for (double t : seconds) times += Fmt(" %.3f", t);
  out->notes.push_back(times);
  return Median(seconds);
}

// The final full-range query must return exactly the surviving sids.
void CheckFullRange(const ShardedSetSimilarityIndex& index,
                    const LiveCollection& live, RunOutcome* out) {
  auto all = index.Query(live.sets.front(), 0.0, 1.0);
  if (AnswerFailed(all) || all->sids != live.sids) {
    out->violations.push_back("full-range query differs from the survivors");
  }
}

// ---------------------------------------------------------------- write path

struct WritePathTimes {
  double ops = 0;
  double inserts = 0;
  double erases = 0;
  double wal_append_us = 0;
  double wal_sync_us = 0;
  double store_add_us = 0;
  double store_delete_us = 0;
  double core_insert_us = 0;
  double core_erase_us = 0;
  double wal_bytes = 0;
};

// Replays the write scripts through a standalone store, index and WAL per
// shard, built from the same inputs as that shard, timing each component
// of a sharded Insert/Erase separately. The WAL uses kOnCheckpoint so the
// append excludes the sync, which is timed on its own.
Status StandaloneWritePath(const ShardedSetSimilarityIndex& sharded,
                           const Inputs& in, const Layout& layout,
                           const RunOptions& opt, WritePathTimes* t) {
  const SetCollection& sets = in.sets;
  ssr::exec::EpochManager epochs;
  for (std::uint32_t s = 0; s < sharded.num_shards(); ++s) {
    ssr::SetStore store;
    std::vector<SetId> local_of;  // global sid -> local (kInvalidSetId)
    auto map = [&](SetId global, SetId local) {
      if (local_of.size() <= global) local_of.resize(global + 1, ssr::kInvalidSetId);
      local_of[global] = local;
    };
    for (std::size_t g = 0; g < sets.size(); ++g) {
      if (sharded.shard_map().ShardOf(static_cast<SetId>(g)) != s) continue;
      auto local = store.Add(sets[g]);
      if (!local.ok()) return local.status();
      map(static_cast<SetId>(g), local.value());
    }
    SetId next_local = static_cast<SetId>(store.size());
    auto index = ssr::SetSimilarityIndex::Build(store, layout.layout,
                                                layout.options.index);
    if (!index.ok()) return index.status();
    index->EnableConcurrentWrites(&epochs);
    std::ofstream file(ScratchPath(opt, "standalone-wal"),
                       std::ios::binary | std::ios::trunc);
    ssr::WalOptions wo;
    wo.sync_policy = ssr::WalSyncPolicy::kOnCheckpoint;
    ssr::WalWriter wal(file, ssr::kWalFirstLsn, wo);
    for (const auto& script : in.writes) {
      for (const WriteOp& op : script) {
        if (sharded.shard_map().ShardOf(op.sid) != s) continue;
        Clock::time_point t0 = Clock::now();
        if (op.insert) {
          const SetId local = next_local;
          SSR_RETURN_IF_ERROR(wal.AppendInsert(local, in.fresh[op.set]).status());
          t->wal_append_us += MicrosSince(t0);
          t0 = Clock::now();
          SSR_RETURN_IF_ERROR(wal.Sync());
          t->wal_sync_us += MicrosSince(t0);
          t0 = Clock::now();
          auto added = store.Add(in.fresh[op.set]);
          t->store_add_us += MicrosSince(t0);
          if (!added.ok()) return added.status();
          if (added.value() != local) return Status::Internal("sid drift");
          ++next_local;
          map(op.sid, local);
          t0 = Clock::now();
          SSR_RETURN_IF_ERROR(index->Insert(added.value(), in.fresh[op.set]));
          t->core_insert_us += MicrosSince(t0);
          t->inserts += 1;
        } else {
          const SetId local = local_of[op.sid];
          SSR_RETURN_IF_ERROR(wal.AppendErase(local).status());
          t->wal_append_us += MicrosSince(t0);
          t0 = Clock::now();
          SSR_RETURN_IF_ERROR(wal.Sync());
          t->wal_sync_us += MicrosSince(t0);
          t0 = Clock::now();
          SSR_RETURN_IF_ERROR(index->Erase(local));
          t->core_erase_us += MicrosSince(t0);
          t0 = Clock::now();
          SSR_RETURN_IF_ERROR(store.Delete(local));
          t->store_delete_us += MicrosSince(t0);
          t->erases += 1;
        }
        t->ops += 1;
      }
    }
    t->wal_bytes += static_cast<double>(wal.bytes_written());
  }
  return Status::OK();
}

// ---------------------------------------------------------------- reporting

void Add(RunOutcome* out, const std::string& name, double value,
         const std::string& unit) {
  out->metrics.push_back({name, value, unit});
}


void AddLatency(RunOutcome* out, const std::string& prefix,
                const std::vector<std::vector<double>>& rounds) {
  const LatencySummary s = SummarizeRounds(rounds, 99.0);
  Add(out, prefix + "_p50_us", s.p50, "us");
  Add(out, prefix + "_p99_us", s.tail, "us");
  out->notes.push_back(prefix + ": n=" + std::to_string(s.count) +
                       Fmt(" p50=%.1f us, p%g=%.1f us", s.p50, s.tail_pct,
                           s.tail) +
                       (s.per_round ? " (medians of the rounds)" : " (pooled)"));
  if (s.tail_pct != 99.0) {
    out->notes.push_back(prefix + ": too few samples for p99; reported p" +
                         Fmt("%g", s.tail_pct));
  }
}

void WriteSpanDump(const std::string& path,
                   const std::vector<const SpanLog*>& logs) {
  if (path.empty()) return;
  std::ofstream f(path, std::ios::trunc);
  for (std::size_t c = 0; c < logs.size(); ++c) {
    for (const Span& s : logs[c]->kept()) {
      f << "{\"client\":" << c << ",\"request\":" << s.request
        << ",\"parent\":" << s.parent << ",\"layer\":\""
        << kLayerNames[s.layer] << "\",\"shard\":" << int{s.shard}
        << ",\"items\":" << s.items << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return FindSpec(name) != nullptr;
}

Status RunWorkload(const RunOptions& opt, RunOutcome* out) {
  const Spec* spec = FindSpec(opt.workload);
  if (spec == nullptr) return Status::InvalidArgument("unknown workload");
  Clock::time_point stage_start = Clock::now();
  auto stage = [&](const std::string& name) {
    out->notes.push_back("stage " + name + Fmt(": %.2f s", SecondsSince(stage_start)));
    stage_start = Clock::now();
  };
  const Inputs in = MakeInputs(*spec, opt);
  stage("inputs");
  const bool churn = spec->writer_clients > 0;

  // Set-up: distribution estimate, layout, sharded build, repeated.
  std::vector<double> setup_s, dist_s, layout_s, build_s;
  Layout layout;
  std::optional<ShardedSetSimilarityIndex> built;
  for (int r = 0; r < kSetupRepeats; ++r) {
    SetupTimes t;
    auto lay = OptimizeLayout(in.sets, &t);
    if (!lay.ok()) return lay.status();
    built.reset();
    auto index = BuildIndex(in.sets, *lay, &t);
    if (!index.ok()) return index.status();
    layout = std::move(lay).value();
    built.emplace(std::move(index).value());
    dist_s.push_back(t.distribution_s);
    layout_s.push_back(t.layout_s);
    build_s.push_back(t.build_s);
    setup_s.push_back(t.distribution_s + t.layout_s + t.build_s);
  }
  Served served = Serve(std::move(*built));
  built.reset();
  ShardedSetSimilarityIndex& index = *served.index;

  const std::string checkpoint = ScratchPath(opt, "checkpoint");
  const std::vector<std::vector<Query>> no_queries;
  const std::vector<std::vector<WriteOp>> no_writes;
  stage("setup");

  // Warm-up, untimed: every client runs the first tenth of its queries.
  std::vector<std::vector<Query>> warmup;
  for (const auto& seq : in.queries) {
    warmup.emplace_back(seq.begin(), seq.begin() + seq.size() / kWarmupDivisor);
  }
  (void)RunPhase(index, in, warmup, no_writes, QueryMode::kRouter, 1);
  stage("warmup");

  // The timed phase: readers only, or readers beside the churn writers.
  // A traced run of a read-only workload alternates untraced and traced
  // rounds; churn_wal traces a second churn on a copy of the index below.
  std::optional<ShardWals> wals;
  if (churn) {
    SSR_RETURN_IF_ERROR(WriteCheckpoint(index, checkpoint));
    wals.emplace(index, opt, "timed");
  }
  const Phase timed =
      opt.trace && !churn
          ? RunPhase(index, in, in.queries, no_writes, QueryMode::kAlternate,
                     kTraceRounds)
          : RunPhase(index, in, in.queries, churn ? in.writes : no_writes,
                     QueryMode::kRouter);
  const double rss_mb = RssMb();
  CountPhaseFailures(timed, out);
  stage("timed");

  Phase churn_traced;
  const Phase& traced = churn ? churn_traced : timed;
  Counts counts;
  SpanLog attribution;
  double series_per_query = 0.0;
  auto trace_reads = [&](ShardedSetSimilarityIndex& target) {
    // Registry growth per routed query, on an otherwise idle index.
    {
      ssr::shard::QueryRouterOptions ro;
      ro.num_threads = 1;
      ssr::shard::QueryRouter router(target, ro);
      const std::size_t before = ssr::obs::MetricsRegistry::Default().Entries().size();
      for (std::size_t i = 0; i < kSeriesProbeQueries; ++i) {
        const Query& q = in.queries[0][i];
        (void)router.Query(in.sets[q.sid], q.sigma1, q.sigma2);
      }
      const std::size_t after = ssr::obs::MetricsRegistry::Default().Entries().size();
      series_per_query =
          static_cast<double>(after - before) / kSeriesProbeQueries;
    }
    // Attribution: every client repeats a prefix of its sequence.
    std::vector<Counts> per_client(in.queries.size());
    std::vector<SpanLog> logs(in.queries.size());
    std::vector<std::thread> threads;
    std::vector<char> ok(in.queries.size(), 1);
    for (std::size_t c = 0; c < in.queries.size(); ++c) {
      threads.emplace_back([&, c] {
        const std::size_t n = in.queries[c].size() / kAttributionDivisor;
        for (std::size_t i = 0; i < n; ++i) {
          const Query& q = in.queries[c][i];
          if (!AttributeQuery(target, in.sets[q.sid], q.sigma1, q.sigma2,
                              static_cast<std::uint32_t>(i), logs[c],
                              &per_client[c])) {
            ok[c] = 0;
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t c = 0; c < in.queries.size(); ++c) {
      if (!ok[c]) out->violations.push_back("attribution query failed");
      counts.Merge(per_client[c]);
      attribution.Merge(logs[c]);
    }
  };

  // Read-only workloads: recall and the attribution pass on the untouched
  // index, then the single-writer segment.
  double recall = 0.0;
  Phase writes_phase;
  if (!churn) {
    recall = MeasureRecall(index, in, BaseCollection(in.sets), out);
    stage("recall");
    if (opt.trace) {
      trace_reads(index);
      stage("attribution");
    }
    SSR_RETURN_IF_ERROR(WriteCheckpoint(index, checkpoint));
    wals.emplace(index, opt, "writes");
    writes_phase =
        RunPhase(index, in, no_queries, in.writes, QueryMode::kRouter);
    CountPhaseFailures(writes_phase, out);
    stage("writes");
  }
  const Phase& writes = churn ? timed : writes_phase;
  const ssr::exec::EpochManager& epochs = *served.epochs;
  const std::uint64_t epoch_deferred = epochs.deferred_count();
  const double reclaim_ratio =
      Mean(static_cast<double>(epochs.reclaimed_total()),
           static_cast<double>(epochs.retired_total()));
  const ssr::Result<std::uint64_t> wal_records = wals->Close();
  if (!wal_records.ok()) return wal_records.status();
  // The write components are timed right after the sharded writes, so the
  // two sides of shard.writer_wait_us see the same process and host state.
  WritePathTimes w;
  if (opt.trace) {
    SSR_RETURN_IF_ERROR(StandaloneWritePath(index, in, layout, opt, &w));
    stage("standalone writes");
  }

  // Durability and the final state: recovery from the pre-write checkpoint
  // plus the WALs must digest equal to the live index, and a full-range
  // query must return exactly the surviving sids.
  const LiveCollection live = SurvivingCollection(in);
  if (churn) {
    recall = MeasureRecall(index, in, live, out);
    stage("recall");
  }
  const double recover_s = TimeRecovery(checkpoint, wals->paths(),
                                        layout.options, index.ContentDigest(),
                                        out);
  CheckFullRange(index, live, out);
  stage("recovery");
  double checkpoint_load_s = 0.0;
  if (opt.trace) {
    checkpoint_load_s = TimeRecovery(checkpoint, {}, layout.options, 0, out);
  }
  // churn_wal: a copy of the pre-churn index takes the attribution pass and
  // a traced churn.
  if (churn && opt.trace) {
    auto copy = Recover(checkpoint, {}, layout.options);
    if (!copy.ok()) return copy.status();
    Served second = Serve(std::move(*copy->index));
    trace_reads(*second.index);
    ShardWals traced_wals(*second.index, opt, "traced");
    churn_traced = RunPhase(*second.index, in, in.queries, in.writes,
                            QueryMode::kTraced);
    CountPhaseFailures(churn_traced, out);
    SSR_RETURN_IF_ERROR(traced_wals.Close().status());
    stage("traced");
  }

  out->notes.push_back(Fmt("timed phase: %.0f queries at %.1f/s, ",
                           timed.queries(), timed.qps()) +
                       Fmt("%.0f writes at %.0f/s", static_cast<double>(
                           writes.writes()), writes.write_rate()));
  {
    std::string rounds = "round qps:";
    for (double r : timed.round_qps) rounds += Fmt(" %.1f", r);
    out->notes.push_back(rounds);
  }
  if (!opt.trace) {
    Add(out, "qps", timed.qps(), "1/s");
    AddLatency(out, "query", timed.round_query_us);
    Add(out, "recall", recall, "fraction");
    Add(out, "write_ops_per_s", writes.write_rate(), "1/s");
    AddLatency(out, "write", writes.round_write_us);
    Add(out, "setup_s", Median(setup_s), "s");
    Add(out, "rss_mb", rss_mb, "MB");
    return Status::OK();
  }

  // ---- per-layer metrics (traced run)
  SpanLog router;
  for (const ClientLog& c : traced.traced) router.Merge(c.spans);
  const double routed = router.totals(kRouter).spans;
  auto per_call_us = [](const SpanLog& log, Layer l) {
    return Mean(log.totals(l).ns, log.totals(l).spans) / 1e3;
  };
  auto per_item_ns = [](const SpanLog& log, Layer l) {
    return Mean(log.totals(l).ns, log.totals(l).items);
  };
  auto per_query_us = [&](const SpanLog& log, Layer l, double queries) {
    return Mean(log.totals(l).ns, queries) / 1e3;
  };
  bool accounting_ok = true;
  const double router_us = per_call_us(router, kRouter);
  const double view_us = per_query_us(router, kViewOpen, routed) +
                         per_query_us(router, kViewClose, routed);
  const double through_us = per_query_us(router, kQueryThrough, routed);
  const double gather_us =
      SelfTime(router_us, view_us + through_us, kNestedNoise * router_us,
               &accounting_ok);
  const double sign_us = per_call_us(attribution, kSign);
  const double candidates_us = per_call_us(attribution, kCandidates);
  const double attr_through_us = per_call_us(attribution, kAttrQueryThrough);
  const double probe_us =
      SelfTime(candidates_us, sign_us, kCrossCallNoise * candidates_us,
               &accounting_ok);
  const double verify_us =
      SelfTime(attr_through_us, candidates_us,
               kCrossCallNoise * attr_through_us, &accounting_ok);
  const double pins = router.totals(kEpochPin).spans;
  const double pin_ns =
      Mean(router.totals(kEpochPin).ns + router.totals(kEpochUnpin).ns, pins);

  Add(out, "shard.router_query_us", router_us, "us");
  Add(out, "hamming.sign_us", sign_us, "us");
  Add(out, "core.candidates_us", candidates_us, "us");
  Add(out, "core.probe_us", probe_us, "us");
  Add(out, "core.query_through_us", attr_through_us, "us");
  Add(out, "core.verify_us", verify_us, "us");
  Add(out, "storage.view_open_us", view_us / kShards, "us");
  Add(out, "storage.fetch_ns_per_candidate", per_item_ns(attribution, kFetch),
      "ns");
  Add(out, "util.jaccard_ns_per_candidate",
      per_item_ns(attribution, kJaccard), "ns");
  Add(out, "shard.gather_us", gather_us, "us");
  Add(out, "exec.epoch_pin_ns", pin_ns, "ns");
  Add(out, "obs.series_per_query", series_per_query, "count");

  const double q = counts.queries;
  Add(out, "core.candidates_per_query", Mean(counts.candidates, q), "count");
  Add(out, "core.results_per_query", Mean(counts.results, q), "count");
  Add(out, "core.verify_yield", Mean(counts.results, counts.candidates),
      "fraction");
  Add(out, "core.bucket_accesses_per_query", Mean(counts.bucket_accesses, q),
      "count");
  Add(out, "core.sids_scanned_per_query", Mean(counts.sids_scanned, q),
      "count");
  Add(out, "storage.pages_per_query", Mean(counts.pages, q), "count");
  Add(out, "storage.buffer_pool_hit_ratio",
      Mean(counts.pool_hits, counts.pool_hits + counts.pool_misses),
      "fraction");

  const double shard_insert_us =
      MeanOf(Concat(writes.writers, &ClientLog::insert_us));
  const double shard_erase_us =
      MeanOf(Concat(writes.writers, &ClientLog::erase_us));
  const double components_us = w.wal_append_us + w.wal_sync_us +
                               w.store_add_us + w.store_delete_us +
                               w.core_insert_us + w.core_erase_us;
  const double shard_ops_us = shard_insert_us * w.inserts + shard_erase_us * w.erases;
  const double writer_wait_us =
      Mean(SelfTime(shard_ops_us, components_us,
                    kCrossCallNoise * shard_ops_us, &accounting_ok),
           w.ops);
  Add(out, "shard.insert_us", shard_insert_us, "us");
  Add(out, "shard.erase_us", shard_erase_us, "us");
  Add(out, "storage.store_add_us", Mean(w.store_add_us, w.inserts), "us");
  Add(out, "core.insert_us", Mean(w.core_insert_us, w.inserts), "us");
  Add(out, "core.erase_us", Mean(w.core_erase_us, w.erases), "us");
  Add(out, "storage.wal_append_us", Mean(w.wal_append_us, w.ops), "us");
  Add(out, "storage.wal_sync_us", Mean(w.wal_sync_us, w.ops), "us");
  Add(out, "storage.wal_bytes_per_write", Mean(w.wal_bytes, w.ops), "B");
  Add(out, "shard.writer_wait_us", writer_wait_us, "us");

  Add(out, "exec.epoch_deferred", static_cast<double>(epoch_deferred),
      "count");
  Add(out, "exec.reclaim_ratio", reclaim_ratio, "fraction");
  Add(out, "storage.recover_s", recover_s, "s");
  Add(out, "storage.checkpoint_load_s", checkpoint_load_s, "s");
  const double replay_s =
      SelfTime(recover_s, checkpoint_load_s,
               kCrossCallNoise * recover_s, &accounting_ok);
  Add(out, "storage.recover_records_per_s",
      Mean(static_cast<double>(*wal_records), replay_s), "1/s");

  Add(out, "optimizer.distribution_s", Median(dist_s), "s");
  Add(out, "optimizer.layout_s", Median(layout_s), "s");
  Add(out, "shard.build_s", Median(build_s), "s");

  Add(out, "bench.trace_overhead_frac",
      churn ? 1.0 - churn_traced.qps() / timed.qps() : timed.trace_overhead(),
      "fraction");

  if (!accounting_ok) {
    out->notes.push_back(
        "WARNING: a derived self time is negative beyond noise");
  }
  std::vector<const SpanLog*> dumped;
  for (const ClientLog& c : traced.traced) dumped.push_back(&c.spans);
  WriteSpanDump(opt.spans_path, dumped);
  out->notes.push_back(Fmt("traced: %.0f routed queries, %.0f attributed, "
                           "%.0f standalone writes",
                           routed, q, w.ops));
  return Status::OK();
}

}  // namespace perfbench
