#include "storage/set_store.h"

#include <sstream>

#include "fault/fault_injector.h"
#include "util/serialize.h"
#include "util/set_ops.h"
#include "util/stopwatch.h"

namespace ssr {

namespace {
SetStoreOptions ResolveMetricsScope(SetStoreOptions options) {
  if (options.metrics_scope.empty()) {
    options.metrics_scope = obs::MetricsRegistry::Default().NewScope("store");
  }
  return options;
}

// A sid is live iff its slot in the dense locator array holds a valid
// locator; sids past the end were never handed out.
bool IsLive(const std::vector<RecordLocator>& locators, SetId sid) {
  return sid < locators.size() && locators[sid].valid();
}
}  // namespace

SetStore::SetStore(SetStoreOptions options)
    : options_(ResolveMetricsScope(std::move(options))),
      pool_(options_.buffer_pool_pages),
      io_(options_.io) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const std::string& scope = options_.metrics_scope;
  sets_added_ = registry.GetCounter("ssr_store_sets_added_total", scope);
  gets_ = registry.GetCounter("ssr_store_gets_total", scope);
  scans_ = registry.GetCounter("ssr_store_scans_total", scope);
  fetch_failures_ =
      registry.GetCounter("ssr_store_fetch_failures_total", scope);
  live_sets_ = registry.GetGauge("ssr_store_live_sets", scope);
  heap_pages_ = registry.GetGauge("ssr_store_heap_pages", scope);
  get_latency_hist_ = registry.GetHistogram("ssr_store_get_latency_micros",
                                            scope, obs::LatencyBoundsMicros());
}

SetStore::SetStore(SetStore&& other) noexcept
    : options_(std::move(other.options_)),
      file_(std::move(other.file_)),
      locators_(std::move(other.locators_)),
      live_count_(other.live_count_),
      pool_(std::move(other.pool_)),
      io_(std::move(other.io_)),
      sets_added_(other.sets_added_),
      gets_(other.gets_),
      scans_(other.scans_),
      fetch_failures_(other.fetch_failures_),
      live_sets_(other.live_sets_),
      heap_pages_(other.heap_pages_),
      get_latency_hist_(other.get_latency_hist_),
      next_sid_(other.next_sid_),
      live_bytes_(other.live_bytes_) {
  other.live_count_ = 0;
  other.next_sid_ = 0;
  other.live_bytes_ = 0;
}

SetStore& SetStore::operator=(SetStore&& other) noexcept {
  if (this != &other) {
    options_ = std::move(other.options_);
    file_ = std::move(other.file_);
    locators_ = std::move(other.locators_);
    live_count_ = other.live_count_;
    pool_ = std::move(other.pool_);
    io_ = std::move(other.io_);
    sets_added_ = other.sets_added_;
    gets_ = other.gets_;
    scans_ = other.scans_;
    fetch_failures_ = other.fetch_failures_;
    live_sets_ = other.live_sets_;
    heap_pages_ = other.heap_pages_;
    get_latency_hist_ = other.get_latency_hist_;
    next_sid_ = other.next_sid_;
    live_bytes_ = other.live_bytes_;
    other.live_count_ = 0;
    other.next_sid_ = 0;
    other.live_bytes_ = 0;
  }
  return *this;
}

Result<SetId> SetStore::Add(const ElementSet& set) {
  if (!IsNormalizedSet(set)) {
    return Status::InvalidArgument("set must be sorted and duplicate-free");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Appends hit the device too ("store/add" site). Fault before the sid is
  // allocated so a failed Add leaves the store bit-identical.
  SSR_RETURN_IF_ERROR(
      fault::FaultInjector::Default().CheckStatus("store/add"));
  const SetId sid = next_sid_;
  auto loc = file_.Append(sid, set);
  if (!loc.ok()) return loc.status();
  ++next_sid_;
  locators_.push_back(loc.value());
  ++live_count_;
  // Appends dirty the tail page(s); charge them as sequential writes.
  io_.ChargeWrite(1);
  live_bytes_ += HeapFile::RecordBytes(set.size());
  sets_added_->Increment();
  live_sets_->Set(static_cast<double>(live_count_));
  heap_pages_->Set(static_cast<double>(file_.num_pages()));
  return sid;
}

bool SetStore::Contains(SetId sid) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return IsLive(locators_, sid);
}

Result<RecordLocator> SetStore::Locate(SetId sid) const {
  if (!IsLive(locators_, sid)) {
    return Status::NotFound("sid " + std::to_string(sid) + " is not live");
  }
  return locators_[sid];
}

template <typename T, typename Use>
Result<T> SetStore::FetchRecord(SetId sid, BufferPool& pool, IoCostModel& io,
                                std::vector<std::uint8_t>* scratch,
                                Use&& use) const {
  gets_->Increment();
  Stopwatch watch;
  auto loc = Locate(sid);
  if (!loc.ok()) return loc.status();
  // The page fetch is where transient device faults land ("store/get"
  // site); retry those before letting the error escape to the query layer.
  auto result = fault::RetryWithPolicy(options_.get_retry, [&]() -> Result<T> {
    SSR_RETURN_IF_ERROR(
        fault::FaultInjector::Default().CheckStatus("store/get"));
    auto record = file_.View(loc.value(), scratch);
    if (!record.ok()) return record.status();
    if (record->sid != sid) {
      return Status::Corruption("sid mismatch in heap record");
    }
    for (std::uint32_t i = 0; i < record->num_pages; ++i) {
      pool.Access(record->first_page + i, /*sequential=*/false, io);
    }
    return use(record.value());
  });
  if (!result.ok()) fetch_failures_->Increment();
  get_latency_hist_->Observe(static_cast<double>(watch.ElapsedMicros()));
  return result;
}

namespace {

ElementSet Decode(const RecordView& record) { return record.Decode(); }

// The verify verdict's input, computed on the record bytes in place.
auto JaccardWith(const ElementSet& query) {
  return [&query](const RecordView& record) {
    return JaccardRaw(query, record.elements, record.count);
  };
}

}  // namespace

Result<ElementSet> SetStore::Get(SetId sid) {
  // Exclusive: the fetch mutates the shared pool's LRU state and the I/O
  // counters. Concurrent readers use ReadView (private pool, shared lock).
  std::unique_lock<std::shared_mutex> lock(mu_);
  return FetchRecord<ElementSet>(sid, pool_, io_, &scratch_, Decode);
}

Result<Similarity> SetStore::SimilarityTo(SetId sid, const ElementSet& query) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return FetchRecord<Similarity>(sid, pool_, io_, &scratch_,
                                 JaccardWith(query));
}

Result<std::uint32_t> SetStore::RecordSize(SetId sid) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto loc = Locate(sid);
  if (!loc.ok()) return loc.status();
  auto record = file_.View(loc.value(), /*scratch=*/nullptr);
  if (!record.ok()) return record.status();
  if (record->sid != sid) {
    return Status::Corruption("sid mismatch in heap record");
  }
  return record->count;
}

SetStore::ReadView::ReadView(const SetStore& store)
    : store_(&store),
      pool_(store.options_.buffer_pool_pages),
      io_(store.options_.io) {}

// The view fetches mirror the store's, but every mutable touch lands on
// this view's private pool_/io_/scratch_; the shared structures (locators_,
// file_) are only read, under the store's shared lock so writers are
// excluded.
Result<ElementSet> SetStore::ReadView::Get(SetId sid) {
  std::shared_lock<std::shared_mutex> lock(store_->mu_);
  return store_->FetchRecord<ElementSet>(sid, pool_, io_, &scratch_, Decode);
}

Result<Similarity> SetStore::ReadView::SimilarityTo(SetId sid,
                                                    const ElementSet& query) {
  std::shared_lock<std::shared_mutex> lock(store_->mu_);
  return store_->FetchRecord<Similarity>(sid, pool_, io_, &scratch_,
                                         JaccardWith(query));
}

Status SetStore::Delete(SetId sid) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto loc = Locate(sid);
  if (!loc.ok()) return loc.status();
  locators_[sid] = RecordLocator{};
  --live_count_;
  live_sets_->Set(static_cast<double>(live_count_));
  return Status::OK();
}

namespace {

// Shared by SetStore::ScanAll and ReadView::ScanAll; only the charged cost
// model differs. A full-file scan touches every page once, sequentially.
// Charge pages as the record cursor crosses them rather than via the pool:
// sequential scans bypass the (small) pool in real systems to avoid cache
// pollution.
void ScanAllImpl(const HeapFile& file,
                 const std::vector<RecordLocator>& locators, IoCostModel& io,
                 const std::function<bool(SetId, const ElementSet&)>& visitor) {
  PageId last_charged = kInvalidPageId;
  bool stopped = false;
  file.Scan([&](SetId sid, const ElementSet& set, const RecordLocator& loc) {
    if (stopped) return false;
    // Charge every page from the previous cursor position through this
    // record's last page.
    std::size_t span_pages = 1;
    if (loc.is_spanned()) {
      span_pages =
          (HeapFile::RecordBytes(set.size()) + kPageSize - 1) / kPageSize;
    }
    const PageId first = loc.page;
    const PageId last = loc.page + static_cast<PageId>(span_pages) - 1;
    if (last_charged == kInvalidPageId || first > last_charged) {
      io.ChargeSequentialRead(last - first + 1);
      last_charged = last;
    } else if (last > last_charged) {
      io.ChargeSequentialRead(last - last_charged);
      last_charged = last;
    }
    if (!IsLive(locators, sid)) return true;  // deleted: skip, keep scanning
    if (!visitor(sid, set)) {
      stopped = true;
      return false;
    }
    return true;
  });
}

}  // namespace

void SetStore::ScanAll(
    const std::function<bool(SetId, const ElementSet&)>& visitor) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  scans_->Increment();
  ScanAllImpl(file_, locators_, io_, visitor);
}

void SetStore::ReadView::ScanAll(
    const std::function<bool(SetId, const ElementSet&)>& visitor) {
  std::shared_lock<std::shared_mutex> lock(store_->mu_);
  store_->scans_->Increment();
  ScanAllImpl(store_->file_, store_->locators_, io_, visitor);
}

double SetStore::AvgSetPages() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (live_count_ == 0) return 0.0;
  const double bytes_per_set =
      static_cast<double>(live_bytes_) / static_cast<double>(next_sid_);
  return bytes_per_set / static_cast<double>(kPageSize);
}

namespace {
constexpr std::string_view kSetStoreMagic = "SSRSTORE";
constexpr std::uint32_t kSetStoreVersion = 2;
}  // namespace

Status SetStore::SaveTo(std::ostream& out) const {
  // Store-level snapshot (meta + live index), then the heap file's own
  // snapshot. Two framed snapshots back to back: each is independently
  // checksummed and footer-pinned, and both read back sequentially.
  std::shared_lock<std::shared_mutex> lock(mu_);
  SnapshotWriter snapshot(out, kSetStoreMagic, kSetStoreVersion);

  BinaryWriter& meta = snapshot.BeginSection("meta");
  meta.WriteU32(next_sid_);
  meta.WriteU64(live_bytes_);
  SSR_RETURN_IF_ERROR(snapshot.EndSection());

  // Live sids in ascending order with their locators (re-derivable from
  // the heap's record directory but stored for integrity checking).
  std::vector<SetId> live;
  std::vector<RecordLocator> locators;
  live.reserve(live_count_);
  locators.reserve(live_count_);
  for (SetId sid = 0; sid < locators_.size(); ++sid) {
    if (!locators_[sid].valid()) continue;
    live.push_back(sid);
    locators.push_back(locators_[sid]);
  }
  BinaryWriter& live_sec = snapshot.BeginSection("live");
  live_sec.WriteVector(live);
  live_sec.WriteVector(locators);
  SSR_RETURN_IF_ERROR(snapshot.EndSection());

  SSR_RETURN_IF_ERROR(snapshot.Finish());
  return file_.SaveTo(out);
}

Result<SetStore> SetStore::Load(std::istream& in, SetStoreOptions options,
                                const SnapshotLoadOptions& load_options) {
  SnapshotReader snapshot(in);
  std::uint32_t version = 0;
  SSR_RETURN_IF_ERROR(snapshot.ReadHeader(kSetStoreMagic, &version));
  if (version != kSetStoreVersion) {
    return Status::NotSupported("unknown store version");
  }

  // The store-level sections are small and irreplaceable: strict always.
  SetStore store(options);
  std::string payload;
  SSR_RETURN_IF_ERROR(snapshot.ReadSection("meta", &payload));
  {
    std::istringstream meta_in(payload);
    BinaryReader meta(meta_in);
    SSR_RETURN_IF_ERROR(meta.ReadU32(&store.next_sid_));
    SSR_RETURN_IF_ERROR(meta.ReadU64(&store.live_bytes_));
  }
  std::vector<SetId> live;
  std::vector<RecordLocator> locators;
  SSR_RETURN_IF_ERROR(snapshot.ReadSection("live", &payload));
  {
    std::istringstream live_in(payload);
    BinaryReader live_reader(live_in);
    SSR_RETURN_IF_ERROR(live_reader.ReadVector(&live));
    SSR_RETURN_IF_ERROR(live_reader.ReadVector(&locators));
  }
  if (live.size() != locators.size()) {
    return Status::Corruption("live/locator size mismatch");
  }
  SSR_RETURN_IF_ERROR(snapshot.VerifyFooter());

  RecoveryReport heap_report;
  SnapshotLoadOptions heap_options = load_options;
  heap_options.report = &heap_report;
  auto file = HeapFile::LoadFrom(in, heap_options);
  if (!file.ok()) return file.status();
  store.file_ = std::move(file).value();

  // Every sid ever added has a heap record, so next_sid_ also bounds the
  // locator array by the bytes actually loaded.
  if (store.next_sid_ > store.file_.num_records()) {
    return Status::Corruption("next_sid beyond heap records");
  }
  store.locators_.assign(store.next_sid_, RecordLocator{});
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (live[i] >= store.next_sid_) {
      return Status::Corruption("live sid beyond next_sid");
    }
    // An invalid locator would read as "not live" in the array.
    if (!locators[i].valid()) {
      return Status::Corruption("live sid with invalid locator");
    }
    RecordLocator& slot = store.locators_[live[i]];
    if (slot.valid()) return Status::Corruption("duplicate live sid");
    slot = RecordLocator{locators[i].page, locators[i].slot};
  }
  store.live_count_ = live.size();
  std::size_t live_dropped = 0;
  if (heap_report.salvaged) {
    for (const SetId sid : live) {
      if (store.file_.Read(store.locators_[sid], nullptr).ok()) continue;
      // The record's page(s) were quarantined: drop it from the live index
      // so the store never serves a silently wrong answer for this sid.
      store.locators_[sid] = RecordLocator{};
      ++live_dropped;
    }
    store.live_count_ -= live_dropped;
  }

  if (heap_report.salvaged) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    const std::string& scope = store.options_.metrics_scope;
    registry.GetCounter("ssr_recovery_salvage_loads_total", scope)
        ->Increment();
    registry.GetCounter("ssr_recovery_pages_quarantined_total", scope)
        ->Add(heap_report.pages_quarantined);
    registry.GetCounter("ssr_recovery_records_quarantined_total", scope)
        ->Add(live_dropped);
  }
  if (load_options.report != nullptr) {
    heap_report.records_quarantined = live_dropped;
    load_options.report->MergeFrom(heap_report);
  }

  store.live_sets_->Set(static_cast<double>(store.live_count_));
  store.heap_pages_->Set(static_cast<double>(store.file_.num_pages()));
  return store;
}

void SetStore::ResetIoAccounting() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  pool_.Clear();
  pool_.ResetStats();
  io_.Reset();
}

}  // namespace ssr
