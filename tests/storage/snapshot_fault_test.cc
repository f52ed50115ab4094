// Fault matrix for the v2 snapshot format: truncation at every prefix,
// a bit flip at every byte, torn/failed writes via the fault injector,
// version skew, and the salvage paths that quarantine damaged heap pages.

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/set_store.h"
#include "storage/snapshot.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace {

// Serialized footprint of the snapshot footer: WriteString("SSRFOOT")
// (u64 length + 7 bytes) + section count u32 + crc-of-crcs u32.
constexpr std::size_t kFooterBytes = 8 + 7 + 4 + 4;
// One entry in the heap "pages" section: u32 page CRC + the page image.
constexpr std::size_t kPageEntryBytes = 4 + kPageSize;

class SnapshotFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultInjector::Default().Reset(); }
  void TearDown() override { fault::FaultInjector::Default().Reset(); }
};

// Tests that rely on faults actually firing skip when the hooks are
// compiled out (-DSSR_FAULT_INJECTION=OFF); byte-level corruption and
// salvage tests run in every configuration.
#ifdef SSR_NO_FAULT_INJECTION
#define SKIP_WITHOUT_INJECTION() \
  GTEST_SKIP() << "built with SSR_NO_FAULT_INJECTION"
#else
#define SKIP_WITHOUT_INJECTION() (void)0
#endif

ElementSet SmallSet(Rng& rng) {
  ElementSet s;
  for (int i = 0; i < 10; ++i) s.push_back(rng.Uniform(100000));
  NormalizeSet(s);
  if (s.empty()) s.push_back(1);
  return s;
}

// A heap file with enough small records to fill several slotted pages.
HeapFile BuildHeapFile(std::vector<ElementSet>* sets) {
  HeapFile file;
  Rng rng(271828);
  for (SetId sid = 0; sid < 200; ++sid) {
    ElementSet s = SmallSet(rng);
    EXPECT_TRUE(file.Append(sid, s).ok());
    if (sets != nullptr) sets->push_back(std::move(s));
  }
  EXPECT_GE(file.num_pages(), 3u);
  return file;
}

std::string Serialize(const HeapFile& file) {
  std::stringstream buffer;
  EXPECT_TRUE(file.SaveTo(buffer).ok());
  return buffer.str();
}

// Byte offset of page `i`'s image inside a serialized heap file (or of the
// trailing heap snapshot of a serialized SetStore): the "pages" section
// payload is the last section before the footer.
std::size_t PageDataOffset(const std::string& bytes, std::size_t num_pages,
                           std::size_t i) {
  const std::size_t payload_start =
      bytes.size() - kFooterBytes - num_pages * kPageEntryBytes;
  return payload_start + i * kPageEntryBytes + 4;
}

Status LoadHeapStatus(const std::string& bytes,
                      const SnapshotLoadOptions& options = {}) {
  std::stringstream in(bytes);
  return HeapFile::LoadFrom(in, options).status();
}

// ---------------------------------------------------------------------------
// Framing-level matrix: every truncation point and every flipped byte must
// surface as a typed integrity error, never as a clean load or a crash.
// ---------------------------------------------------------------------------

TEST_F(SnapshotFaultTest, FramingRoundTrip) {
  std::stringstream buffer;
  SnapshotWriter writer(buffer, "SSRTEST", 2);
  writer.BeginSection("alpha").WriteU64(42);
  ASSERT_TRUE(writer.EndSection().ok());
  BinaryWriter& w = writer.BeginSection("beta");
  w.WriteString("payload");
  ASSERT_TRUE(writer.EndSection().ok());
  ASSERT_TRUE(writer.Finish().ok());

  SnapshotReader reader(buffer);
  std::uint32_t version = 0;
  ASSERT_TRUE(reader.ReadHeader("SSRTEST", &version).ok());
  EXPECT_EQ(version, 2u);
  std::string alpha, beta;
  ASSERT_TRUE(reader.ReadSection("alpha", &alpha).ok());
  ASSERT_TRUE(reader.ReadSection("beta", &beta).ok());
  EXPECT_EQ(alpha.size(), 8u);
  ASSERT_TRUE(reader.VerifyFooter().ok());
}

TEST_F(SnapshotFaultTest, MisorderedSectionIsCorruption) {
  std::stringstream buffer;
  SnapshotWriter writer(buffer, "SSRTEST", 2);
  writer.BeginSection("alpha").WriteU64(1);
  ASSERT_TRUE(writer.EndSection().ok());
  ASSERT_TRUE(writer.Finish().ok());
  SnapshotReader reader(buffer);
  std::uint32_t version = 0;
  ASSERT_TRUE(reader.ReadHeader("SSRTEST", &version).ok());
  std::string payload;
  EXPECT_TRUE(reader.ReadSection("beta", &payload).IsCorruption());
}

TEST_F(SnapshotFaultTest, TruncationAtEveryPrefixIsTypedError) {
  HeapFile file;
  ASSERT_TRUE(file.Append(0, {1, 2, 3}).ok());
  const std::string full = Serialize(file);
  for (std::size_t len = 0; len < full.size(); ++len) {
    const Status s = LoadHeapStatus(full.substr(0, len));
    ASSERT_FALSE(s.ok()) << "prefix " << len << " of " << full.size();
    EXPECT_TRUE(s.IsDataLoss() || s.IsCorruption())
        << "prefix " << len << ": " << s.ToString();
  }
}

TEST_F(SnapshotFaultTest, BitFlipAtEveryByteIsDetected) {
  HeapFile file;
  ASSERT_TRUE(file.Append(0, {1, 2, 3}).ok());
  ASSERT_TRUE(file.Append(1, {4, 5}).ok());
  const std::string full = Serialize(file);
  for (std::size_t i = 0; i < full.size(); ++i) {
    std::string flipped = full;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x10);
    const Status s = LoadHeapStatus(flipped);
    ASSERT_FALSE(s.ok()) << "flip at byte " << i;
    // Version-field flips read as skew; everything else is an integrity
    // failure.
    EXPECT_TRUE(s.IsDataLoss() || s.IsCorruption() || s.IsNotSupported())
        << "flip at byte " << i << ": " << s.ToString();
  }
}

TEST_F(SnapshotFaultTest, VersionSkewIsNotSupported) {
  std::stringstream heap_buf;
  SnapshotWriter heap_writer(heap_buf, "SSRHEAP", 99);
  ASSERT_TRUE(heap_writer.Finish().ok());
  EXPECT_TRUE(LoadHeapStatus(heap_buf.str()).IsNotSupported());

  std::stringstream store_buf;
  SnapshotWriter store_writer(store_buf, "SSRSTORE", 99);
  ASSERT_TRUE(store_writer.Finish().ok());
  EXPECT_TRUE(SetStore::Load(store_buf).status().IsNotSupported());
}

// ---------------------------------------------------------------------------
// Injected write faults: saves fail loudly, and what bytes did land never
// load as a clean snapshot.
// ---------------------------------------------------------------------------

TEST_F(SnapshotFaultTest, WriteErrorFailsSave) {
  SKIP_WITHOUT_INJECTION();
  auto& fi = fault::FaultInjector::Default();
  fi.Enable(1);
  fi.Arm("snapshot/write", fault::FaultKind::kWriteError,
         fault::FaultSchedule::Always());
  HeapFile file;
  ASSERT_TRUE(file.Append(0, {1, 2, 3}).ok());
  std::stringstream buffer;
  EXPECT_FALSE(file.SaveTo(buffer).ok());
}

TEST_F(SnapshotFaultTest, TornWriteMidSaveIsDetectedOnLoad) {
  SKIP_WITHOUT_INJECTION();
  HeapFile file;
  ASSERT_TRUE(file.Append(0, {1, 2, 3}).ok());
  auto& fi = fault::FaultInjector::Default();
  // Tear each of the first writes in turn; whatever prefix survives must
  // never load cleanly.
  for (std::uint64_t after = 0; after < 8; ++after) {
    fi.Reset();
    fi.Enable(99);
    fi.Arm("snapshot/write", fault::FaultKind::kTornWrite,
           fault::FaultSchedule::Once(after));
    std::stringstream buffer;
    EXPECT_FALSE(file.SaveTo(buffer).ok()) << "torn after " << after;
    fi.Reset();
    const Status s = LoadHeapStatus(buffer.str());
    ASSERT_FALSE(s.ok()) << "torn after " << after;
    EXPECT_TRUE(s.IsDataLoss() || s.IsCorruption())
        << "torn after " << after << ": " << s.ToString();
  }
}

TEST_F(SnapshotFaultTest, BitFlipDuringSaveIsDetectedOnLoad) {
  SKIP_WITHOUT_INJECTION();
  HeapFile file;
  ASSERT_TRUE(file.Append(0, {7, 8, 9}).ok());
  auto& fi = fault::FaultInjector::Default();
  for (std::uint64_t after = 0; after < 8; ++after) {
    fi.Reset();
    fi.Enable(4242 + after);
    fi.Arm("snapshot/write", fault::FaultKind::kBitFlip,
           fault::FaultSchedule::Once(after));
    std::stringstream buffer;
    ASSERT_TRUE(file.SaveTo(buffer).ok());  // flips corrupt, don't fail
    fi.Reset();
    EXPECT_FALSE(LoadHeapStatus(buffer.str()).ok()) << "flip after " << after;
  }
}

TEST_F(SnapshotFaultTest, InjectedReadFaultSurfacesUnavailable) {
  SKIP_WITHOUT_INJECTION();
  HeapFile file;
  ASSERT_TRUE(file.Append(0, {1, 2, 3}).ok());
  const std::string full = Serialize(file);
  auto& fi = fault::FaultInjector::Default();
  fi.Enable(1);
  fi.Arm("snapshot/read", fault::FaultKind::kReadError,
         fault::FaultSchedule::Once(/*after_hits=*/3));
  EXPECT_TRUE(LoadHeapStatus(full).IsUnavailable());
}

// ---------------------------------------------------------------------------
// Salvage: corrupt pages are quarantined, surviving records keep working.
// ---------------------------------------------------------------------------

TEST_F(SnapshotFaultTest, StrictLoadRejectsCorruptPage) {
  HeapFile file = BuildHeapFile(nullptr);
  std::string bytes = Serialize(file);
  bytes[PageDataOffset(bytes, file.num_pages(), 0) + 100] ^= 0x01;
  EXPECT_TRUE(LoadHeapStatus(bytes).IsCorruption());
}

TEST_F(SnapshotFaultTest, SalvageQuarantinesCorruptPage) {
  std::vector<ElementSet> sets;
  HeapFile file = BuildHeapFile(&sets);
  std::string bytes = Serialize(file);
  bytes[PageDataOffset(bytes, file.num_pages(), 0) + 100] ^= 0x01;

  RecoveryReport report;
  SnapshotLoadOptions options;
  options.salvage = true;
  options.report = &report;
  std::stringstream in(bytes);
  auto loaded = HeapFile::LoadFrom(in, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_TRUE(loaded->is_quarantined(0));
  EXPECT_EQ(loaded->num_quarantined_pages(), 1u);
  EXPECT_TRUE(report.salvaged);
  EXPECT_EQ(report.pages_total, file.num_pages());
  EXPECT_EQ(report.pages_quarantined, 1u);
  EXPECT_EQ(report.records_total, 200u);

  // Count ground truth: records whose locator touches page 0.
  std::size_t expected_lost = 0;
  file.Scan([&](SetId, const ElementSet&, const RecordLocator& loc) {
    if (loc.page == 0) ++expected_lost;
    return true;
  });
  ASSERT_GT(expected_lost, 0u);
  EXPECT_EQ(report.records_quarantined, expected_lost);

  // Reads on the quarantined page are typed DataLoss; survivors intact.
  std::size_t visited = 0;
  loaded->Scan([&](SetId sid, const ElementSet& set, const RecordLocator&) {
    EXPECT_EQ(set, sets[sid]);
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 200u - expected_lost);

  file.Scan([&](SetId, const ElementSet&, const RecordLocator& loc) {
    const Status s = loaded->Read(loc, nullptr).status();
    if (loc.page == 0) {
      EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
    } else {
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    return true;
  });

  // Appends after salvage land on fresh/undamaged pages and stay readable.
  auto appended = loaded->Append(200, {11, 22, 33});
  ASSERT_TRUE(appended.ok());
  EXPECT_NE(appended->page, 0u);
  EXPECT_EQ(loaded->Read(*appended, nullptr).value(),
            (ElementSet{11, 22, 33}));
}

// The in-place view the verification fetch uses must fail exactly where
// Read fails on a salvaged file — DataLoss for a quarantined slotted page
// and for a spanned record crossing one — and agree with Read elsewhere,
// with and without a scratch buffer.
TEST_F(SnapshotFaultTest, SalvagedFileFailsInPlaceViewsLikeReads) {
  std::vector<ElementSet> sets;
  HeapFile file = BuildHeapFile(&sets);
  ElementSet big;
  for (ElementId e = 0; e < 1500; ++e) big.push_back(7 * e);
  const RecordLocator spanned = file.Append(200, big).value();
  ASSERT_TRUE(spanned.is_spanned());
  std::string bytes = Serialize(file);
  bytes[PageDataOffset(bytes, file.num_pages(), 0) + 100] ^= 0x01;
  bytes[PageDataOffset(bytes, file.num_pages(), spanned.page + 1) + 8] ^= 0x01;

  SnapshotLoadOptions options;
  options.salvage = true;
  std::stringstream in(bytes);
  auto loaded = HeapFile::LoadFrom(in, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  std::vector<RecordLocator> locators;
  file.Scan([&](SetId, const ElementSet&, const RecordLocator& loc) {
    locators.push_back(loc);
    return true;
  });
  std::vector<std::uint8_t> scratch;
  std::size_t lost = 0;
  for (const RecordLocator& loc : locators) {
    SetId sid = kInvalidSetId;
    auto read = loaded->Read(loc, &sid);
    for (auto* buffer : {&scratch, static_cast<std::vector<std::uint8_t>*>(
                                       nullptr)}) {
      auto view = loaded->View(loc, buffer);
      ASSERT_EQ(view.status().code(), read.status().code())
          << view.status().ToString() << " vs " << read.status().ToString();
      if (!read.ok()) continue;
      EXPECT_EQ(view->sid, sid);
      EXPECT_EQ(view->count, read->size());
      if (buffer == nullptr && loc.is_spanned()) continue;
      EXPECT_EQ(JaccardRaw(read.value(), view->elements, view->count), 1.0);
    }
    if (!read.ok()) {
      EXPECT_TRUE(read.status().IsDataLoss()) << read.status().ToString();
      ++lost;
    }
  }
  EXPECT_GT(lost, 1u);  // page-0 records and the spanned record
  EXPECT_TRUE(loaded->View(spanned, &scratch).status().IsDataLoss());
}

TEST_F(SnapshotFaultTest, SalvageRecoversFromTruncatedPagesSection) {
  HeapFile file = BuildHeapFile(nullptr);
  const std::string full = Serialize(file);
  // Keep only the first page entry of the pages section (footer gone too).
  const std::size_t payload_start =
      full.size() - kFooterBytes - file.num_pages() * kPageEntryBytes;
  const std::string truncated = full.substr(0, payload_start + kPageEntryBytes);

  EXPECT_TRUE(LoadHeapStatus(truncated).IsDataLoss());

  RecoveryReport report;
  SnapshotLoadOptions options;
  options.salvage = true;
  options.report = &report;
  std::stringstream in(truncated);
  auto loaded = HeapFile::LoadFrom(in, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_pages(), file.num_pages());
  EXPECT_EQ(report.pages_quarantined, file.num_pages() - 1);
  EXPECT_FALSE(loaded->is_quarantined(0));
  EXPECT_TRUE(loaded->is_quarantined(1));
}

TEST_F(SnapshotFaultTest, SalvageToleratesTornFooter) {
  HeapFile file = BuildHeapFile(nullptr);
  const std::string full = Serialize(file);
  const std::string torn = full.substr(0, full.size() - 2);

  EXPECT_TRUE(LoadHeapStatus(torn).IsDataLoss());

  RecoveryReport report;
  SnapshotLoadOptions options;
  options.salvage = true;
  options.report = &report;
  std::stringstream in(torn);
  auto loaded = HeapFile::LoadFrom(in, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // All page payloads were intact; only the footer was lost.
  EXPECT_EQ(loaded->num_quarantined_pages(), 0u);
  EXPECT_TRUE(report.salvaged);
}

// ---------------------------------------------------------------------------
// SetStore-level salvage: lost records drop out of the live index, the
// survivors serve, and the recovery metrics record what happened.
// ---------------------------------------------------------------------------

TEST_F(SnapshotFaultTest, SetStoreSalvageServesSurvivors) {
  SetStore store;
  Rng rng(161803);
  std::vector<ElementSet> sets;
  for (int i = 0; i < 200; ++i) {
    ElementSet s = SmallSet(rng);
    ASSERT_TRUE(store.Add(s).ok());
    sets.push_back(std::move(s));
  }
  std::stringstream buffer;
  ASSERT_TRUE(store.SaveTo(buffer).ok());
  std::string bytes = buffer.str();
  // The heap snapshot trails the store snapshot, so page offsets are
  // computed from the end of the combined byte stream.
  bytes[PageDataOffset(bytes, store.num_pages(), 1) + 50] ^= 0x04;

  {
    std::stringstream in(bytes);
    EXPECT_TRUE(SetStore::Load(in).status().IsCorruption());
  }

  RecoveryReport report;
  SnapshotLoadOptions load_options;
  load_options.salvage = true;
  load_options.report = &report;
  std::stringstream in(bytes);
  auto loaded = SetStore::Load(in, SetStoreOptions(), load_options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_TRUE(report.salvaged);
  EXPECT_EQ(report.pages_quarantined, 1u);
  ASSERT_GT(report.records_quarantined, 0u);
  EXPECT_EQ(loaded->size(), 200u - report.records_quarantined);

  std::size_t lost = 0;
  for (SetId sid = 0; sid < 200; ++sid) {
    if (loaded->Contains(sid)) {
      EXPECT_EQ(loaded->Get(sid).value(), sets[sid]);
    } else {
      ++lost;
      EXPECT_FALSE(loaded->Get(sid).ok());
    }
  }
  EXPECT_EQ(lost, report.records_quarantined);

  // Salvage outcomes are visible in the store's metric scope.
  auto& registry = obs::MetricsRegistry::Default();
  const std::string& scope = loaded->metrics_scope();
  EXPECT_EQ(registry
                .GetCounter("ssr_recovery_salvage_loads_total", scope)
                ->value(),
            1u);
  EXPECT_EQ(registry
                .GetCounter("ssr_recovery_pages_quarantined_total", scope)
                ->value(),
            1u);
  EXPECT_EQ(registry
                .GetCounter("ssr_recovery_records_quarantined_total", scope)
                ->value(),
            report.records_quarantined);

  // The salvaged store still accepts new sets.
  EXPECT_EQ(loaded->Add({5, 6, 7}).value(), 200u);
}

}  // namespace
}  // namespace ssr
