#include <sstream>

#include <gtest/gtest.h>

#include "storage/set_store.h"
#include "storage/snapshot.h"
#include "util/crc32.h"
#include "util/serialize.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace {

ElementSet RandomSet(Rng& rng, std::size_t max_size) {
  ElementSet s;
  const std::size_t n = 1 + rng.Uniform(max_size);
  for (std::size_t i = 0; i < n; ++i) s.push_back(rng.Uniform(100000));
  NormalizeSet(s);
  if (s.empty()) s.push_back(1);
  return s;
}

TEST(HeapFilePersistenceTest, RoundTripsRecordsAndSpans) {
  HeapFile file;
  Rng rng(31337);
  std::vector<ElementSet> sets;
  for (SetId sid = 0; sid < 100; ++sid) {
    // Mix inline and spanned records.
    ElementSet s = RandomSet(rng, sid % 7 == 0 ? 2000 : 100);
    ASSERT_TRUE(file.Append(sid, s).ok());
    sets.push_back(std::move(s));
  }
  std::stringstream buffer;
  ASSERT_TRUE(file.SaveTo(buffer).ok());
  auto loaded = HeapFile::LoadFrom(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_pages(), file.num_pages());
  EXPECT_EQ(loaded->num_records(), file.num_records());
  // Every record readable and identical via a full scan.
  std::size_t visited = 0;
  loaded->Scan([&](SetId sid, const ElementSet& set, const RecordLocator&) {
    EXPECT_EQ(set, sets[sid]);
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 100u);
  // Appends continue to work after load.
  EXPECT_TRUE(loaded->Append(100, {1, 2, 3}).ok());
}

TEST(HeapFilePersistenceTest, RejectsGarbage) {
  std::stringstream buffer;
  buffer << "this is not a heap file";
  EXPECT_FALSE(HeapFile::LoadFrom(buffer).ok());
}

TEST(HeapFilePersistenceTest, RejectsTruncation) {
  HeapFile file;
  ASSERT_TRUE(file.Append(0, {1, 2, 3}).ok());
  std::stringstream buffer;
  ASSERT_TRUE(file.SaveTo(buffer).ok());
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_FALSE(HeapFile::LoadFrom(truncated).ok());
}

TEST(SetStorePersistenceTest, RoundTripsLiveAndDeleted) {
  SetStore store;
  Rng rng(4242);
  std::vector<ElementSet> sets;
  for (int i = 0; i < 200; ++i) {
    ElementSet s = RandomSet(rng, 150);
    ASSERT_TRUE(store.Add(s).ok());
    sets.push_back(std::move(s));
  }
  ASSERT_TRUE(store.Delete(13).ok());
  ASSERT_TRUE(store.Delete(77).ok());

  std::stringstream buffer;
  ASSERT_TRUE(store.SaveTo(buffer).ok());
  auto loaded = SetStore::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->size(), 198u);
  EXPECT_FALSE(loaded->Contains(13));
  EXPECT_FALSE(loaded->Contains(77));
  for (SetId sid = 0; sid < 200; ++sid) {
    if (sid == 13 || sid == 77) {
      EXPECT_TRUE(loaded->Get(sid).status().IsNotFound());
    } else {
      EXPECT_EQ(loaded->Get(sid).value(), sets[sid]);
    }
  }
  EXPECT_NEAR(loaded->AvgSetPages(), store.AvgSetPages(), 1e-12);
  // New adds continue the sid sequence (no reuse of deleted sids).
  EXPECT_EQ(loaded->Add({5, 6, 7}).value(), 200u);
}

// Pins the store snapshot's exact bytes: live sids are written in
// ascending order with their locators, whatever structure maps them, and
// every locator byte is defined (its padding is zero).
TEST(SetStorePersistenceTest, SnapshotBytesArePinned) {
  SetStore store;
  Rng rng(2718);
  for (int i = 0; i < 150; ++i) ASSERT_TRUE(store.Add(RandomSet(rng, 60)).ok());
  ElementSet big;
  for (ElementId e = 0; e < 700; ++e) big.push_back(3 * e + 1);
  ASSERT_TRUE(store.Add(big).ok());  // spans pages
  ASSERT_TRUE(store.Delete(3).ok());
  ASSERT_TRUE(store.Delete(97).ok());
  std::stringstream buffer;
  ASSERT_TRUE(store.SaveTo(buffer).ok());
  const std::string bytes = buffer.str();
  EXPECT_EQ(bytes.size(), 48406u);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0xff3579c9u);
}

TEST(SetStorePersistenceTest, EmptyStoreRoundTrips) {
  SetStore store;
  std::stringstream buffer;
  ASSERT_TRUE(store.SaveTo(buffer).ok());
  auto loaded = SetStore::Load(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_EQ(loaded->Add({1}).value(), 0u);
}

// A store snapshot over `src`'s heap file whose meta and live sections are
// written by hand, section by section as SetStore::SaveTo writes them.
std::string HandBuiltStoreSnapshot(const SetStore& src, std::uint32_t next_sid,
                                   const std::vector<SetId>& live,
                                   const std::vector<RecordLocator>& locators) {
  std::stringstream bytes;
  SnapshotWriter snapshot(bytes, "SSRSTORE", 2);
  BinaryWriter& meta = snapshot.BeginSection("meta");
  meta.WriteU32(next_sid);
  meta.WriteU64(0);
  EXPECT_TRUE(snapshot.EndSection().ok());
  BinaryWriter& live_sec = snapshot.BeginSection("live");
  live_sec.WriteVector(live);
  live_sec.WriteVector(locators);
  EXPECT_TRUE(snapshot.EndSection().ok());
  EXPECT_TRUE(snapshot.Finish().ok());
  EXPECT_TRUE(src.file().SaveTo(bytes).ok());
  return bytes.str();
}

// Ten live sets and their live-section lists, for hand-built snapshots;
// left untouched, the lists load.
struct LiveSectionFixture {
  SetStore store;
  std::vector<SetId> live;
  std::vector<RecordLocator> locators;

  LiveSectionFixture() {
    Rng rng(99);
    for (int i = 0; i < 10; ++i) EXPECT_TRUE(store.Add(RandomSet(rng, 40)).ok());
    store.file().Scan(
        [&](SetId sid, const ElementSet&, const RecordLocator& loc) {
          live.push_back(sid);
          locators.push_back(loc);
          return true;
        });
    const Status untouched = LoadStatus();
    EXPECT_TRUE(untouched.ok()) << untouched.ToString();
  }

  Status LoadStatus(std::uint32_t next_sid = 10) const {
    std::stringstream in(
        HandBuiltStoreSnapshot(store, next_sid, live, locators));
    return SetStore::Load(in).status();
  }
};

TEST(SetStorePersistenceTest, DuplicateLiveSidIsCorruption) {
  LiveSectionFixture f;
  f.live.push_back(f.live[2]);
  f.locators.push_back(f.locators[2]);
  const Status status = f.LoadStatus();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST(SetStorePersistenceTest, InvalidLocatorForLiveSidIsCorruption) {
  LiveSectionFixture f;
  f.locators[4] = RecordLocator{};
  const Status status = f.LoadStatus();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST(SetStorePersistenceTest, NextSidBeyondHeapRecordsIsCorruption) {
  LiveSectionFixture f;
  const Status status = f.LoadStatus(/*next_sid=*/11);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST(SetStorePersistenceTest, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "SSRWRONGMAGIC.................";
  EXPECT_FALSE(SetStore::Load(buffer).ok());
}

}  // namespace
}  // namespace ssr
