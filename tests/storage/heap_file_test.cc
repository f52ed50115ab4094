#include "storage/heap_file.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace ssr {
namespace {

ElementSet MakeSet(std::size_t n, ElementId base = 0) {
  ElementSet s;
  for (std::size_t i = 0; i < n; ++i) s.push_back(base + i);
  return s;
}

TEST(HeapFileTest, AppendAndReadInline) {
  HeapFile file;
  const ElementSet set = MakeSet(10, 100);
  auto loc = file.Append(7, set);
  ASSERT_TRUE(loc.ok());
  EXPECT_FALSE(loc->is_spanned());
  SetId sid = kInvalidSetId;
  auto read = file.Read(loc.value(), &sid);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(sid, 7u);
  EXPECT_EQ(read.value(), set);
}

TEST(HeapFileTest, MultipleRecordsSharePages) {
  HeapFile file;
  std::vector<RecordLocator> locs;
  for (SetId sid = 0; sid < 50; ++sid) {
    auto loc = file.Append(sid, MakeSet(5, sid * 10));
    ASSERT_TRUE(loc.ok());
    locs.push_back(loc.value());
  }
  // 50 records of 48 bytes each fit in one 4K page comfortably.
  EXPECT_LE(file.num_pages(), 2u);
  for (SetId sid = 0; sid < 50; ++sid) {
    SetId got = kInvalidSetId;
    auto read = file.Read(locs[sid], &got);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(got, sid);
    EXPECT_EQ(read.value(), MakeSet(5, sid * 10));
  }
}

TEST(HeapFileTest, SpannedRecordRoundTrip) {
  HeapFile file;
  // 2000 elements -> 16008 bytes -> 4 span pages.
  const ElementSet big = MakeSet(2000);
  auto loc = file.Append(1, big);
  ASSERT_TRUE(loc.ok());
  EXPECT_TRUE(loc->is_spanned());
  EXPECT_GE(file.num_pages(), 4u);
  SetId sid = kInvalidSetId;
  auto read = file.Read(loc.value(), &sid);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(sid, 1u);
  EXPECT_EQ(read.value(), big);
  auto view = file.View(loc.value(), nullptr);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->first_page, loc->page);
  EXPECT_EQ(view->num_pages,
            (HeapFile::RecordBytes(2000) + kPageSize - 1) / kPageSize);
}

TEST(HeapFileTest, MixedInlineAndSpanned) {
  HeapFile file;
  auto small1 = file.Append(0, MakeSet(3));
  auto big = file.Append(1, MakeSet(1500));
  auto small2 = file.Append(2, MakeSet(4, 77));
  ASSERT_TRUE(small1.ok() && big.ok() && small2.ok());
  EXPECT_EQ(file.Read(small1.value(), nullptr).value(), MakeSet(3));
  EXPECT_EQ(file.Read(big.value(), nullptr).value(), MakeSet(1500));
  EXPECT_EQ(file.Read(small2.value(), nullptr).value(),
            MakeSet(4, 77));
}

TEST(HeapFileTest, ScanVisitsAllInOrder) {
  HeapFile file;
  for (SetId sid = 0; sid < 20; ++sid) {
    ASSERT_TRUE(file.Append(sid, MakeSet(sid % 7 + 1, sid)).ok());
  }
  std::vector<SetId> seen;
  file.Scan([&](SetId sid, const ElementSet& set, const RecordLocator&) {
    EXPECT_EQ(set.size(), sid % 7 + 1);
    seen.push_back(sid);
    return true;
  });
  ASSERT_EQ(seen.size(), 20u);
  for (SetId sid = 0; sid < 20; ++sid) EXPECT_EQ(seen[sid], sid);
}

TEST(HeapFileTest, ScanEarlyStop) {
  HeapFile file;
  for (SetId sid = 0; sid < 10; ++sid) {
    ASSERT_TRUE(file.Append(sid, MakeSet(2)).ok());
  }
  int visits = 0;
  file.Scan([&](SetId, const ElementSet&, const RecordLocator&) {
    return ++visits < 3;
  });
  EXPECT_EQ(visits, 3);
}

TEST(HeapFileTest, InvalidLocatorRejected) {
  HeapFile file;
  ASSERT_TRUE(file.Append(0, MakeSet(2)).ok());
  EXPECT_FALSE(file.Read(RecordLocator{}, nullptr).ok());
  EXPECT_FALSE(file.Read(RecordLocator{99, 0}, nullptr).ok());
  EXPECT_TRUE(file.Read(RecordLocator{0, 5}, nullptr).status().IsNotFound());
}

TEST(HeapFileTest, PagesTouchedReportedForInline) {
  HeapFile file;
  auto loc = file.Append(0, MakeSet(3));
  auto view = file.View(loc.value(), nullptr);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->num_pages, 1u);
  EXPECT_EQ(view->first_page, loc->page);
}

TEST(HeapFileTest, RecordBytesFormula) {
  EXPECT_EQ(HeapFile::RecordBytes(0), 8u);
  EXPECT_EQ(HeapFile::RecordBytes(10), 88u);
  EXPECT_GT(HeapFile::MaxInlineRecordBytes(), 4000u);
  EXPECT_LT(HeapFile::MaxInlineRecordBytes(), kPageSize);
}

TEST(HeapFileTest, StressRandomSizes) {
  HeapFile file;
  Rng rng(44);
  std::vector<std::pair<RecordLocator, ElementSet>> records;
  for (SetId sid = 0; sid < 300; ++sid) {
    const std::size_t n = 1 + rng.Uniform(900);  // some spanning, some not
    ElementSet set = MakeSet(n, sid * 1000);
    auto loc = file.Append(sid, set);
    ASSERT_TRUE(loc.ok());
    records.emplace_back(loc.value(), std::move(set));
  }
  EXPECT_EQ(file.num_records(), 300u);
  for (SetId sid = 0; sid < 300; ++sid) {
    SetId got = kInvalidSetId;
    auto read = file.Read(records[sid].first, &got);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(got, sid);
    EXPECT_EQ(read.value(), records[sid].second);
  }
}

TEST(HeapFileTest, EmptySetRecord) {
  HeapFile file;
  auto loc = file.Append(5, {});
  ASSERT_TRUE(loc.ok());
  auto read = file.Read(loc.value(), nullptr);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().empty());
}

}  // namespace
}  // namespace ssr
