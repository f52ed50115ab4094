#include "util/set_ops.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace ssr {
namespace {

TEST(SetOpsTest, NormalizeSortsAndDedups) {
  ElementSet s{5, 1, 3, 1, 5, 5};
  NormalizeSet(s);
  EXPECT_EQ(s, (ElementSet{1, 3, 5}));
  EXPECT_TRUE(IsNormalizedSet(s));
}

TEST(SetOpsTest, IsNormalizedDetectsViolations) {
  EXPECT_TRUE(IsNormalizedSet({}));
  EXPECT_TRUE(IsNormalizedSet({7}));
  EXPECT_TRUE(IsNormalizedSet({1, 2, 3}));
  EXPECT_FALSE(IsNormalizedSet({2, 1}));
  EXPECT_FALSE(IsNormalizedSet({1, 1}));
}

TEST(SetOpsTest, IntersectionAndUnionSizes) {
  const ElementSet a{1, 2, 3, 4};
  const ElementSet b{3, 4, 5};
  EXPECT_EQ(IntersectionSize(a, b), 2u);
  EXPECT_EQ(UnionSize(a, b), 5u);
  EXPECT_EQ(IntersectionSize(a, {}), 0u);
  EXPECT_EQ(UnionSize(a, {}), 4u);
}

TEST(SetOpsTest, JaccardDefinitionExamples) {
  EXPECT_DOUBLE_EQ(Jaccard({1, 2}, {1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(Jaccard({1, 2}, {3, 4}), 0.0);
  EXPECT_DOUBLE_EQ(Jaccard({1, 2, 3}, {2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(Jaccard({1}, {1, 2, 3, 4}), 0.25);
}

TEST(SetOpsTest, JaccardEmptyConventions) {
  EXPECT_DOUBLE_EQ(Jaccard({}, {}), 1.0);  // identical sets
  EXPECT_DOUBLE_EQ(Jaccard({}, {1}), 0.0);
  EXPECT_DOUBLE_EQ(Jaccard({1}, {}), 0.0);
}

TEST(SetOpsTest, JaccardSymmetric) {
  const ElementSet a{1, 5, 9, 12};
  const ElementSet b{5, 9, 40};
  EXPECT_DOUBLE_EQ(Jaccard(a, b), Jaccard(b, a));
}

TEST(SetOpsTest, JaccardBoundedInUnitInterval) {
  Rng rng(17);
  for (int t = 0; t < 200; ++t) {
    ElementSet a, b;
    for (int i = 0; i < 20; ++i) {
      a.push_back(rng.Uniform(30));
      b.push_back(rng.Uniform(30));
    }
    NormalizeSet(a);
    NormalizeSet(b);
    const double s = Jaccard(a, b);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

// The paper's footnote: d = 1 - sim is a metric. Check the triangle
// inequality on random triples (a property test for the distance).
TEST(SetOpsTest, JaccardDistanceTriangleInequality) {
  Rng rng(18);
  for (int t = 0; t < 300; ++t) {
    ElementSet a, b, c;
    for (int i = 0; i < 15; ++i) {
      a.push_back(rng.Uniform(25));
      b.push_back(rng.Uniform(25));
      c.push_back(rng.Uniform(25));
    }
    NormalizeSet(a);
    NormalizeSet(b);
    NormalizeSet(c);
    const double ab = JaccardDistance(a, b);
    const double bc = JaccardDistance(b, c);
    const double ac = JaccardDistance(a, c);
    EXPECT_LE(ac, ab + bc + 1e-12);
  }
}

TEST(SetOpsTest, IntersectionSizeAgreesWithBruteForce) {
  Rng rng(19);
  for (int t = 0; t < 100; ++t) {
    ElementSet a, b;
    for (int i = 0; i < 25; ++i) {
      a.push_back(rng.Uniform(40));
      b.push_back(rng.Uniform(40));
    }
    NormalizeSet(a);
    NormalizeSet(b);
    std::size_t brute = 0;
    for (ElementId x : a) {
      for (ElementId y : b) {
        if (x == y) ++brute;
      }
    }
    EXPECT_EQ(IntersectionSize(a, b), brute);
  }
}

// The in-place verify reads record bytes at arbitrary alignment; its
// Jaccard must be bit-identical to the decoded one, empties included.
TEST(SetOpsTest, JaccardRawMatchesJaccardAtAnyAlignment) {
  Rng rng(42);
  std::vector<std::uint8_t> bytes;
  for (int trial = 0; trial < 200; ++trial) {
    ElementSet a, b;
    const std::size_t na = trial % 7 == 0 ? 0 : rng.Uniform(60);
    const std::size_t nb = trial % 5 == 0 ? 0 : rng.Uniform(60);
    for (std::size_t i = 0; i < na; ++i) a.push_back(rng.Uniform(100));
    for (std::size_t i = 0; i < nb; ++i) b.push_back(rng.Uniform(100));
    NormalizeSet(a);
    NormalizeSet(b);
    const std::size_t misalign = static_cast<std::size_t>(trial % 8);
    bytes.assign(misalign + 8 * b.size() + 1, 0xab);
    if (!b.empty()) {
      std::memcpy(bytes.data() + misalign, b.data(), 8 * b.size());
    }
    const double raw = JaccardRaw(a, bytes.data() + misalign, b.size());
    EXPECT_EQ(raw, Jaccard(a, b)) << "trial " << trial;
  }
  EXPECT_EQ(JaccardRaw({}, nullptr, 0), 1.0);
}

}  // namespace
}  // namespace ssr
