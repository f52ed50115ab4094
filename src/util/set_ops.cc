#include "util/set_ops.h"

#include <algorithm>
#include <cstring>

namespace ssr {

void NormalizeSet(ElementSet& s) {
  std::sort(s.begin(), s.end());
  s.erase(std::unique(s.begin(), s.end()), s.end());
}

bool IsNormalizedSet(const ElementSet& s) {
  for (std::size_t i = 1; i < s.size(); ++i) {
    if (s[i - 1] >= s[i]) return false;
  }
  return true;
}

namespace {

// The linear merge behind every intersection; `b_at(j)` yields b's j-th
// element, so in-memory and in-place operands share one loop.
template <typename At>
std::size_t MergeIntersectionSize(const ElementSet& a, std::size_t nb,
                                  At b_at) {
  std::size_t count = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < nb) {
    const ElementId bj = b_at(j);
    if (a[i] < bj) {
      ++i;
    } else if (bj < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

Similarity JaccardOfSizes(std::size_t inter, std::size_t na, std::size_t nb) {
  if (na == 0 && nb == 0) return 1.0;
  const std::size_t uni = na + nb - inter;
  return static_cast<Similarity>(inter) / static_cast<Similarity>(uni);
}

}  // namespace

std::size_t IntersectionSize(const ElementSet& a, const ElementSet& b) {
  return MergeIntersectionSize(a, b.size(),
                               [&](std::size_t j) { return b[j]; });
}

std::size_t UnionSize(const ElementSet& a, const ElementSet& b) {
  return a.size() + b.size() - IntersectionSize(a, b);
}

Similarity Jaccard(const ElementSet& a, const ElementSet& b) {
  return JaccardOfSizes(IntersectionSize(a, b), a.size(), b.size());
}

Similarity JaccardRaw(const ElementSet& a, const std::uint8_t* b_bytes,
                      std::size_t nb) {
  const std::size_t inter = MergeIntersectionSize(a, nb, [&](std::size_t j) {
    ElementId v;
    std::memcpy(&v, b_bytes + j * sizeof(ElementId), sizeof(v));
    return v;
  });
  return JaccardOfSizes(inter, a.size(), nb);
}

}  // namespace ssr
