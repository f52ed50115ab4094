#include "stats.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace perfbench {

namespace {

std::size_t Rank(std::size_t n, double pct) {
  const double r = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double pct) {
  return sorted[Rank(sorted.size(), pct) - 1];
}

std::size_t SamplesBeyond(std::size_t n, double pct) {
  return n == 0 ? 0 : n - Rank(n, pct);
}

double SupportedTailPercentile(std::size_t n, double wanted,
                               std::size_t min_beyond) {
  for (double pct : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    if (pct <= wanted && SamplesBeyond(n, pct) >= min_beyond) return pct;
  }
  return 0.0;
}

LatencySummary Summarize(std::vector<double>* samples, double wanted_tail) {
  LatencySummary s;
  s.count = samples->size();
  if (samples->empty()) return s;
  std::sort(samples->begin(), samples->end());
  s.p50 = Percentile(*samples, 50.0);
  s.tail_pct = SupportedTailPercentile(s.count, wanted_tail);
  if (s.tail_pct > 0.0) s.tail = Percentile(*samples, s.tail_pct);
  return s;
}

LatencySummary SummarizeRounds(std::vector<std::vector<double>> rounds,
                               double wanted_tail) {
  std::vector<double> pooled, p50s, tails;
  bool per_round = !rounds.empty();
  for (std::vector<double>& round : rounds) {
    pooled.insert(pooled.end(), round.begin(), round.end());
    const LatencySummary s = Summarize(&round, wanted_tail);
    per_round = per_round && s.tail_pct == wanted_tail;
    p50s.push_back(s.p50);
    tails.push_back(s.tail);
  }
  LatencySummary s = Summarize(&pooled, wanted_tail);
  if (per_round) {
    s.p50 = Median(p50s);
    s.tail = Median(tails);
    s.per_round = true;
  }
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double SelfTime(double parent, double children, double noise, bool* ok) {
  const double self = parent - children;
  if (self >= 0.0) return self;
  if (-self <= noise) return 0.0;
  *ok = false;
  return self;
}

std::vector<std::string> SelfCheck() {
  std::vector<std::string> failures;
  auto expect = [&](bool cond, const std::string& what) {
    if (!cond) failures.push_back(what);
  };

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(Percentile(hundred, 50.0) == 50.0, "p50 of 1..100 is 50");
  expect(Percentile(hundred, 99.0) == 99.0, "p99 of 1..100 is 99");
  expect(Percentile(hundred, 100.0) == 100.0, "p100 is the maximum");
  expect(Percentile({7.0}, 99.0) == 7.0, "single sample is every percentile");
  expect(SamplesBeyond(100, 99.0) == 1, "one sample beyond p99 of 100");
  expect(SamplesBeyond(1000, 99.0) == 10, "ten samples beyond p99 of 1000");
  expect(SamplesBeyond(0, 50.0) == 0, "empty sample has nothing beyond");

  // The tail must leave at least ten samples beyond it.
  expect(SupportedTailPercentile(1000, 99.0) == 99.0, "n=1000 supports p99");
  expect(SupportedTailPercentile(999, 99.0) == 98.0, "n=999 falls to p98");
  expect(SupportedTailPercentile(10000, 99.9) == 99.9,
         "n=10000 supports p99.9");
  expect(SupportedTailPercentile(200, 99.0) == 95.0, "n=200 falls to p95");
  expect(SupportedTailPercentile(19, 99.0) == 0.0, "n=19 supports no tail");
  expect(SupportedTailPercentile(20, 99.0) == 50.0, "n=20 supports p50 only");
  for (std::size_t n : {20, 57, 100, 999, 1000, 4321, 100000}) {
    const double pct = SupportedTailPercentile(n, 99.0);
    expect(pct > 0.0 && SamplesBeyond(n, pct) >= 10,
           "chosen tail of n=" + std::to_string(n) + " has 10 beyond");
  }

  std::vector<double> reversed;
  for (int i = 1000; i >= 1; --i) reversed.push_back(i);
  const LatencySummary s = Summarize(&reversed, 99.0);
  expect(s.count == 1000, "summary keeps the sample count");
  expect(s.p50 == 500.0 && s.tail_pct == 99.0 && s.tail == 990.0,
         "summary of 1..1000 is p50 500, p99 990");
  std::vector<double> few = {3.0, 1.0, 2.0};
  const LatencySummary f = Summarize(&few, 99.0);
  expect(f.count == 3 && f.p50 == 2.0 && f.tail_pct == 0.0,
         "three samples give a median and no tail");

  // Per-round medians when every round supports the tail on its own.
  std::vector<std::vector<double>> rounds(3);
  for (int r = 0; r < 3; ++r) {
    for (int i = 1; i <= 1000; ++i) rounds[r].push_back(i * (r == 1 ? 10 : 1));
  }
  const LatencySummary by_round = SummarizeRounds(rounds, 99.0);
  expect(by_round.count == 3000 && by_round.tail_pct == 99.0 &&
             by_round.p50 == 500.0 && by_round.tail == 990.0 &&
             by_round.per_round,
         "one slow round of three moves neither the median nor the tail");
  rounds[2].pop_back();
  std::vector<double> all;
  for (const auto& r : rounds) all.insert(all.end(), r.begin(), r.end());
  std::sort(all.begin(), all.end());
  const LatencySummary pooled = SummarizeRounds(rounds, 99.0);
  expect(pooled.count == 2999 && pooled.tail_pct == 99.0 && !pooled.per_round &&
             pooled.p50 == Percentile(all, 50.0) &&
             pooled.tail == Percentile(all, 99.0),
         "a round too small for p99 pools the rounds");

  expect(Median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(Median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");

  bool ok = true;
  expect(SelfTime(10.0, 4.0, 0.5, &ok) == 6.0 && ok, "plain self time");
  expect(SelfTime(10.0, 10.3, 0.5, &ok) == 0.0 && ok,
         "negative within noise reads 0");
  expect(SelfTime(10.0, 10.5, 0.5, &ok) == 0.0 && ok,
         "negative exactly at the noise reads 0");
  expect(SelfTime(10.0, 12.0, 0.5, &ok) == -2.0 && !ok,
         "negative beyond noise is flagged");
  return failures;
}

}  // namespace perfbench
