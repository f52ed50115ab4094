// Statistics helpers of the benchmark: nearest-rank percentiles, the choice
// of the highest tail percentile a sample supports, and self-time
// subtraction with a noise allowance. `perfbench --selftest` checks them.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `pct` (0 < pct <= 100) of `sorted` (ascending,
/// non-empty): the value at 1-based rank ceil(pct / 100 * n).
double Percentile(const std::vector<double>& sorted, double pct);

/// How many samples of `n` lie strictly above the nearest-rank `pct`.
std::size_t SamplesBeyond(std::size_t n, double pct);

/// The highest percentile of the ladder 99.9, 99.5, 99, 98, 95, 90, 75, 50
/// that is at most `wanted` and leaves at least `min_beyond` samples above
/// it; 0 when none does.
double SupportedTailPercentile(std::size_t n, double wanted,
                               std::size_t min_beyond = 10);

/// A latency sample reduced to its median and supported tail.
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;  // the percentile `tail` reports (0 = none)
  double tail = 0.0;
  bool per_round = false;  // medians of per-round values (SummarizeRounds)
};

/// Sorts `samples` in place and summarizes them, asking for `wanted_tail`.
LatencySummary Summarize(std::vector<double>* samples, double wanted_tail);

/// Summarizes samples taken in consecutive rounds of one run. When every
/// round supports `wanted_tail` on its own, the median and the tail are the
/// medians of the per-round values, so a burst of outside load that slows
/// one round does not move them; otherwise the rounds are pooled.
LatencySummary SummarizeRounds(std::vector<std::vector<double>> rounds,
                               double wanted_tail);

/// Median of a small vector (copied; mean of the middle pair when even).
double Median(std::vector<double> values);

/// parent - children, the self time a parent span keeps. A difference below
/// zero by at most `noise` is measurement noise and reads as 0; a larger
/// negative difference sets *ok = false (the accounting is wrong) and is
/// returned unclamped so the caller can report it.
double SelfTime(double parent, double children, double noise, bool* ok);

/// Runs the checks of the helpers above; returns the failures (empty = ok).
std::vector<std::string> SelfCheck();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
