// Similarity estimation from min-hash signatures, with the two corrections
// the raw agreement fraction needs in practice: (1) b-bit fingerprint
// collisions inflate agreement by ~(1-s)/2^b, and (2) Chernoff-style
// confidence bounds on the estimate (Section 3.1 cites Cohen 1997 for the
// unbiased-estimator + Chernoff argument).

#ifndef SSR_MINHASH_ESTIMATOR_H_
#define SSR_MINHASH_ESTIMATOR_H_

#include <cstddef>

#include "minhash/signature.h"

namespace ssr {

/// Estimates Jaccard similarity from two signatures.
class SimilarityEstimator {
 public:
  /// `value_bits` must match the MinHashParams used to produce signatures.
  explicit SimilarityEstimator(unsigned value_bits);

  /// Raw estimator: fraction of agreeing coordinates. Unbiased for the
  /// idealized (infinite precision) min-hash; biased upward by fingerprint
  /// collisions for finite b.
  double RawEstimate(const Signature& a, const Signature& b) const {
    return a.AgreementFraction(b);
  }

  /// Collision-corrected estimator. With collision probability c = 2^-b for
  /// non-matching minima, E[agreement] = s + (1-s)c, so
  /// s_hat = (raw - c) / (1 - c), clamped to [0, 1]. Unbiased for finite b.
  double Estimate(const Signature& a, const Signature& b) const;

  /// Half-width of a (1 - delta) confidence interval around the estimate for
  /// signatures of k coordinates (two-sided Chernoff/Hoeffding bound).
  double ConfidenceHalfWidth(std::size_t k, double delta) const;

  /// Probability bound that the raw agreement of k coordinates deviates from
  /// its mean by more than eps (absolute), via Hoeffding's inequality.
  static double DeviationProbabilityBound(std::size_t k, double eps);

  unsigned value_bits() const { return value_bits_; }

  /// Fingerprint collision probability 2^-b.
  double collision_probability() const { return collision_p_; }

 private:
  unsigned value_bits_;
  double collision_p_;
};

}  // namespace ssr

#endif  // SSR_MINHASH_ESTIMATOR_H_
