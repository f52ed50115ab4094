// The full two-step embedding of Section 3: a set S is mapped to its
// min-hash signature (S -> V) and the signature to the concatenation of the
// ECC codewords of its coordinates (V -> H^{mk}).
//
// With an equidistant code of codeword length m and pairwise distance d, two
// signatures agreeing on a fraction s of their k coordinates embed to binary
// vectors at Hamming distance exactly (1-s)·k·d, i.e. Hamming similarity
//     S_H = 1 − (1 − s)·ρ,   ρ = d/m.
// For the Hadamard code ρ = 1/2, giving the paper's Theorem 1:
// d_H = (1−s)/2 · D with D = m·k.
//
// The filter indices never materialize the D-dimensional vectors: any single
// bit of the embedding is computable from the signature in O(1) via
// EmbeddedBit(). Materialization (EmbedSignature) exists for tests, the
// embedding-fidelity experiment, and small collections.

#ifndef SSR_HAMMING_EMBEDDING_H_
#define SSR_HAMMING_EMBEDDING_H_

#include <memory>
#include <utility>

#include "ecc/code.h"
#include "hamming/bitvector.h"
#include "minhash/min_hasher.h"
#include "util/result.h"
#include "util/types.h"

namespace ssr {

/// Configuration of the full embedding.
struct EmbeddingParams {
  MinHashParams minhash;
  CodeKind code_kind = CodeKind::kHadamard;

  /// Equal params sign every set identically (Sign is deterministic).
  bool operator==(const EmbeddingParams& other) const = default;
};

/// Immutable embedding pipeline shared by index build and query processing.
class Embedding {
 public:
  /// Creates the pipeline; fails on invalid parameters.
  static Result<Embedding> Create(const EmbeddingParams& params);

  /// Min-hash signature of a set (step S -> V).
  Signature Sign(const ElementSet& set) const { return hasher_->Sign(set); }

  /// Signs a contiguous run of sets (bit-identical to `count` Sign calls;
  /// the family kernels amortize dispatch over the run). The serial and
  /// parallel index builds both sign through this entry point.
  void SignBatch(const ElementSet* sets, std::size_t count,
                 Signature* out) const {
    hasher_->SignBatch(sets, count, out);
  }

  /// Materializes the D-dimensional binary vector of a signature
  /// (step V -> H). D = dimension().
  BitVector EmbedSignature(const Signature& sig) const;

  /// Both steps: set -> D-dimensional binary vector.
  BitVector Embed(const ElementSet& set) const {
    return EmbedSignature(Sign(set));
  }

  /// Bit `global_pos` (0 <= global_pos < dimension()) of the embedded vector
  /// of `sig`, computed on the fly without materialization.
  bool EmbeddedBit(const Signature& sig, std::size_t global_pos) const {
    const unsigned m = code_->codeword_bits();
    return code_->Bit(sig[global_pos / m], static_cast<unsigned>(global_pos % m));
  }

  /// Hamming dimensionality D = m·k.
  std::size_t dimension() const {
    return static_cast<std::size_t>(code_->codeword_bits()) *
           hasher_->params().num_hashes;
  }

  /// ρ = d/m: the fraction of codeword bits that flip between two distinct
  /// codewords (1/2 for Hadamard). 0 for non-equidistant codes.
  double distance_ratio() const { return rho_; }

  /// Maps signature-agreement similarity s to embedded Hamming similarity:
  /// S_H = 1 − (1 − s)·ρ. Exact for equidistant codes; a heuristic identity
  /// mapping for non-equidistant codes.
  double SetToHammingSimilarity(double s) const;

  /// Inverse of SetToHammingSimilarity, clamped into [0, 1].
  double HammingToSetSimilarity(double s_h) const;

  /// Maps a set-similarity query range [s1, s2] to the corresponding
  /// Hamming distance range [d1, d2] over the embedded space (Theorem 1):
  /// d = (1 − s)·ρ·D, so d1 comes from s2 and d2 from s1.
  std::pair<std::size_t, std::size_t> SimilarityRangeToDistanceRange(
      double s1, double s2) const;

  const MinHasher& hasher() const { return *hasher_; }
  const Code& code() const { return *code_; }
  const EmbeddingParams& params() const { return params_; }

 private:
  Embedding(EmbeddingParams params, std::shared_ptr<MinHasher> hasher,
            std::shared_ptr<Code> code);

  EmbeddingParams params_;
  // shared_ptr so Embedding stays cheaply copyable (index + queries share it).
  std::shared_ptr<MinHasher> hasher_;
  std::shared_ptr<Code> code_;
  double rho_;
};

}  // namespace ssr

#endif  // SSR_HAMMING_EMBEDDING_H_
