#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fexiot {

/// \brief Deterministic pseudo-random number generator (splitmix64 +
/// xoshiro256**) with sampling helpers used throughout the simulator.
///
/// All stochastic components in FexIoT (data generation, Dirichlet
/// partitioning, model initialization, Monte Carlo search) draw from an Rng
/// so experiments are reproducible from a single seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eedULL);

  /// Returns the next raw 64-bit value.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double Uniform();
  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);
  /// Uniform integer in [0, n). n must be > 0.
  uint64_t UniformInt(uint64_t n);
  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);
  /// Standard normal via Box-Muller.
  double Normal();
  /// Normal with mean/stddev.
  double Normal(double mean, double stddev);
  /// Gamma(shape, 1) via Marsaglia-Tsang.
  double Gamma(double shape);
  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// \brief Samples a probability vector from Dirichlet(alpha,...,alpha).
  std::vector<double> Dirichlet(double alpha, int k);

  /// \brief Samples an index according to unnormalized weights.
  size_t Categorical(const std::vector<double>& weights);

  /// \brief Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// \brief Samples k distinct indices from [0, n) (k <= n).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// \brief Samples min(k, n) distinct values from [0, n), ascending, with
  /// Floyd's algorithm: O(k) time and memory, so drawing a small cohort
  /// from a huge population never allocates O(n).
  std::vector<uint64_t> SampleSorted(uint64_t n, uint64_t k);

  /// \brief Derives an independent child generator (for parallel streams).
  /// Consumes one draw from this generator's stream.
  Rng Fork();

  /// \brief Counter-based child derivation: deterministically derives the
  /// \p index-th child of this generator's *current* state without
  /// consuming the parent stream. ForkAt(i) is a pure function of
  /// (state, i), so forking N children is O(1) per child, independent of
  /// the order the children are requested in — the stream-splitting
  /// primitive behind parallel corpus generation (graph i's content
  /// depends only on the seed and i, never on thread count or schedule).
  Rng ForkAt(uint64_t index) const;

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace fexiot
