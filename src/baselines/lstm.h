#pragma once

#include <vector>

#include "common/rng.h"
#include "tensor/matrix.h"

namespace fexiot {

/// \brief Single-layer LSTM language model over discrete event keys with
/// full backpropagation through time. Substrate of the DeepLog baseline:
/// trained to predict the next log key; keys falling outside the top-k
/// predictions are anomalies.
class LstmLanguageModel {
 public:
  struct Options {
    int vocab_size = 64;
    int embedding_dim = 16;
    int hidden_dim = 32;
    int epochs = 6;
    double learning_rate = 0.05;
    /// Truncated-BPTT window.
    int bptt_steps = 24;
    uint64_t seed = 67;
  };

  explicit LstmLanguageModel(Options options);

  /// Trains next-key prediction on the given key sequences. Returns the
  /// final mean cross-entropy.
  double Fit(const std::vector<std::vector<int>>& sequences);

  /// \brief Probability distribution over the next key given a history
  /// (runs the LSTM over the whole history).
  std::vector<double> NextKeyDistribution(
      const std::vector<int>& history) const;

  /// \brief Fraction of transitions of \p sequence that fall outside the
  /// top-k prediction (the DeepLog anomaly rate).
  double AnomalyRate(const std::vector<int>& sequence, int k) const;

 private:
  struct StepCache;
  /// One forward step; returns logits.
  std::vector<double> Step(int key, std::vector<double>* h,
                           std::vector<double>* c, StepCache* cache) const;

  Options options_;
  // Parameters: embedding, gate weights (input & recurrent), biases, output.
  Matrix embed_;   // V x E
  Matrix wx_;      // E x 4H  (order: i, f, o, g)
  Matrix wh_;      // H x 4H
  Matrix b_;       // 1 x 4H
  Matrix wout_;    // H x V
  Matrix bout_;    // 1 x V
};

}  // namespace fexiot
