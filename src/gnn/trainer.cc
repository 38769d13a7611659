#include "gnn/trainer.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "gnn/contrastive.h"

namespace fexiot {
namespace {

/// L2 weight decay of every SGD step.
constexpr double kWeightDecay = 1e-5;
/// Pairs (contrastive) or graphs (supervised) per SGD step.
constexpr int kBatchPairs = 8;

}  // namespace

Status ValidateTrainConfig(const TrainConfig& config) {
  if (config.epochs < 1) {
    return Status::InvalidArgument("train: epochs must be >= 1");
  }
  const std::pair<const char*, double> positives[] = {
      {"learning_rate", config.learning_rate},
      {"margin", config.margin},
      {"pairs_per_sample", config.pairs_per_sample},
  };
  for (const auto& [name, value] : positives) {
    if (!std::isfinite(value) || value <= 0.0) {
      return Status::InvalidArgument(std::string("train: ") + name +
                                     " must be finite and > 0");
    }
  }
  return Status::OK();
}

std::vector<PreparedGraph> PrepareGraphs(
    const std::vector<InteractionGraph>& graphs, const GnnConfig& config) {
  std::vector<PreparedGraph> out;
  out.reserve(graphs.size());
  for (const auto& g : graphs) out.push_back(PrepareGraph(g, config));
  return out;
}

std::vector<PreparedGraph> PrepareDataset(const GraphDataset& data,
                                          const GnnConfig& config) {
  return PrepareGraphs(data.graphs(), config);
}

double GnnTrainer::Train(const std::vector<PreparedGraph>& graphs, Rng* rng) {
  if (graphs.size() < 2) return 0.0;
  return config_.contrastive ? TrainContrastive(graphs, rng)
                             : TrainSupervised(graphs, rng);
}

double GnnTrainer::TrainContrastive(const std::vector<PreparedGraph>& graphs,
                                    Rng* rng) {
  double total_loss = 0.0;
  int total_pairs = 0;
  // Index graphs by class for balanced pair sampling.
  std::vector<size_t> pos, neg;
  for (size_t i = 0; i < graphs.size(); ++i) {
    (graphs[i].label == 1 ? pos : neg).push_back(i);
  }
  const int pairs_per_epoch = std::max(
      4, static_cast<int>(config_.pairs_per_sample *
                          static_cast<double>(graphs.size())));

  struct SampledPair {
    size_t i, j;
  };
  struct PairWork {
    ForwardCache ci, cj;
    GnnWorkspace ws;
    ContrastivePair pair;
  };
  const size_t batch = kBatchPairs;

  // Hot-path state persists across batches and epochs: caches, workspaces
  // and gradient scratch all reach their peak shapes during the first
  // epoch, after which the loop performs no per-graph heap allocation.
  std::vector<SampledPair> pairs;
  pairs.reserve(static_cast<size_t>(pairs_per_epoch));
  std::vector<PairWork> work(std::min(
      batch, static_cast<size_t>(pairs_per_epoch)));
  GnnWorkspace bw;  // serial backward scratch
  std::vector<double> grad_j;

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    // Phase 1 (serial): sample the epoch's pairs. Keeping all rng draws
    // here preserves the exact stream of the original interleaved loop.
    pairs.clear();
    for (int p = 0; p < pairs_per_epoch; ++p) {
      // Half the pairs are same-class, half different-class when possible.
      size_t i, j;
      const bool want_different =
          rng->Bernoulli(0.5) && !pos.empty() && !neg.empty();
      if (want_different) {
        i = pos[rng->UniformInt(pos.size())];
        j = neg[rng->UniformInt(neg.size())];
      } else {
        const auto& side = (!pos.empty() && (neg.empty() || rng->Bernoulli(
                                                                0.5)))
                               ? pos
                               : neg;
        if (side.size() < 2) continue;
        i = side[rng->UniformInt(side.size())];
        do {
          j = side[rng->UniformInt(side.size())];
        } while (j == i);
      }
      pairs.push_back({i, j});
    }

    model_->ZeroGrad();
    for (size_t start = 0; start < pairs.size(); start += batch) {
      const size_t count = std::min(batch, pairs.size() - start);
      if (work.size() < count) work.resize(count);
      // Phase 2 (parallel): forward passes and pair losses only read the
      // model; each index owns one PairWork, so its caches and workspace
      // are touched by exactly one thread per batch.
      parallel::For(count, [&](size_t t) {
        const SampledPair& sp = pairs[start + t];
        PairWork& w = work[t];
        const std::vector<double>& zi =
            model_->Forward(graphs[sp.i], &w.ci, &w.ws);
        const std::vector<double>& zj =
            model_->Forward(graphs[sp.j], &w.cj, &w.ws);
        const bool different = graphs[sp.i].label != graphs[sp.j].label;
        ContrastiveLoss(zi, zj, different, config_.margin, config_.form,
                        &w.pair);
      });
      // Phase 3 (serial, in pair order): gradient accumulation mutates the
      // shared model, and the fixed order keeps results bit-identical for
      // every thread count.
      for (size_t t = 0; t < count; ++t) {
        const PairWork& w = work[t];
        total_loss += w.pair.loss;
        ++total_pairs;
        if (w.pair.loss > 0.0) {
          grad_j.resize(w.pair.grad_i.size());
          for (size_t g = 0; g < grad_j.size(); ++g) {
            grad_j[g] = -w.pair.grad_i[g];
          }
          model_->Backward(w.ci, w.pair.grad_i, &bw);
          model_->Backward(w.cj, grad_j, &bw);
        }
      }
      model_->ApplyGrads(config_.learning_rate, 2.0 * count, kWeightDecay);
    }
  }
  return total_pairs > 0 ? total_loss / total_pairs : 0.0;
}

double GnnTrainer::TrainSupervised(const std::vector<PreparedGraph>& graphs,
                                   Rng* rng) {
  // Ablation objective: logistic loss through a jointly-trained virtual
  // linear head on the embedding (no pairwise structure).
  const size_t e = static_cast<size_t>(model_->config().embedding_dim);
  std::vector<double> w(e, 0.0);
  double b = 0.0;
  double total_loss = 0.0;
  int count = 0;
  // Reused across the whole run; the serial loop stops allocating per
  // graph once the cache and workspace have seen the largest graph.
  ForwardCache cache;
  GnnWorkspace ws;
  std::vector<double> dz(e);
  std::vector<size_t> order;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    order.resize(graphs.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng->Shuffle(&order);
    int in_batch = 0;
    model_->ZeroGrad();
    for (size_t i : order) {
      const std::vector<double>& z = model_->Forward(graphs[i], &cache, &ws);
      double logit = b;
      for (size_t k = 0; k < e; ++k) logit += w[k] * z[k];
      const double p = 1.0 / (1.0 + std::exp(-logit));
      const double y = static_cast<double>(graphs[i].label);
      total_loss += -(y * std::log(p + 1e-12) +
                      (1.0 - y) * std::log(1.0 - p + 1e-12));
      ++count;
      const double err = p - y;
      for (size_t k = 0; k < e; ++k) dz[k] = err * w[k];
      model_->Backward(cache, dz, &ws);
      // Head update (plain SGD, same LR).
      for (size_t k = 0; k < e; ++k) {
        w[k] -= config_.learning_rate * err * z[k];
      }
      b -= config_.learning_rate * err;
      if (++in_batch >= kBatchPairs) {
        model_->ApplyGrads(config_.learning_rate, in_batch, kWeightDecay);
        in_batch = 0;
      }
    }
    if (in_batch > 0) {
      model_->ApplyGrads(config_.learning_rate, in_batch, kWeightDecay);
    }
  }
  return count > 0 ? total_loss / count : 0.0;
}

Matrix GnnTrainer::Embed(const std::vector<PreparedGraph>& graphs) const {
  const size_t n = graphs.size();
  Matrix out(n, static_cast<size_t>(model_->config().embedding_dim));
  // Read-only forwards writing disjoint output rows; one workspace per
  // contiguous shard so each forward reuses scratch within its shard.
  const size_t nshards = std::max<size_t>(
      1, std::min(n, parallel::NumThreads()));
  parallel::For(nshards, [&](size_t s) {
    const size_t lo = n * s / nshards;
    const size_t hi = n * (s + 1) / nshards;
    GnnWorkspace ws;
    for (size_t i = lo; i < hi; ++i) {
      out.SetRow(i, model_->Forward(graphs[i], nullptr, &ws));
    }
  });
  return out;
}

ClassificationMetrics GnnTrainer::Evaluate(
    const std::vector<PreparedGraph>& train_graphs,
    const std::vector<PreparedGraph>& test_graphs) const {
  const Matrix train_emb = Embed(train_graphs);
  std::vector<int> train_y;
  train_y.reserve(train_graphs.size());
  for (const auto& g : train_graphs) train_y.push_back(g.label);

  SgdClassifier head;
  const Status st = head.Fit(train_emb, train_y);
  std::vector<int> labels, preds;
  if (st.ok()) {
    GnnWorkspace ws;
    for (const auto& g : test_graphs) {
      labels.push_back(g.label);
      preds.push_back(head.Predict(model_->Forward(g, nullptr, &ws)));
    }
  }
  return ComputeMetrics(labels, preds);
}

}  // namespace fexiot
