#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "ml/classifier.h"

namespace fexiot {

/// \brief CART decision tree. Classification mode splits on Gini impurity;
/// regression mode (used inside gradient boosting) on variance reduction.
class DecisionTree {
 public:
  struct Options {
    int max_depth = 8;
    int min_samples_split = 4;
    int min_samples_leaf = 2;
    /// Number of candidate features per split; 0 = all (set by random
    /// forest to sqrt(d)).
    int max_features = 0;
    uint64_t seed = 23;
  };

  DecisionTree() : DecisionTree(Options()) {}
  explicit DecisionTree(Options options) : options_(options) {}

  /// Trains a classification tree; \p sample_indices restricts the rows
  /// used (empty = all). Labels must be 0/1.
  Status FitClassification(const Matrix& x, const std::vector<int>& y,
                           const std::vector<size_t>& sample_indices = {});

  /// Trains a regression tree on real-valued targets.
  Status FitRegression(const Matrix& x, const std::vector<double>& y,
                       const std::vector<size_t>& sample_indices = {});

  /// Classification: P(class 1). Regression: predicted value.
  double PredictValue(const std::vector<double>& sample) const;

 private:
  struct Node {
    int feature = -1;        // -1 for leaves
    double threshold = 0.0;  // go left if x[feature] <= threshold
    int left = -1;
    int right = -1;
    double value = 0.0;  // leaf prediction (class-1 fraction / mean target)
  };

  int Build(const Matrix& x, const std::vector<double>& targets,
            std::vector<size_t>& idx, int depth, Rng* rng);

  Options options_;
  std::vector<Node> nodes_;
};

/// \brief Random forest of classification trees (bagging + feature
/// subsampling). One of the Figure 3 correlation classifiers.
class RandomForestClassifier : public Classifier {
 public:
  struct Options {
    int num_trees = 60;
    DecisionTree::Options tree;
    uint64_t seed = 29;
  };

  RandomForestClassifier() : RandomForestClassifier(Options()) {}
  explicit RandomForestClassifier(Options options) : options_(options) {}

  Status Fit(const Matrix& x, const std::vector<int>& y) override;
  int Predict(const std::vector<double>& sample) const override;
  double PredictProba(const std::vector<double>& sample) const override;
  std::string Name() const override { return "RandomForest"; }

 private:
  Options options_;
  std::vector<DecisionTree> trees_;
};

/// \brief Gradient-boosted trees for binary classification (log-loss,
/// shallow regression trees on the negative gradient). One of the Figure 3
/// correlation classifiers.
class GradientBoostClassifier : public Classifier {
 public:
  struct Options {
    int num_rounds = 80;
    double learning_rate = 0.15;
    DecisionTree::Options tree;
    uint64_t seed = 31;
  };

  GradientBoostClassifier() : GradientBoostClassifier(Options()) {
    options_.tree.max_depth = 3;
  }
  explicit GradientBoostClassifier(Options options) : options_(options) {}

  Status Fit(const Matrix& x, const std::vector<int>& y) override;
  int Predict(const std::vector<double>& sample) const override;
  double PredictProba(const std::vector<double>& sample) const override;
  std::string Name() const override { return "GradientBoost"; }

 private:
  Options options_;
  double base_logit_ = 0.0;
  std::vector<DecisionTree> trees_;
};

}  // namespace fexiot
