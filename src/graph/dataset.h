#pragma once

#include <vector>

#include "common/rng.h"
#include "graph/interaction_graph.h"

namespace fexiot {

/// \brief A collection of labeled interaction graphs with split /
/// partition utilities used by the federated experiments.
class GraphDataset {
 public:
  GraphDataset() = default;
  explicit GraphDataset(std::vector<InteractionGraph> graphs)
      : graphs_(std::move(graphs)) {}

  size_t size() const { return graphs_.size(); }
  bool empty() const { return graphs_.empty(); }
  const InteractionGraph& graph(size_t i) const { return graphs_[i]; }
  const std::vector<InteractionGraph>& graphs() const { return graphs_; }
  std::vector<InteractionGraph>& mutable_graphs() { return graphs_; }

  void Add(InteractionGraph g) { graphs_.push_back(std::move(g)); }

  /// Labels as a vector (0 = normal, 1 = vulnerable).
  std::vector<int> Labels() const;

  /// Fraction of vulnerable graphs.
  double VulnerableFraction() const;

  /// \brief Random train/test split (by fraction of the whole set).
  /// \p rng must be non-null (asserted; a release build degrades to a
  /// deterministic unshuffled split).
  void Split(double train_fraction, Rng* rng, GraphDataset* train,
             GraphDataset* test) const;

 private:
  std::vector<InteractionGraph> graphs_;
};

/// \brief Per-client index assignment for federated simulation.
struct ClientPartition {
  /// indices[c] lists dataset indices owned by client c.
  std::vector<std::vector<size_t>> indices;
  /// Latent cluster id per client (when clustered partitioning was used;
  /// -1 otherwise). Ground truth for evaluating clustered FL.
  std::vector<int> client_cluster;
};

/// \brief Dirichlet label-skew partition (Section IV-C): each class's
/// samples are spread over clients with proportions ~ Dirichlet(alpha).
/// Small alpha -> highly unbalanced non-i.i.d. clients. \p rng must be
/// non-null and \p num_clients positive (asserted; release builds return
/// an empty partition). alpha is clamped to a tiny positive floor, so
/// alpha -> 0 degrades to Rng::Dirichlet's uniform fallback.
ClientPartition PartitionDirichlet(const GraphDataset& data, int num_clients,
                                   double alpha, Rng* rng);

/// \brief Clustered heterogeneity partition: clients are grouped into
/// \p num_clusters latent clusters; each cluster prefers a distinct subset
/// of vulnerability types (concept heterogeneity), and within a cluster
/// samples are spread with Dirichlet(alpha) label skew. This is the regime
/// the paper's layer-wise clustering is designed for.
ClientPartition PartitionClustered(const GraphDataset& data, int num_clients,
                                   int num_clusters, double alpha, Rng* rng);

}  // namespace fexiot
