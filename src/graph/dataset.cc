#include "graph/dataset.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/logging.h"

namespace fexiot {

std::vector<int> GraphDataset::Labels() const {
  std::vector<int> out;
  out.reserve(graphs_.size());
  for (const auto& g : graphs_) out.push_back(g.label());
  return out;
}

double GraphDataset::VulnerableFraction() const {
  if (graphs_.empty()) return 0.0;
  int vuln = 0;
  for (const auto& g : graphs_) vuln += g.label();
  return static_cast<double>(vuln) / static_cast<double>(graphs_.size());
}

void GraphDataset::Split(double train_fraction, Rng* rng, GraphDataset* train,
                         GraphDataset* test) const {
  assert(train != nullptr && test != nullptr);
  assert(rng != nullptr);
  std::vector<size_t> idx(graphs_.size());
  std::iota(idx.begin(), idx.end(), 0);
  if (rng == nullptr) {
    // Release-mode guard: a null rng degrades to a deterministic
    // unshuffled split instead of crashing.
    FEXIOT_LOG(Error) << "GraphDataset::Split called with null rng; "
                         "splitting in dataset order";
  } else {
    rng->Shuffle(&idx);
  }
  const size_t n_train =
      static_cast<size_t>(train_fraction * static_cast<double>(idx.size()));
  train->mutable_graphs().clear();
  test->mutable_graphs().clear();
  for (size_t i = 0; i < idx.size(); ++i) {
    if (i < n_train) {
      train->Add(graphs_[idx[i]]);
    } else {
      test->Add(graphs_[idx[i]]);
    }
  }
}

ClientPartition PartitionDirichlet(const GraphDataset& data, int num_clients,
                                   double alpha, Rng* rng) {
  assert(rng != nullptr);
  assert(num_clients > 0);
  ClientPartition part;
  if (num_clients <= 0 || rng == nullptr) {
    // Release-mode guard for invalid inputs: an empty partition is the
    // only answer that cannot silently mis-assign samples.
    FEXIOT_LOG(Error) << "PartitionDirichlet: invalid input (num_clients="
                      << num_clients << ", rng=" << (rng ? "set" : "null")
                      << "); returning empty partition";
    return part;
  }
  // alpha -> 0 concentrates all mass on one client; clamp away from the
  // Gamma(shape > 0) precondition so degenerate callers get the documented
  // uniform fallback of Rng::Dirichlet instead of an assert.
  alpha = std::max(alpha, 1e-12);
  part.indices.resize(static_cast<size_t>(num_clients));
  part.client_cluster.assign(static_cast<size_t>(num_clients), -1);

  // Group sample indices by class.
  std::vector<std::vector<size_t>> by_class(2);
  for (size_t i = 0; i < data.size(); ++i) {
    by_class[static_cast<size_t>(data.graph(i).label())].push_back(i);
  }
  for (auto& cls : by_class) {
    rng->Shuffle(&cls);
    if (cls.empty()) continue;
    // Client proportions for this class ~ Dirichlet(alpha).
    const std::vector<double> prop = rng->Dirichlet(alpha, num_clients);
    // Convert proportions to contiguous slices.
    size_t cursor = 0;
    for (int c = 0; c < num_clients; ++c) {
      size_t take =
          c + 1 == num_clients
              ? cls.size() - cursor
              : static_cast<size_t>(prop[static_cast<size_t>(c)] *
                                    static_cast<double>(cls.size()));
      take = std::min(take, cls.size() - cursor);
      for (size_t k = 0; k < take; ++k) {
        part.indices[static_cast<size_t>(c)].push_back(cls[cursor + k]);
      }
      cursor += take;
    }
  }
  // Guarantee every client has at least two samples (move from the largest).
  for (auto& client : part.indices) {
    while (client.size() < 2) {
      auto largest = std::max_element(
          part.indices.begin(), part.indices.end(),
          [](const auto& a, const auto& b) { return a.size() < b.size(); });
      if (largest->size() <= 2) break;
      client.push_back(largest->back());
      largest->pop_back();
    }
  }
  return part;
}

ClientPartition PartitionClustered(const GraphDataset& data, int num_clients,
                                   int num_clusters, double alpha, Rng* rng) {
  assert(rng != nullptr);
  assert(num_clients > 0 && num_clusters > 0);
  if (num_clients <= 0 || num_clusters <= 0 || rng == nullptr) {
    FEXIOT_LOG(Error) << "PartitionClustered: invalid input (num_clients="
                      << num_clients << ", num_clusters=" << num_clusters
                      << ", rng=" << (rng ? "set" : "null")
                      << "); returning empty partition";
    return ClientPartition{};
  }
  alpha = std::max(alpha, 1e-12);
  num_clusters = std::min(num_clusters, num_clients);
  ClientPartition part;
  part.indices.resize(static_cast<size_t>(num_clients));
  part.client_cluster.resize(static_cast<size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    part.client_cluster[static_cast<size_t>(c)] = c % num_clusters;
  }

  // Assign each sample to a cluster: benign graphs uniformly; vulnerable
  // graphs preferentially to the cluster owning their vulnerability type
  // (type t belongs to cluster t % num_clusters with probability 0.8).
  std::vector<std::vector<size_t>> cluster_samples(
      static_cast<size_t>(num_clusters));
  for (size_t i = 0; i < data.size(); ++i) {
    const auto& g = data.graph(i);
    int cluster;
    if (g.label() == 1 && rng->Bernoulli(0.8)) {
      cluster = (static_cast<int>(g.vulnerability()) - 1) % num_clusters;
    } else {
      cluster = static_cast<int>(rng->UniformInt(
          static_cast<uint64_t>(num_clusters)));
    }
    cluster_samples[static_cast<size_t>(cluster)].push_back(i);
  }

  // Within each cluster, spread samples over that cluster's clients with
  // Dirichlet label skew.
  for (int k = 0; k < num_clusters; ++k) {
    std::vector<int> clients;
    for (int c = 0; c < num_clients; ++c) {
      if (part.client_cluster[static_cast<size_t>(c)] == k) clients.push_back(c);
    }
    auto& samples = cluster_samples[static_cast<size_t>(k)];
    rng->Shuffle(&samples);
    if (clients.empty() || samples.empty()) continue;
    const std::vector<double> prop =
        rng->Dirichlet(alpha, static_cast<int>(clients.size()));
    size_t cursor = 0;
    for (size_t ci = 0; ci < clients.size(); ++ci) {
      size_t take = ci + 1 == clients.size()
                        ? samples.size() - cursor
                        : static_cast<size_t>(
                              prop[ci] * static_cast<double>(samples.size()));
      take = std::min(take, samples.size() - cursor);
      for (size_t j = 0; j < take; ++j) {
        part.indices[static_cast<size_t>(clients[ci])].push_back(
            samples[cursor + j]);
      }
      cursor += take;
    }
  }
  // Minimum two samples per client.
  for (auto& client : part.indices) {
    while (client.size() < 2) {
      auto largest = std::max_element(
          part.indices.begin(), part.indices.end(),
          [](const auto& a, const auto& b) { return a.size() < b.size(); });
      if (largest->size() <= 2) break;
      client.push_back(largest->back());
      largest->pop_back();
    }
  }
  return part;
}

}  // namespace fexiot
