#include "graph/dataset.h"

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

}  // namespace fexiot
