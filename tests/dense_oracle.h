#pragma once

// Test-only dense propagation oracle.
//
// Production GNN propagation is CSR SpMM only (gnn/gnn_model.cc). This
// header keeps the dense construction of the propagation matrix and a
// dense replay of GnnModel::Forward so tests can pin the sparse engine
// to it bit for bit: CSR's ascending-column accumulation replays
// ReferenceMatMul's zero-skip add order exactly (docs/KERNELS.md §5).

#include <algorithm>
#include <utility>
#include <vector>

#include "gnn/gnn_model.h"
#include "graph/interaction_graph.h"
#include "tensor/ops.h"

namespace fexiot {
namespace testing {

/// The n x n propagation matrix built densely: GCN/MAGNN use
/// D^-1/2 (A + I) D^-1/2, GIN uses (1 + eps) I + A with eps = 0, both
/// over the undirected skeleton.
inline Matrix DensePropagationOracle(const InteractionGraph& g,
                                     GnnType type) {
  if (type != GnnType::kGin) return g.NormalizedAdjacency();
  const size_t n = static_cast<size_t>(g.num_nodes());
  Matrix s(n, n);
  for (size_t i = 0; i < n; ++i) s.At(i, i) = 1.0;
  for (const auto& [u, v] : g.edges()) {
    s.At(static_cast<size_t>(u), static_cast<size_t>(v)) = 1.0;
    s.At(static_cast<size_t>(v), static_cast<size_t>(u)) = 1.0;
  }
  return s;
}

/// Dense replay of GnnModel::Forward on \p g, prepared as \p p under the
/// model's config: parameters are read back through GetLayerFlat, every
/// propagation product is ReferenceMatMul over DensePropagationOracle,
/// and the rest repeats the production arithmetic step for step.
inline std::vector<double> DenseForwardOracle(const GnnModel& model,
                                              const InteractionGraph& g,
                                              const PreparedGraph& p) {
  const GnnConfig& c = model.config();
  const size_t n = static_cast<size_t>(p.num_nodes);
  const size_t h = static_cast<size_t>(c.hidden_dim);
  // Cuts layer l's flat parameters into consecutive rows x cols matrices.
  auto unpack = [&](int l,
                    const std::vector<std::pair<size_t, size_t>>& shapes) {
    const std::vector<double> flat = model.GetLayerFlat(l);
    std::vector<Matrix> out;
    size_t at = 0;
    for (const auto& [rows, cols] : shapes) {
      Matrix m(rows, cols);
      std::copy(flat.begin() + static_cast<long>(at),
                flat.begin() + static_cast<long>(at + m.size()), m.data());
      at += m.size();
      out.push_back(std::move(m));
    }
    return out;
  };

  const Matrix prop = DensePropagationOracle(g, c.type);
  Matrix act = p.features;
  int layer = 0;
  if (c.type == GnnType::kMagnn) {
    const size_t in = static_cast<size_t>(c.input_dim);
    const size_t hin = static_cast<size_t>(c.hetero_input_dim);
    const std::vector<Matrix> proj =
        unpack(layer++, {{in, h}, {1, h}, {hin, h}, {1, h}});
    Matrix pre(n, h);
    for (size_t i = 0; i < n; ++i) {
      const bool sent = p.node_space[i] == 1;
      const Matrix& w = sent ? proj[2] : proj[0];
      const Matrix& b = sent ? proj[3] : proj[1];
      const Matrix& x = sent ? p.features_hetero : p.features;
      for (size_t col = 0; col < h; ++col) {
        double s = b.At(0, col);
        for (size_t k = 0; k < w.rows(); ++k) s += x.At(i, k) * w.At(k, col);
        pre.At(i, col) = s;
      }
    }
    act = Relu(pre);
  }
  for (int l = 0; l < c.num_layers; ++l) {
    const std::vector<Matrix> wb = unpack(layer++, {{act.cols(), h}, {1, h}});
    Matrix z = MatMul(ReferenceMatMul(prop, act), wb[0]);
    AddBiasRow(&z, wb[1]);
    act = Relu(z);
  }

  // [mean | max] readout: column sums scaled by 1/n, then column maxima.
  Matrix pooled(1, 2 * h);
  for (size_t r = 0; r < n; ++r) {
    for (size_t col = 0; col < h; ++col) pooled.At(0, col) += act.At(r, col);
  }
  const double scale = 1.0 / static_cast<double>(n);
  for (size_t col = 0; col < h; ++col) {
    pooled.At(0, col) *= scale;
    double best = act.At(0, col);
    for (size_t r = 1; r < n; ++r) best = std::max(best, act.At(r, col));
    pooled.At(0, h + col) = best;
  }
  const size_t e = static_cast<size_t>(c.embedding_dim);
  const std::vector<Matrix> readout = unpack(layer, {{2 * h, e}, {1, e}});
  Matrix emb = MatMul(pooled, readout[0]);
  AddBiasRow(&emb, readout[1]);
  return {emb.RowPtr(0), emb.RowPtr(0) + e};
}

}  // namespace testing
}  // namespace fexiot
