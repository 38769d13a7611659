#pragma once

// Test-only dense propagation oracle.
//
// Production GNN propagation is CSR SpMM only (gnn/gnn_model.cc), and
// for GCN/GIN the first layer's P X is computed once in PrepareGraph.
// This header keeps the dense construction of the propagation matrix,
// the feature matrices rebuilt straight from the graph, and dense
// replays of GnnModel::Forward and GnnModel::Backward, so tests can pin
// the sparse engine to them bit for bit: CSR's ascending-column
// accumulation replays ReferenceMatMul's zero-skip add order exactly
// (docs/KERNELS.md §2).

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

/// The raw feature matrices of \p g under PreparedGraph's padding
/// contract, rebuilt from the graph: X (n x input_dim, each node's vector
/// truncated or zero-padded), the sentence-space flag per node, and for
/// MAGNN the sentence-space rows at hetero_input_dim (zero elsewhere).
struct DenseFeatures {
  Matrix x;
  Matrix x_hetero;  ///< MAGNN only
  std::vector<int> space;
};

inline DenseFeatures DenseFeatureOracle(const InteractionGraph& g,
                                        const GnnConfig& c) {
  const size_t n = static_cast<size_t>(g.num_nodes());
  const bool magnn = c.type == GnnType::kMagnn;
  DenseFeatures out;
  out.x = Matrix(n, static_cast<size_t>(c.input_dim));
  if (magnn) out.x_hetero = Matrix(n, static_cast<size_t>(c.hetero_input_dim));
  out.space.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<double>& f = g.node(static_cast<int>(i)).features;
    for (size_t k = 0; k < f.size() && k < out.x.cols(); ++k) {
      out.x.At(i, k) = f[k];
    }
    if (static_cast<int>(f.size()) == c.hetero_input_dim &&
        c.hetero_input_dim != c.input_dim) {
      out.space[i] = 1;
      for (size_t k = 0; magnn && k < f.size() && k < out.x_hetero.cols();
           ++k) {
        out.x_hetero.At(i, k) = f[k];
      }
    }
  }
  return out;
}

/// Everything a dense replay of GnnModel::Forward records for the
/// backward replay: the inputs, each layer's pre-activation, each
/// message-passing layer's propagated input P H, and the readout.
struct DenseForwardRecord {
  Matrix prop;  ///< DensePropagationOracle
  DenseFeatures features;
  std::vector<Matrix> pre;      ///< per layer (MAGNN's projection first)
  std::vector<Matrix> prop_in;  ///< P H per message-passing layer
  Matrix pooled;                ///< 1 x 2h [mean | max]
  std::vector<size_t> argmax;   ///< first row holding each column's max
  std::vector<double> embedding;
};

/// Cuts layer \p l's flat parameters into consecutive rows x cols
/// matrices.
inline std::vector<Matrix> UnpackLayer(
    const GnnModel& model, int l,
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
}

/// Dense replay of GnnModel::Forward on \p g: X is rebuilt from the graph
/// (DenseFeatureOracle), parameters are read back through GetLayerFlat,
/// every propagation product is ReferenceMatMul over
/// DensePropagationOracle — layer 0's included, which production runs
/// once in PrepareGraph — and the rest repeats the production arithmetic
/// step for step.
inline DenseForwardRecord DenseForwardReplay(const GnnModel& model,
                                             const InteractionGraph& g) {
  const GnnConfig& c = model.config();
  const size_t n = static_cast<size_t>(g.num_nodes());
  const size_t h = static_cast<size_t>(c.hidden_dim);
  DenseForwardRecord rec;
  rec.prop = DensePropagationOracle(g, c.type);
  rec.features = DenseFeatureOracle(g, c);
  const DenseFeatures& f = rec.features;
  Matrix act = f.x;
  int layer = 0;
  if (c.type == GnnType::kMagnn) {
    const size_t in = static_cast<size_t>(c.input_dim);
    const size_t hin = static_cast<size_t>(c.hetero_input_dim);
    const std::vector<Matrix> proj =
        UnpackLayer(model, layer++, {{in, h}, {1, h}, {hin, h}, {1, h}});
    Matrix pre(n, h);
    for (size_t i = 0; i < n; ++i) {
      const bool sent = f.space[i] == 1;
      const Matrix& w = sent ? proj[2] : proj[0];
      const Matrix& b = sent ? proj[3] : proj[1];
      const Matrix& x = sent ? f.x_hetero : f.x;
      for (size_t col = 0; col < h; ++col) {
        double s = b.At(0, col);
        for (size_t k = 0; k < w.rows(); ++k) s += x.At(i, k) * w.At(k, col);
        pre.At(i, col) = s;
      }
    }
    act = Relu(pre);
    rec.pre.push_back(std::move(pre));
  }
  for (int l = 0; l < c.num_layers; ++l) {
    const std::vector<Matrix> wb =
        UnpackLayer(model, layer++, {{act.cols(), h}, {1, h}});
    rec.prop_in.push_back(ReferenceMatMul(rec.prop, act));
    Matrix z = MatMul(rec.prop_in.back(), wb[0]);
    AddBiasRow(&z, wb[1]);
    act = Relu(z);
    rec.pre.push_back(std::move(z));
  }

  // [mean | max] readout: column sums scaled by 1/n, then column maxima
  // (the first row wins a tie).
  rec.pooled = Matrix(1, 2 * h);
  rec.argmax.assign(h, 0);
  for (size_t r = 0; r < n; ++r) {
    for (size_t col = 0; col < h; ++col) rec.pooled.At(0, col) += act.At(r, col);
  }
  const double scale = 1.0 / static_cast<double>(n);
  for (size_t col = 0; col < h; ++col) {
    rec.pooled.At(0, col) *= scale;
    for (size_t r = 1; r < n; ++r) {
      if (act.At(r, col) > act.At(rec.argmax[col], col)) rec.argmax[col] = r;
    }
    rec.pooled.At(0, h + col) = act.At(rec.argmax[col], col);
  }
  const size_t e = static_cast<size_t>(c.embedding_dim);
  const std::vector<Matrix> readout =
      UnpackLayer(model, layer, {{2 * h, e}, {1, e}});
  Matrix emb = MatMul(rec.pooled, readout[0]);
  AddBiasRow(&emb, readout[1]);
  rec.embedding.assign(emb.RowPtr(0), emb.RowPtr(0) + e);
  return rec;
}

/// The embedding of DenseForwardReplay.
inline std::vector<double> DenseForwardOracle(const GnnModel& model,
                                              const InteractionGraph& g) {
  return DenseForwardReplay(model, g).embedding;
}

/// Dense replay of GnnModel::Backward after one forward of \p g from zero
/// gradients: returns each parameter layer's accumulated gradient,
/// flattened as GetLayerGradFlat does. The dense products repeat the
/// production calls; every propagation, the forward's P H included, is
/// recomputed with ReferenceMatMul over DensePropagationOracle (P is
/// symmetric, so dH_in = P (dZ W^T)).
inline std::vector<std::vector<double>> DenseBackwardOracle(
    const GnnModel& model, const InteractionGraph& g,
    const std::vector<double>& grad_embedding) {
  const GnnConfig& c = model.config();
  const DenseForwardRecord rec = DenseForwardReplay(model, g);
  const size_t n = static_cast<size_t>(g.num_nodes());
  const size_t h = static_cast<size_t>(c.hidden_dim);
  const size_t e = static_cast<size_t>(c.embedding_dim);
  const bool magnn = c.type == GnnType::kMagnn;
  const int first_mp = magnn ? 1 : 0;
  const int readout_index = model.num_layers() - 1;
  // Gradients accumulate into zeroed matrices, as Backward's += does.
  std::vector<std::vector<Matrix>> grads(
      static_cast<size_t>(model.num_layers()));
  auto accumulate = [&](int l, size_t slot, const Matrix& g_add) {
    std::vector<Matrix>& layer = grads[static_cast<size_t>(l)];
    if (layer.size() <= slot) layer.resize(slot + 1);
    if (layer[slot].size() == 0) layer[slot] = Matrix(g_add.rows(), g_add.cols());
    layer[slot] += g_add;
  };

  Matrix demb(1, e);
  std::copy(grad_embedding.begin(), grad_embedding.end(), demb.RowPtr(0));
  const std::vector<Matrix> readout =
      UnpackLayer(model, readout_index, {{2 * h, e}, {1, e}});
  accumulate(readout_index, 0, MatMulTransA(rec.pooled, demb));
  accumulate(readout_index, 1, demb);
  const Matrix dpooled = MatMulTransB(demb, readout[0]);
  Matrix dh(n, h);
  for (size_t i = 0; i < n; ++i) {
    for (size_t col = 0; col < h; ++col) {
      dh.At(i, col) = dpooled.At(0, col) / static_cast<double>(n);
    }
  }
  for (size_t col = 0; col < h; ++col) {
    dh.At(rec.argmax[col], col) += dpooled.At(0, h + col);
  }

  for (int l = readout_index; l-- > first_mp;) {
    const size_t k = static_cast<size_t>(l - first_mp);
    const Matrix dz = ReluBackward(dh, rec.pre[static_cast<size_t>(l)]);
    accumulate(l, 0, MatMulTransA(rec.prop_in[k], dz));
    accumulate(l, 1, ColumnSum(dz));
    if (l > first_mp || magnn) {
      const std::vector<Matrix> wb = UnpackLayer(
          model, l, {{rec.prop_in[k].cols(), h}, {1, h}});
      dh = ReferenceMatMul(rec.prop, MatMulTransB(dz, wb[0]));
    }
  }

  if (magnn) {
    const DenseFeatures& f = rec.features;
    const Matrix dz = ReluBackward(dh, rec.pre[0]);
    std::vector<Matrix> proj = {
        Matrix(f.x.cols(), h), Matrix(1, h), Matrix(f.x_hetero.cols(), h),
        Matrix(1, h)};
    for (size_t i = 0; i < n; ++i) {
      const bool sent = f.space[i] == 1;
      Matrix& gw = sent ? proj[2] : proj[0];
      Matrix& gb = sent ? proj[3] : proj[1];
      const Matrix& x = sent ? f.x_hetero : f.x;
      for (size_t col = 0; col < h; ++col) {
        const double d = dz.At(i, col);
        if (d == 0.0) continue;
        gb.At(0, col) += d;
        for (size_t k = 0; k < gw.rows(); ++k) gw.At(k, col) += x.At(i, k) * d;
      }
    }
    grads[0] = std::move(proj);
  }

  std::vector<std::vector<double>> flat;
  for (const std::vector<Matrix>& layer : grads) {
    std::vector<double> v;
    for (const Matrix& m : layer) v.insert(v.end(), m.data(), m.data() + m.size());
    flat.push_back(std::move(v));
  }
  return flat;
}

}  // namespace testing
}  // namespace fexiot
