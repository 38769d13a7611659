#include "gnn/gnn_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "tensor/ops.h"

namespace fexiot {

const char* GnnTypeName(GnnType type) {
  switch (type) {
    case GnnType::kGcn:
      return "GCN";
    case GnnType::kGin:
      return "GIN";
    case GnnType::kMagnn:
      return "MAGNN";
  }
  return "?";
}

namespace {

/// [mean | max] pooling over rows [r0, r1) of \p hf into \p pooled
/// (2 * hf.cols() doubles); \p argmax (hf.cols() entries) receives the
/// absolute row index of each column max.
void PoolMeanMaxRows(const Matrix& hf, size_t r0, size_t r1, double* pooled,
                     size_t* argmax) {
  assert(r1 > r0);
  const size_t hd = hf.cols();
  // Column means, matching ColumnMean's sum-then-scale arithmetic.
  std::fill(pooled, pooled + hd, 0.0);
  for (size_t r = r0; r < r1; ++r) {
    const double* row = hf.RowPtr(r);
    for (size_t c = 0; c < hd; ++c) pooled[c] += row[c];
  }
  const double scale = 1.0 / static_cast<double>(r1 - r0);
  for (size_t c = 0; c < hd; ++c) pooled[c] *= scale;
  for (size_t c = 0; c < hd; ++c) {
    double best = hf.At(r0, c);
    size_t best_row = r0;
    for (size_t r = r0 + 1; r < r1; ++r) {
      if (hf.At(r, c) > best) {
        best = hf.At(r, c);
        best_row = r;
      }
    }
    pooled[hd + c] = best;
    argmax[c] = best_row;
  }
}

}  // namespace

CsrMatrix BuildPropagationCsr(const InteractionGraph& g, bool gin) {
  const size_t n = static_cast<size_t>(g.num_nodes());
  // Undirected skeleton with self loops, deduplicated and column-sorted.
  std::vector<std::vector<int>> adj(n);
  for (const auto& [u, v] : g.edges()) {
    adj[static_cast<size_t>(u)].push_back(v);
    adj[static_cast<size_t>(v)].push_back(u);
  }
  for (size_t i = 0; i < n; ++i) {
    adj[i].push_back(static_cast<int>(i));
    std::sort(adj[i].begin(), adj[i].end());
    adj[i].erase(std::unique(adj[i].begin(), adj[i].end()), adj[i].end());
  }
  std::vector<double> dinv;
  if (!gin) {
    dinv.resize(n);
    for (size_t i = 0; i < n; ++i) dinv[i] = GcnDegreeScale(adj[i].size());
  }
  std::vector<std::vector<std::pair<int, double>>> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].reserve(adj[i].size());
    for (int j : adj[i]) {
      const double v =
          gin ? 1.0
              : GcnPropagationValue(dinv[i], dinv[static_cast<size_t>(j)]);
      rows[i].emplace_back(j, v);
    }
  }
  return CsrMatrix::FromRowLists(n, n, rows);
}

double GcnDegreeScale(size_t closed_degree) {
  const double deg = static_cast<double>(closed_degree);
  return deg > 0.0 ? 1.0 / std::sqrt(deg) : 0.0;
}

Status ValidateGnnConfig(const GnnConfig& config) {
  switch (config.type) {
    case GnnType::kGcn:
    case GnnType::kGin:
    case GnnType::kMagnn:
      break;
    default:
      return Status::InvalidArgument("gnn: unknown model type");
  }
  const std::pair<const char*, int> dims[] = {
      {"input_dim", config.input_dim},
      {"hetero_input_dim", config.hetero_input_dim},
      {"hidden_dim", config.hidden_dim},
      {"num_layers", config.num_layers},
      {"embedding_dim", config.embedding_dim},
  };
  for (const auto& [name, value] : dims) {
    if (value < 1) {
      return Status::InvalidArgument(std::string("gnn: ") + name +
                                     " must be >= 1");
    }
  }
  return Status::OK();
}

PreparedGraph PrepareGraph(const InteractionGraph& g,
                           const GnnConfig& config) {
  PreparedGraph p;
  p.num_nodes = g.num_nodes();
  p.label = g.label();
  p.prop_csr = BuildPropagationCsr(g, config.type == GnnType::kGin);
  Matrix raw;
  FillPreparedInput(g, config, &p, &raw);
  return p;
}

void FillPreparedInput(const InteractionGraph& g, const GnnConfig& config,
                       PreparedGraph* p, Matrix* raw) {
  assert(p != nullptr && raw != nullptr);
  const size_t n = static_cast<size_t>(g.num_nodes());
  const bool magnn = config.type == GnnType::kMagnn;
  // One pass per node: pad/truncate into the word-space row of X;
  // sentence-space rows additionally land in `features_hetero`, which
  // only MAGNN allocates (GCN/GIN on heterogeneous graphs fold the
  // sentence embedding into the word slot by truncation). The contracts
  // are documented on PreparedGraph.
  // GCN/GIN size P X before staging X: a scratch allocated here then sits
  // above the kept input, so freeing it leaves no hole under each
  // prepared graph.
  p->input.ResizeForOverwrite(n, static_cast<size_t>(config.input_dim));
  Matrix& x = magnn ? p->input : *raw;
  x.ResizeForOverwrite(n, static_cast<size_t>(config.input_dim));
  if (magnn) {
    p->features_hetero.ResizeForOverwrite(
        n, static_cast<size_t>(config.hetero_input_dim));
  }
  // Copies f under the pad/truncate rule into row i of m.
  auto fill_row = [](const std::vector<double>& f, Matrix* m, size_t i) {
    const size_t copy = std::min(f.size(), m->cols());
    double* row = m->RowPtr(i);
    std::copy(f.begin(), f.begin() + static_cast<ptrdiff_t>(copy), row);
    std::fill(row + copy, row + m->cols(), 0.0);
  };
  p->node_space.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const auto& f = g.node(static_cast<int>(i)).features;
    fill_row(f, &x, i);
    const bool sentence_space =
        static_cast<int>(f.size()) == config.hetero_input_dim &&
        config.hetero_input_dim != config.input_dim;
    if (sentence_space) p->node_space[i] = 1;
    if (magnn) {
      if (sentence_space) {
        fill_row(f, &p->features_hetero, i);
      } else {
        double* hrow = p->features_hetero.RowPtr(i);
        std::fill(hrow, hrow + p->features_hetero.cols(), 0.0);
      }
    }
  }
  // GCN/GIN: layer 0's propagation, the same SpMM the forward ran on X.
  if (!magnn) SpMM(p->prop_csr, *raw, &p->input);
}

GnnModel::GnnModel(const GnnConfig& config) : config_(config) {
  assert(ValidateGnnConfig(config).ok());
  Rng rng(config.seed);
  const size_t in = static_cast<size_t>(config.input_dim);
  const size_t hin = static_cast<size_t>(config.hetero_input_dim);
  const size_t h = static_cast<size_t>(config.hidden_dim);
  const size_t e = static_cast<size_t>(config.embedding_dim);

  auto make_layer = [&](std::vector<Matrix> params) {
    Layer layer;
    layer.grads.reserve(params.size());
    for (const auto& m : params) layer.grads.emplace_back(m.rows(), m.cols());
    layer.params = std::move(params);
    layers_.push_back(std::move(layer));
  };

  if (config.type == GnnType::kMagnn) {
    // Layer 0: dual input projections (word space, sentence space).
    make_layer({Matrix::GlorotUniform(in, h, &rng), Matrix(1, h),
                Matrix::GlorotUniform(hin, h, &rng), Matrix(1, h)});
    for (int l = 0; l < config.num_layers; ++l) {
      make_layer({Matrix::GlorotUniform(h, h, &rng), Matrix(1, h)});
    }
  } else {
    for (int l = 0; l < config.num_layers; ++l) {
      const size_t lin = l == 0 ? in : h;
      make_layer({Matrix::GlorotUniform(lin, h, &rng), Matrix(1, h)});
    }
  }
  // Readout projection over the [mean | max] pooled representation.
  make_layer({Matrix::GlorotUniform(2 * h, e, &rng), Matrix(1, e)});
}

void GnnModel::InputProjectionInto(const PreparedGraph& g, Matrix* pre,
                                   Matrix* post) const {
  // MAGNN-lite: project each node from its feature space into the shared
  // hidden space, ReLU activation.
  const Layer& proj = layers_[0];
  const size_t n = static_cast<size_t>(g.num_nodes);
  const size_t h = static_cast<size_t>(config_.hidden_dim);
  pre->ResizeForOverwrite(n, h);
  for (size_t i = 0; i < n; ++i) {
    const bool sent = g.node_space[i] == 1;
    const Matrix& w = sent ? proj.params[2] : proj.params[0];
    const Matrix& b = sent ? proj.params[3] : proj.params[1];
    const Matrix& x = sent ? g.features_hetero : g.input;
    for (size_t c = 0; c < h; ++c) {
      double s = b.At(0, c);
      for (size_t k = 0; k < w.rows(); ++k) s += x.At(i, k) * w.At(k, c);
      pre->At(i, c) = s;
    }
  }
  ReluInto(*pre, post);
}

void GnnModel::ShapeCache(ForwardCache* cache) const {
  // pre[l] is layer l's pre-activation (MAGNN's projection occupies
  // pre[0]); prop[k] is the propagated input of mp layer first_mp + k.
  // Resizing the vectors is a one-time cost per cache; the matrices
  // inside resize in place.
  const size_t readout_index = layers_.size() - 1;
  const size_t first_mp = config_.type == GnnType::kMagnn ? 1 : 0;
  cache->pre.resize(readout_index);
  cache->prop.resize(readout_index - first_mp);
}

std::vector<double> GnnModel::Forward(const PreparedGraph& g,
                                      ForwardCache* cache) const {
  GnnWorkspace local;
  return Forward(g, cache, &local);
}

const std::vector<double>& GnnModel::Forward(const PreparedGraph& g,
                                             ForwardCache* cache,
                                             GnnWorkspace* ws) const {
  assert(g.num_nodes > 0);
  assert(ws != nullptr);
  ForwardCache* effective = cache != nullptr ? cache : &ws->cache;
  effective->graph = &g;
  const size_t rows[] = {0, static_cast<size_t>(g.num_nodes)};
  ForwardFirstLayer(g, effective, ws);
  ForwardRest(g.prop_csr, rows, effective, ws);
  effective->embedding.assign(ws->emb.RowPtr(0),
                              ws->emb.RowPtr(0) + ws->emb.cols());
  return effective->embedding;
}

void AssembleGraphBatch(const std::vector<const PreparedGraph*>& graphs,
                        const GnnConfig& config, GraphBatch* out) {
  assert(out != nullptr);
  const bool magnn = config.type == GnnType::kMagnn;
  size_t total = 0;
  std::vector<const CsrMatrix*> blocks;
  blocks.reserve(graphs.size());
  for (const PreparedGraph* g : graphs) {
    assert(g != nullptr && g->num_nodes > 0);
    assert(g->input.cols() == static_cast<size_t>(config.input_dim));
    total += static_cast<size_t>(g->num_nodes);
    blocks.push_back(&g->prop_csr);
  }
  PreparedGraph& s = out->stacked;
  s.prop_csr = CsrMatrix::BlockDiagonal(blocks);
  s.num_nodes = static_cast<int>(total);
  s.label = 0;
  s.input.ResizeForOverwrite(total, static_cast<size_t>(config.input_dim));
  if (magnn) {
    s.features_hetero.ResizeForOverwrite(
        total, static_cast<size_t>(config.hetero_input_dim));
  }
  s.node_space.resize(total);
  out->row_offsets.resize(graphs.size() + 1);
  out->row_offsets[0] = 0;
  size_t row = 0;
  for (size_t b = 0; b < graphs.size(); ++b) {
    const PreparedGraph& g = *graphs[b];
    const size_t n = static_cast<size_t>(g.num_nodes);
    std::copy(g.input.data(), g.input.data() + g.input.size(),
              s.input.RowPtr(row));
    if (magnn) {
      // MAGNN prepared graphs always carry the hetero matrix (possibly
      // all-zero rows for word-space nodes); the stacked copy mirrors it.
      assert(g.features_hetero.rows() == n);
      std::copy(g.features_hetero.data(),
                g.features_hetero.data() + g.features_hetero.size(),
                s.features_hetero.RowPtr(row));
    }
    std::copy(g.node_space.begin(), g.node_space.end(),
              s.node_space.begin() + static_cast<ptrdiff_t>(row));
    row += n;
    out->row_offsets[b + 1] = row;
  }
}

void GnnModel::ForwardBatch(const GraphBatch& batch, GnnWorkspace* ws,
                            std::vector<std::vector<double>>* embeddings) const {
  assert(ws != nullptr && embeddings != nullptr);
  embeddings->resize(batch.size());
  if (batch.size() == 0) return;
  assert(batch.stacked.num_nodes > 0);
  ForwardFirstLayer(batch.stacked, &ws->cache, ws);
  ForwardRest(batch.stacked.prop_csr, batch.row_offsets, &ws->cache, ws);
  for (size_t b = 0; b < batch.size(); ++b) {
    (*embeddings)[b].assign(ws->emb.RowPtr(b),
                            ws->emb.RowPtr(b) + ws->emb.cols());
  }
}

void GnnModel::ForwardFirstLayer(const PreparedGraph& g, ForwardCache* cache,
                                 GnnWorkspace* ws) const {
  assert(cache != nullptr && ws != nullptr);
  ShapeCache(cache);
  if (config_.type == GnnType::kMagnn) {
    InputProjectionInto(g, &cache->pre[0], &ws->h);
    return;
  }
  // GCN/GIN layer 0 reads the prepared P X rows.
  Matrix& z = cache->pre[0];
  MatMulInto(g.input, layers_[0].params[0], &z);
  AddBiasRow(&z, layers_[0].params[1]);
  ReluInto(z, &ws->h);
}

void GnnModel::ForwardRest(const CsrMatrix& prop,
                           std::span<const size_t> row_offsets,
                           ForwardCache* cache, GnnWorkspace* ws) const {
  assert(cache != nullptr && ws != nullptr);
  assert(!row_offsets.empty() && prop.rows() == row_offsets.back() &&
         ws->h.rows() == prop.rows());
  ShapeCache(cache);
  const size_t readout_index = layers_.size() - 1;
  const size_t first_mp = config_.type == GnnType::kMagnn ? 1 : 0;
  // Layer 0 (MAGNN: the input projection) already ran; every layer left
  // is a message-passing layer. One SpMM over the block-diagonal CSR
  // propagates every graph: each stacked row accumulates exactly its
  // block's ascending-column entries, so per-row bits match the per-graph
  // SpMM, and the dense product computes each row on its own.
  for (size_t l = 1; l < readout_index; ++l) {
    Matrix& m = cache->prop[l - first_mp];
    SpMM(prop, ws->h, &m);
    Matrix& z = cache->pre[l];
    MatMulInto(m, layers_[l].params[0], &z);
    AddBiasRow(&z, layers_[l].params[1]);
    ReluInto(z, &ws->h);
  }

  // Per-graph [mean | max] readout over the graph's stacked row range,
  // then one readout product for every graph's pooled row.
  const size_t batch_size = row_offsets.size() - 1;
  const size_t hd = ws->h.cols();
  cache->pooled.ResizeForOverwrite(batch_size, 2 * hd);
  cache->argmax.resize(batch_size * hd);
  for (size_t b = 0; b < batch_size; ++b) {
    PoolMeanMaxRows(ws->h, row_offsets[b], row_offsets[b + 1],
                    cache->pooled.RowPtr(b), cache->argmax.data() + b * hd);
  }
  MatMulInto(cache->pooled, layers_[readout_index].params[0], &ws->emb);
  AddBiasRow(&ws->emb, layers_[readout_index].params[1]);
}

void GnnModel::Backward(const ForwardCache& cache,
                        const std::vector<double>& grad_embedding,
                        GnnWorkspace* ws) {
  assert(cache.graph != nullptr);
  assert(ws != nullptr);
  const PreparedGraph& g = *cache.graph;
  const size_t readout_index = layers_.size() - 1;
  const size_t n = static_cast<size_t>(g.num_nodes);

  // Readout projection backward.
  ws->demb.ResizeForOverwrite(1, grad_embedding.size());
  std::copy(grad_embedding.begin(), grad_embedding.end(),
            ws->demb.RowPtr(0));
  Layer& readout = layers_[readout_index];
  MatMulTransAInto(cache.pooled, ws->demb, &ws->gw);
  readout.grads[0] += ws->gw;
  readout.grads[1] += ws->demb;
  MatMulTransBInto(ws->demb, readout.params[0], &ws->dpooled);

  // [mean | max] readout backward: the mean half broadcasts /n to every
  // node row; the max half routes to the argmax row per dim.
  const size_t hdim = ws->dpooled.cols() / 2;
  ws->dh.ResizeForOverwrite(n, hdim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < hdim; ++c) {
      ws->dh.At(i, c) = ws->dpooled.At(0, c) / static_cast<double>(n);
    }
  }
  for (size_t c = 0; c < hdim; ++c) {
    ws->dh.At(cache.argmax[c], c) += ws->dpooled.At(0, hdim + c);
  }

  const size_t first_mp = config_.type == GnnType::kMagnn ? 1 : 0;
  // Message-passing layers, top-down. Each weight gradient reads the
  // layer's propagated input P H as the forward recorded it (GCN/GIN
  // layer 0: the prepared P X).
  for (size_t l = readout_index; l-- > first_mp;) {
    ReluBackwardInto(ws->dh, cache.pre[l], &ws->dz);
    const Matrix& m = l == 0 ? g.input : cache.prop[l - first_mp];
    MatMulTransAInto(m, ws->dz, &ws->gw);
    layers_[l].grads[0] += ws->gw;
    ColumnSumInto(ws->dz, &ws->gb);
    layers_[l].grads[1] += ws->gb;
    if (l > first_mp || config_.type == GnnType::kMagnn) {
      // Propagation matrices are symmetric: dH_in = P (dZ W^T).
      MatMulTransBInto(ws->dz, layers_[l].params[0], &ws->tmp);
      SpMM(g.prop_csr, ws->tmp, &ws->dh);
    }
  }

  if (config_.type == GnnType::kMagnn) {
    // Projection backward (per node space).
    ReluBackwardInto(ws->dh, cache.pre[0], &ws->dz);
    const Matrix& dz = ws->dz;
    Layer& proj = layers_[0];
    for (size_t i = 0; i < n; ++i) {
      const bool sent = g.node_space[i] == 1;
      Matrix& gw = sent ? proj.grads[2] : proj.grads[0];
      Matrix& gb = sent ? proj.grads[3] : proj.grads[1];
      const Matrix& x = sent ? g.features_hetero : g.input;
      for (size_t c = 0; c < dz.cols(); ++c) {
        const double d = dz.At(i, c);
        if (d == 0.0) continue;
        gb.At(0, c) += d;
        for (size_t k = 0; k < gw.rows(); ++k) {
          gw.At(k, c) += x.At(i, k) * d;
        }
      }
    }
  }
}

void GnnModel::Backward(const ForwardCache& cache,
                        const std::vector<double>& grad_embedding) {
  GnnWorkspace local;
  Backward(cache, grad_embedding, &local);
}

void GnnModel::ZeroGrad() {
  for (auto& layer : layers_) {
    for (auto& g : layer.grads) g.Fill(0.0);
  }
}

void GnnModel::ApplyGrads(double learning_rate, double batch_size,
                          double weight_decay) {
  double scale = learning_rate / std::max(1.0, batch_size);
  // Global-norm gradient clipping: GIN's sum aggregation over hub nodes
  // can produce huge activations; unclipped contrastive pushes then
  // diverge.
  constexpr double kMaxGradNorm = 5.0;
  double norm2 = 0.0;
  for (const auto& layer : layers_) {
    for (const auto& g : layer.grads) {
      for (size_t k = 0; k < g.size(); ++k) {
        const double v = g.data()[k] / std::max(1.0, batch_size);
        norm2 += v * v;
      }
    }
  }
  const double norm = std::sqrt(norm2);
  if (norm > kMaxGradNorm) scale *= kMaxGradNorm / norm;
  for (auto& layer : layers_) {
    for (size_t i = 0; i < layer.params.size(); ++i) {
      Matrix& p = layer.params[i];
      const Matrix& g = layer.grads[i];
      for (size_t k = 0; k < p.size(); ++k) {
        p.data()[k] -= scale * g.data()[k] +
                       learning_rate * weight_decay * p.data()[k];
      }
    }
  }
  ZeroGrad();
}

std::vector<double> GnnModel::GetLayerFlat(int l) const {
  const Layer& layer = layers_[static_cast<size_t>(l)];
  std::vector<double> out;
  out.reserve(LayerSize(l));
  for (const auto& m : layer.params) {
    out.insert(out.end(), m.data(), m.data() + m.size());
  }
  return out;
}

std::vector<double> GnnModel::GetLayerGradFlat(int l) const {
  const Layer& layer = layers_[static_cast<size_t>(l)];
  std::vector<double> out;
  out.reserve(LayerSize(l));
  for (const auto& m : layer.grads) {
    out.insert(out.end(), m.data(), m.data() + m.size());
  }
  return out;
}

void GnnModel::SetLayerFlat(int l, const std::vector<double>& flat) {
  Layer& layer = layers_[static_cast<size_t>(l)];
  assert(flat.size() == LayerSize(l));
  size_t cursor = 0;
  for (auto& m : layer.params) {
    std::copy(flat.begin() + static_cast<long>(cursor),
              flat.begin() + static_cast<long>(cursor + m.size()), m.data());
    cursor += m.size();
  }
}

size_t GnnModel::LayerSize(int l) const {
  const Layer& layer = layers_[static_cast<size_t>(l)];
  size_t total = 0;
  for (const auto& m : layer.params) total += m.size();
  return total;
}

size_t GnnModel::TotalParams() const {
  size_t total = 0;
  for (int l = 0; l < num_layers(); ++l) total += LayerSize(l);
  return total;
}

}  // namespace fexiot
