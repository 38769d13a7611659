#include "explain/scorer.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>

#include "common/hash.h"
#include "tensor/sparse.h"

namespace fexiot {

uint64_t SubsetHash(const std::vector<int>& nodes) {
  Fnv1a h;
  h.U64(nodes.size());
  for (int v : nodes) h.U64(static_cast<uint32_t>(v));
  return h.digest();
}

namespace {

void AppendWord(std::string* key, uint64_t word) {
  key->append(reinterpret_cast<const char*>(&word), sizeof(word));
}

}  // namespace

GnnGraphScorer::GnnGraphScorer(const GnnModel* model,
                               const SgdClassifier* head,
                               const InteractionGraph* graph)
    : model_(model),
      head_(head),
      graph_(graph),
      whole_(PrepareGraph(*graph, model->config())) {
  // PrepareGraph keeps GCN/GIN's propagated P X; subset rows propagate X.
  if (model->config().type != GnnType::kMagnn) {
    FillPreparedInput(*graph, model->config(), &whole_, &x_);
  }
}

double GnnGraphScorer::Score(const std::vector<int>& active_nodes) const {
  std::vector<double> v;
  ScoreBatch({active_nodes}, &v);
  return v[0];
}

void GnnGraphScorer::ScoreBatch(
    const std::vector<std::vector<int>>& node_sets,
    std::vector<double>* scores) const {
  assert(scores != nullptr);
  scores->assign(node_sets.size(), 0.0);
  if (node_sets.empty()) return;
  queries_.fetch_add(static_cast<long long>(node_sets.size()),
                     std::memory_order_relaxed);

  // Resolve memo hits; collect the distinct misses (first occurrence per
  // key; later duplicates are filled from the memo after the commit).
  std::vector<size_t> miss;          // indices into node_sets
  std::vector<size_t> dup;           // unresolved duplicate indices
  std::vector<uint64_t> keys(node_sets.size());
  if (memoize_) {
    for (size_t i = 0; i < node_sets.size(); ++i) {
      keys[i] = SubsetHash(node_sets[i]);
    }
    std::unordered_map<uint64_t, size_t> first;
    std::lock_guard<std::mutex> lock(memo_mu_);
    for (size_t i = 0; i < node_sets.size(); ++i) {
      const auto it = memo_.find(keys[i]);
      if (it != memo_.end()) {
        (*scores)[i] = it->second;
        memo_hits_.fetch_add(1, std::memory_order_relaxed);
      } else if (first.emplace(keys[i], i).second) {
        miss.push_back(i);
      } else {
        dup.push_back(i);
      }
    }
  } else {
    miss.resize(node_sets.size());
    for (size_t i = 0; i < node_sets.size(); ++i) miss[i] = i;
  }
  if (miss.empty()) return;

  std::vector<double> vals(miss.size());
  Evaluate(node_sets, miss, &vals);

  // Commit: one evaluation per distinct miss, regardless of how the model
  // was invoked (docs/EXPLAIN.md §4 — "one batch = N evaluations").
  long long rows = 0;
  if (memoize_) {
    std::lock_guard<std::mutex> lock(memo_mu_);
    for (size_t m = 0; m < miss.size(); ++m) {
      (*scores)[miss[m]] = vals[m];
      const auto inserted = memo_.emplace(keys[miss[m]], vals[m]);
      if (inserted.second) {
        evaluations_.fetch_add(1, std::memory_order_relaxed);
        rows += static_cast<long long>(node_sets[miss[m]].size());
      } else {
        memo_hits_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (size_t i : dup) {
      (*scores)[i] = memo_.at(keys[i]);
      memo_hits_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    for (size_t m = 0; m < miss.size(); ++m) {
      (*scores)[miss[m]] = vals[m];
      rows += static_cast<long long>(node_sets[miss[m]].size());
    }
    evaluations_.fetch_add(static_cast<int>(miss.size()),
                           std::memory_order_relaxed);
  }
  rows_served_.fetch_add(rows, std::memory_order_relaxed);
}

void GnnGraphScorer::Evaluate(const std::vector<std::vector<int>>& node_sets,
                              const std::vector<size_t>& which,
                              std::vector<double>* vals) const {
  const GnnConfig& config = model_->config();
  const bool magnn = config.type == GnnType::kMagnn;
  const bool gin = config.type == GnnType::kGin;
  const CsrMatrix& nbrs = whole_.prop_csr;

  // Cut each subset's propagation rows out of the whole graph's closed
  // neighbourhoods and stack the subsets block-diagonally: the rows
  // BuildPropagationCsr would give the induced subgraph, with columns
  // shifted by the block's offset. Row r belongs to graph node
  // row_node[r]; block b is the subset which[slot[b]].
  std::vector<size_t> row_offsets = {0};
  std::vector<size_t> slot;
  std::vector<int> row_node;
  std::vector<size_t> row_ptr = {0};
  std::vector<int> col_idx;
  std::vector<double> values;
  std::vector<int> pos(static_cast<size_t>(graph_->num_nodes()), -1);
  std::vector<double> scale;
  for (size_t w = 0; w < which.size(); ++w) {
    const std::vector<int>& s = node_sets[which[w]];
    if (s.empty()) {
      const std::vector<double> zero(
          static_cast<size_t>(config.embedding_dim), 0.0);
      (*vals)[w] = head_->PredictProba(zero);
      continue;
    }
    const size_t base = row_offsets.back();
    for (size_t i = 0; i < s.size(); ++i) {
      assert(s[i] >= 0 && s[i] < graph_->num_nodes());
      assert(pos[static_cast<size_t>(s[i])] < 0 &&
             "subset node ids must be distinct");
      pos[static_cast<size_t>(s[i])] = static_cast<int>(i);
    }
    // A row lists its neighbours by subset position; for a sorted subset
    // that is already the whole graph's ascending-id order.
    const bool sorted = std::is_sorted(s.begin(), s.end());
    for (int u : s) {
      const size_t begin = col_idx.size();
      const size_t uu = static_cast<size_t>(u);
      for (size_t e = nbrs.row_ptr()[uu]; e < nbrs.row_ptr()[uu + 1]; ++e) {
        const int p = pos[static_cast<size_t>(nbrs.col_idx()[e])];
        if (p >= 0) col_idx.push_back(static_cast<int>(base) + p);
      }
      if (!sorted) {
        std::sort(col_idx.begin() + static_cast<ptrdiff_t>(begin),
                  col_idx.end());
      }
      row_ptr.push_back(col_idx.size());
      row_node.push_back(u);
    }
    for (int u : s) pos[static_cast<size_t>(u)] = -1;
    if (gin) {
      values.resize(col_idx.size(), 1.0);
    } else {
      scale.resize(s.size());
      for (size_t i = 0; i < s.size(); ++i) {
        scale[i] = GcnDegreeScale(row_ptr[base + i + 1] - row_ptr[base + i]);
      }
      for (size_t i = 0; i < s.size(); ++i) {
        for (size_t e = row_ptr[base + i]; e < row_ptr[base + i + 1]; ++e) {
          const size_t j = static_cast<size_t>(col_idx[e]) - base;
          values.push_back(GcnPropagationValue(scale[i], scale[j]));
        }
      }
    }
    row_offsets.push_back(base + s.size());
    slot.push_back(w);
  }
  if (slot.empty()) return;
  const size_t total = row_offsets.back();
  const CsrMatrix prop(total, total, std::move(row_ptr), std::move(col_idx),
                       std::move(values));

  // Key each row by what its first-layer activation depends on: the
  // (node id, value bits) pairs of its propagation row in order, or for
  // MAGNN the node alone.
  std::string keys;
  std::vector<size_t> key_end(total);
  for (size_t r = 0; r < total; ++r) {
    if (magnn) {
      AppendWord(&keys, static_cast<uint64_t>(row_node[r]));
    } else {
      for (size_t e = prop.row_ptr()[r]; e < prop.row_ptr()[r + 1]; ++e) {
        const int node = row_node[static_cast<size_t>(prop.col_idx()[e])];
        uint64_t bits;
        std::memcpy(&bits, &prop.values()[e], sizeof(bits));
        AppendWord(&keys, static_cast<uint64_t>(node));
        AppendWord(&keys, bits);
      }
    }
    key_end[r] = keys.size();
  }
  const std::string_view all_keys(keys);
  auto key = [&](size_t r) {
    const size_t begin = r == 0 ? 0 : key_end[r - 1];
    return all_keys.substr(begin, key_end[r] - begin);
  };

  // Fill the first-layer activations from the cache.
  const size_t hd = static_cast<size_t>(config.hidden_dim);
  GnnWorkspace ws;
  ws.h.ResizeForOverwrite(total, hd);
  std::vector<size_t> missing;
  {
    std::shared_lock<std::shared_mutex> lock(rows_mu_);
    for (size_t r = 0; r < total; ++r) {
      const auto it = row_index_.find(key(r));
      if (it == row_index_.end()) {
        missing.push_back(r);
      } else {
        const double* row = row_store_.data() + it->second * hd;
        std::copy(row, row + hd, ws.h.RowPtr(r));
      }
    }
  }

  // Compute each distinct missing row once, outside the lock, then commit.
  // A row computed twice in a race has the same bits; the first commit
  // wins.
  if (!missing.empty()) {
    std::vector<size_t> distinct;             // first stacked row per key
    std::vector<size_t> source(missing.size());  // its index in distinct
    std::unordered_map<std::string_view, size_t> first;
    for (size_t k = 0; k < missing.size(); ++k) {
      const auto it = first.emplace(key(missing[k]), distinct.size());
      if (it.second) distinct.push_back(missing[k]);
      source[k] = it.first->second;
    }
    GnnWorkspace miss_ws;
    FirstLayerRows(prop, row_node, distinct, &miss_ws);
    for (size_t k = 0; k < missing.size(); ++k) {
      const double* row = miss_ws.h.RowPtr(source[k]);
      std::copy(row, row + hd, ws.h.RowPtr(missing[k]));
    }
    std::unique_lock<std::shared_mutex> lock(rows_mu_);
    for (size_t d = 0; d < distinct.size(); ++d) {
      const size_t index = row_store_.size() / hd;
      if (row_index_.try_emplace(std::string(key(distinct[d])), index)
              .second) {
        const double* row = miss_ws.h.RowPtr(d);
        row_store_.insert(row_store_.end(), row, row + hd);
        rows_computed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  // The layers after the first, and the head, once for the whole stack.
  model_->ForwardRest(prop, row_offsets, &ws.cache, &ws);
  std::vector<double> embedding;
  for (size_t b = 0; b < slot.size(); ++b) {
    embedding.assign(ws.emb.RowPtr(b), ws.emb.RowPtr(b) + ws.emb.cols());
    (*vals)[slot[b]] = head_->PredictProba(embedding);
  }
}

void GnnGraphScorer::FirstLayerRows(const CsrMatrix& prop,
                                    const std::vector<int>& row_node,
                                    const std::vector<size_t>& rows,
                                    GnnWorkspace* ws) const {
  const size_t n = rows.size();
  PreparedGraph g;
  g.num_nodes = static_cast<int>(n);
  if (model_->config().type == GnnType::kMagnn) {
    // The input projection reads each node's own inputs.
    g.input.ResizeForOverwrite(n, whole_.input.cols());
    g.features_hetero.ResizeForOverwrite(n, whole_.features_hetero.cols());
    g.node_space.resize(n);
    for (size_t k = 0; k < n; ++k) {
      const size_t u = static_cast<size_t>(row_node[rows[k]]);
      std::copy_n(whole_.input.RowPtr(u), g.input.cols(), g.input.RowPtr(k));
      std::copy_n(whole_.features_hetero.RowPtr(u), g.features_hetero.cols(),
                  g.features_hetero.RowPtr(k));
      g.node_space[k] = whole_.node_space[u];
    }
  } else {
    // P X rows: one SpMM of the rows' entries against their X rows,
    // gathered once per entry so every row's columns ascend.
    size_t nnz = 0;
    for (size_t r : rows) nnz += prop.RowNnz(r);
    std::vector<size_t> ptr = {0};
    std::vector<int> col(nnz);
    std::iota(col.begin(), col.end(), 0);
    std::vector<double> val;
    val.reserve(nnz);
    Matrix x;
    x.ResizeForOverwrite(nnz, x_.cols());
    for (size_t r : rows) {
      for (size_t e = prop.row_ptr()[r]; e < prop.row_ptr()[r + 1]; ++e) {
        const int c = prop.col_idx()[e];
        const size_t u = static_cast<size_t>(row_node[static_cast<size_t>(c)]);
        std::copy_n(x_.RowPtr(u), x.cols(), x.RowPtr(val.size()));
        val.push_back(prop.values()[e]);
      }
      ptr.push_back(val.size());
    }
    SpMM(CsrMatrix(n, nnz, std::move(ptr), std::move(col), std::move(val)), x,
         &g.input);
  }
  model_->ForwardFirstLayer(g, &ws->cache, ws);
}

}  // namespace fexiot
