#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/interaction_graph.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"

namespace fexiot {

/// \brief GNN architectures evaluated in the paper (Section IV-C).
enum class GnnType {
  kGcn,    ///< graph convolutional network (Kipf & Welling)
  kGin,    ///< graph isomorphism network (Xu et al.)
  kMagnn,  ///< metapath-aggregated heterogeneous GNN (Fu et al.), -lite:
           ///< per-feature-space input projections + shared propagation
};

const char* GnnTypeName(GnnType type);

/// \brief Model hyperparameters.
struct GnnConfig {
  GnnType type = GnnType::kGcn;
  /// Input feature dim of word-embedding platforms (homogeneous graphs).
  int input_dim = kHomoFeatureDim;
  /// Second feature space (sentence encoder); only used by kMagnn.
  int hetero_input_dim = kHeteroFeatureDim;
  int hidden_dim = 16;
  /// Number of message-passing layers (the paper uses 3 GCN layers).
  int num_layers = 3;
  /// Final graph-embedding dimensionality (readout projection output).
  int embedding_dim = 16;
  uint64_t seed = 47;
};

/// \brief Checks \p config before a GnnModel is built from it: a known
/// type and every dimension (input_dim, hetero_input_dim, hidden_dim,
/// num_layers, embedding_dim) at least 1. Fails with InvalidArgument
/// otherwise. GnnModel's constructor assumes a valid config.
Status ValidateGnnConfig(const GnnConfig& config);

/// \brief A graph pre-processed for GNN consumption: the propagation
/// matrix in CSR form + the first layer's input. Build once per dataset,
/// reuse every epoch.
///
/// Interaction graphs average a handful of edges per node, so every
/// propagation product is an O(nnz d) SpMM and no O(n^2) dense matrix is
/// held (docs/KERNELS.md §2). The dense construction survives only as
/// the test oracle in tests/dense_oracle.h.
///
/// Feature padding contract: each node's feature vector becomes one row
/// of the raw feature matrix X (n x input_dim) — truncated to input_dim
/// when longer (sentence-space nodes folded into the word slot for
/// homogeneous models), zero-padded on the right when shorter. For MAGNN
/// configs only, sentence-space rows are additionally copied (same
/// pad/truncate rule at hetero_input_dim) into `features_hetero`; for
/// GCN/GIN that matrix stays empty — InputProjection is the only consumer.
///
/// Input contract: `input` is what the first layer consumes. For GCN/GIN
/// it is the propagated features P X, computed once here by the same SpMM
/// the forward would run (their first layer reads nothing else, and
/// nothing learned enters P X). For MAGNN it is X itself, because the
/// per-space input projection runs before any propagation. X is not kept
/// beside P X.
struct PreparedGraph {
  Matrix input;        ///< n x input_dim: P X (GCN/GIN) or X (MAGNN)
  CsrMatrix prop_csr;  ///< n x n propagation matrix
  /// Per-node space id (0 = word space, 1 = sentence space).
  std::vector<int> node_space;
  Matrix features_hetero;  ///< n x hetero_input_dim, MAGNN configs only
  int label = 0;
  int num_nodes = 0;
};

/// \brief Prepares a graph for \p config (builds the propagation matrix
/// appropriate to the architecture, then the input via FillPreparedInput).
PreparedGraph PrepareGraph(const InteractionGraph& g, const GnnConfig& config);

/// \brief The propagation matrix of \p g, built straight from its edge
/// list in O(n + e log e) without densifying: the symmetrized adjacency
/// with self loops, one entry per undirected pair, columns ascending.
/// Entries are exactly 1.0 for GIN (\p gin) and otherwise the one-rounding
/// product GcnPropagationValue(dinv[i], dinv[j]), bit-identical to the
/// dense build (tests/dense_oracle.h). The one builder: PrepareGraph and
/// the serving engine's snapshot of a home whose edges changed.
CsrMatrix BuildPropagationCsr(const InteractionGraph& g, bool gin);

/// \brief (Re)builds \p p's node_space, features_hetero and input from
/// \p g's node features under the padding and input contracts above.
/// For GCN/GIN, p->prop_csr must already describe \p g's edges, and X is
/// staged in \p raw, which keeps it after the call (a reusable scratch,
/// untouched for MAGNN). The one home of the pad/truncate rule:
/// PrepareGraph, the serving engine's snapshot refill and the explanation
/// scorer (which propagates X rows itself) all call it.
void FillPreparedInput(const InteractionGraph& g, const GnnConfig& config,
                       PreparedGraph* p, Matrix* raw);

/// \brief GCN's D^-1/2 factor: 1/sqrt(d) for a node whose closed
/// neighbourhood (self loop included) has \p closed_degree members.
double GcnDegreeScale(size_t closed_degree);

/// \brief GCN's propagation entry (D^-1/2 (A + I) D^-1/2)(i, j) from the
/// two nodes' GcnDegreeScale factors: one rounded product. The one home of
/// the rule: PrepareGraph's propagation matrix (GCN and MAGNN) and the
/// explanation scorer's subset rows both compute their values here.
inline double GcnPropagationValue(double scale_i, double scale_j) {
  return scale_i * scale_j;
}

/// \brief Activation/pre-activation caches recorded by a forward pass,
/// consumed by Backward(). Every forward records into one: Forward into
/// the cache its caller passes (training keeps one per graph of a
/// contrastive pair), every other forward into its workspace's own.
/// Matrices are resized in place on reuse, so a cache bound repeatedly
/// stops allocating once it has seen its peak graph size. A batch of B
/// graphs records the stacked rows of all B (Backward reads only
/// one-graph caches, B = 1).
struct ForwardCache {
  /// The graph of the last Forward through this cache (Backward's input).
  const PreparedGraph* graph = nullptr;
  std::vector<Matrix> pre;    ///< pre-activation per layer
  /// prop[k] is P H, the propagated input of message-passing layer
  /// first_mp + k, which Backward reads for that layer's weight gradient.
  /// For GCN/GIN, prop[0] is left empty — P X is the prepared graph's
  /// input, read in place rather than copied per call.
  std::vector<Matrix> prop;
  Matrix pooled;  ///< B x 2*hidden [mean | max] readout, one row per graph
  /// Stacked row index of the max per graph and hidden dim (B x hidden).
  std::vector<size_t> argmax;
  std::vector<double> embedding;  ///< Forward's result
};

/// \brief Reusable scratch for every forward and backward.
///
/// One workspace per concurrently-forwarding worker (they must not be
/// shared across threads mid-call). Every matrix grows to its peak shape
/// and is then reused; after this warmup, Forward/Backward perform zero
/// heap allocations per graph. Its cache records the forwards whose
/// caller passes none (inference: embedding extraction, ForwardBatch,
/// serving, the explanation scorer). The workspace keeps only the
/// current activation and the readout; everything Backward reads lands
/// in the cache.
struct GnnWorkspace {
  ForwardCache cache;  ///< used when the caller passes no cache of its own
  Matrix h;            ///< current layer activation H, every stacked row
  Matrix emb;          ///< B x embedding_dim readout, one row per graph
  // Backward scratch.
  Matrix demb, dpooled, dh, dz, tmp, gw, gb;
};

/// \brief A batch of prepared graphs stacked for one block-diagonal
/// forward pass: `stacked` is itself a valid PreparedGraph whose
/// propagation CSR is the block-diagonal of the member graphs and whose
/// input and hetero feature matrices are their row-wise concatenation, so
/// the existing per-node input projection and SpMM propagation run on it
/// unchanged (a GCN/GIN member's P X rows are exactly the block-diagonal
/// product's rows for that block).
/// `row_offsets` (B+1 entries) maps graph b to stacked rows
/// [row_offsets[b], row_offsets[b+1]).
struct GraphBatch {
  PreparedGraph stacked;
  std::vector<size_t> row_offsets;
  size_t size() const {
    return row_offsets.empty() ? 0 : row_offsets.size() - 1;
  }
};

/// \brief Assembles \p graphs into \p out for ForwardBatch. All graphs
/// must be non-empty and prepared under the same \p config. \p out's buffers are reused across
/// calls — after warmup, assembly performs no heap allocation beyond the
/// CSR concatenation.
void AssembleGraphBatch(const std::vector<const PreparedGraph*>& graphs,
                        const GnnConfig& config, GraphBatch* out);

/// \brief Graph neural network with explicit manual backpropagation, a
/// [mean | max] pooling readout (max pooling preserves the few-node
/// vulnerability witnesses that mean pooling dilutes in large graphs) and
/// a linear projection head producing the graph embedding used by the
/// contrastive loss (Section III-B1).
///
/// Parameters are organized into indexed *layers* so the layer-wise
/// clustered federated aggregation (Algorithm 1) can exchange them layer
/// by layer: layer 0 is the input projection(s), layers 1..L are
/// message-passing layers, layer L+1 is the readout projection.
class GnnModel {
 public:
  explicit GnnModel(const GnnConfig& config);

  const GnnConfig& config() const { return config_; }

  /// Number of parameter layers (for layer-wise FL exchange).
  int num_layers() const { return static_cast<int>(layers_.size()); }

  /// \brief Forward pass producing the graph embedding; records caches for
  /// Backward when \p cache is non-null. Allocates its own scratch.
  std::vector<double> Forward(const PreparedGraph& g,
                              ForwardCache* cache) const;

  /// \brief Workspace forward: ForwardFirstLayer then ForwardRest on \p g
  /// as a batch of one. Scratch comes from \p ws (its cache is used when
  /// \p cache is null), and the returned reference aliases the effective
  /// cache's embedding — valid until the next forward through that cache.
  /// Bit-identical to the allocating overload; performs no heap
  /// allocation once the workspace and cache are warm.
  const std::vector<double>& Forward(const PreparedGraph& g,
                                     ForwardCache* cache,
                                     GnnWorkspace* ws) const;

  /// \brief Batched block-diagonal inference: ForwardFirstLayer on the
  /// stacked graph, then ForwardRest, recorded in ws->cache; \p embeddings
  /// is resized to the batch size. Embedding b is bit-identical to
  /// Forward(*graphs[b], ...): the stacked CSR preserves each output row's
  /// accumulation order, every dense product computes each row on its own
  /// (docs/KERNELS.md §3), and each graph's readout pools only its rows.
  void ForwardBatch(const GraphBatch& batch, GnnWorkspace* ws,
                    std::vector<std::vector<double>>* embeddings) const;

  /// \brief The first half of every forward: parameter layer 0 on every
  /// row of \p g into ws->h, its pre-activation into cache->pre[0]. That
  /// is relu((P X) W0 + b0) for GCN/GIN and the per-space input projection
  /// for MAGNN. Row r of ws->h depends only on row r of g's inputs (its
  /// P X row; for MAGNN its X or hetero row and its space): the dense
  /// kernel computes each element as its own chain over ascending k
  /// (docs/KERNELS.md §3), bias and ReLU are element-wise, and the
  /// projection runs node by node. So a row computed in any batch, at any
  /// position, has the same bits; the explanation scorer caches rows on
  /// that basis.
  void ForwardFirstLayer(const PreparedGraph& g, ForwardCache* cache,
                         GnnWorkspace* ws) const;

  /// \brief The second half of every forward. On entry ws->h holds the
  /// first-layer activations of a block-diagonal batch whose stacked
  /// propagation matrix is \p prop and whose graph b owns rows
  /// [row_offsets[b], row_offsets[b+1]) (every block non-empty). Runs the
  /// remaining message-passing layers, recording each one's P H and
  /// pre-activation in \p cache, then the per-graph [mean | max] readout
  /// (cache->pooled row b, cache->argmax) and the readout projection:
  /// row b of ws->emb is graph b's embedding.
  void ForwardRest(const CsrMatrix& prop, std::span<const size_t> row_offsets,
                   ForwardCache* cache, GnnWorkspace* ws) const;

  /// \brief Accumulates parameter gradients given dL/d(embedding).
  void Backward(const ForwardCache& cache,
                const std::vector<double>& grad_embedding);

  /// \brief Workspace backward (same contract as the workspace forward).
  /// Only ws's backward scratch is touched, so the ws may be the one whose
  /// cache recorded the forward.
  void Backward(const ForwardCache& cache,
                const std::vector<double>& grad_embedding, GnnWorkspace* ws);

  /// Zeroes accumulated gradients.
  void ZeroGrad();
  /// SGD step over accumulated gradients (scaled by 1/batch), then zeroes.
  void ApplyGrads(double learning_rate, double batch_size,
                  double weight_decay = 0.0);

  /// \brief Flattened parameters of layer \p l (concatenated matrices).
  std::vector<double> GetLayerFlat(int l) const;
  /// \brief Flattened accumulated gradients of layer \p l (testing /
  /// diagnostics; unscaled, as accumulated by Backward).
  std::vector<double> GetLayerGradFlat(int l) const;
  /// \brief Restores layer \p l from a flat vector (size must match).
  void SetLayerFlat(int l, const std::vector<double>& flat);
  /// Parameter count of layer \p l.
  size_t LayerSize(int l) const;
  /// Total parameter count.
  size_t TotalParams() const;

  /// Serialized byte size of one layer (doubles; used for the Figure 7
  /// communication accounting).
  size_t LayerBytes(int l) const { return LayerSize(l) * sizeof(double); }

 private:
  /// One parameter layer: a list of (matrix, gradient) pairs. MAGNN's
  /// input layer holds two projections; all other layers hold W and b.
  struct Layer {
    std::vector<Matrix> params;
    std::vector<Matrix> grads;
  };

  /// Sizes \p cache's per-layer vectors for this model.
  void ShapeCache(ForwardCache* cache) const;
  void InputProjectionInto(const PreparedGraph& g, Matrix* pre,
                           Matrix* post) const;

  GnnConfig config_;
  std::vector<Layer> layers_;
};

}  // namespace fexiot
