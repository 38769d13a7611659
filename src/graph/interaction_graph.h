#pragma once

#include <string>
#include <vector>

#include "smarthome/rule.h"
#include "smarthome/vulnerability.h"
#include "tensor/matrix.h"

namespace fexiot {

/// Number of extra feature dims appended to the text embedding:
/// 4 relational dims (pairwise rule-correlation summaries, Section III-A1
/// style) followed by 4 time/consistency dims (time-of-day sin/cos and the
/// two causal-consistency scores mined by data fusion).
constexpr int kExtraFeatureDims = 8;
/// Node feature dimensionality for word-embedding platforms
/// (SmartThings / Home Assistant / IFTTT): 300-d Eq. 1 pair embedding plus
/// the extra dims.
constexpr int kHomoFeatureDim = 300 + kExtraFeatureDims;
/// Node feature dimensionality for sentence-encoder platforms
/// (Google Assistant / Alexa): 512-d sentence embedding plus extras.
constexpr int kHeteroFeatureDim = 512 + kExtraFeatureDims;

/// \brief One node of an interaction graph: an automation rule with its
/// embedded features (Definition 1).
struct GraphNode {
  /// The structured rule behind this node (carried for ground-truth
  /// checking and explanation rendering; a real deployment would have only
  /// the description).
  Rule rule;
  /// Node feature vector; size is kHomoFeatureDim or kHeteroFeatureDim
  /// depending on the rule's platform.
  std::vector<double> features;
  /// Seconds-of-day of the node's most recent firing (online graphs only).
  double event_time = -1.0;
};

/// \brief Directed interaction graph over automation rules. Edges are
/// "action-trigger" correlations: u -> v means executing u's actions fires
/// v's trigger.
class InteractionGraph {
 public:
  InteractionGraph() = default;

  int AddNode(GraphNode node);
  /// Adds edge u -> v (no-op if it already exists or u == v).
  void AddEdge(int u, int v);
  /// Removes edge u -> v (no-op if absent). Used by the streaming serving
  /// layer when an interaction correlation ages out of its active window.
  void RemoveEdge(int u, int v);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  const GraphNode& node(int i) const { return nodes_[static_cast<size_t>(i)]; }
  GraphNode& mutable_node(int i) { return nodes_[static_cast<size_t>(i)]; }
  const std::vector<std::pair<int, int>>& edges() const { return edges_; }

  /// Out-neighbors of node \p u.
  const std::vector<int>& OutNeighbors(int u) const;
  /// In-neighbors of node \p u.
  const std::vector<int>& InNeighbors(int u) const;
  /// Undirected neighbor list (union of in and out, deduplicated).
  std::vector<int> UndirectedNeighbors(int u) const;

  bool HasEdge(int u, int v) const;

  /// \brief Binary vulnerability label (Definition 2).
  int label() const { return label_; }
  void set_label(int label) { label_ = label; }

  /// Primary planted/detected vulnerability type (kNone when benign).
  VulnerabilityType vulnerability() const { return vulnerability_; }
  void set_vulnerability(VulnerabilityType v) { vulnerability_ = v; }

  /// External attack present in this (online) graph, if any.
  AttackType attack() const { return attack_; }
  bool has_attack() const { return has_attack_; }
  void set_attack(AttackType a) {
    attack_ = a;
    has_attack_ = true;
  }

  /// Ground-truth witness node ids of the vulnerability (explanation
  /// target; empty for benign graphs).
  const std::vector<int>& witness() const { return witness_; }
  void set_witness(std::vector<int> w) { witness_ = std::move(w); }

  /// True if the graph mixes feature spaces (multi-platform).
  bool IsHeterogeneous() const;

  /// \brief Node features stacked as a num_nodes x dim matrix. All nodes
  /// must share one dimensionality (pad or project first for hetero
  /// graphs); asserts otherwise.
  Matrix FeatureMatrix() const;

  /// \brief Symmetrically normalized adjacency with self loops,
  /// D^-1/2 (A + I) D^-1/2 over the undirected skeleton (GCN propagation).
  Matrix NormalizedAdjacency() const;

  /// \brief Node-induced subgraph; labels/metadata are copied,
  /// \p node_ids order defines new node ids. The explanation scorer's
  /// masking is defined by it, and the tests use it as that oracle; the
  /// scorer itself never copies a subgraph (docs/EXPLAIN.md §3).
  InteractionGraph InducedSubgraph(const std::vector<int>& node_ids) const;

  /// \brief True if the undirected skeleton of the node subset is
  /// connected (false for the empty subset). Walks the adjacency lists
  /// with one flat mark per node; the explanation search calls it once
  /// per candidate pruning.
  bool IsConnectedSubset(const std::vector<int>& node_ids) const;

  /// \brief Connected components of the undirected skeleton.
  std::vector<std::vector<int>> ConnectedComponents() const;

  /// \brief True if the directed graph contains a cycle.
  bool HasDirectedCycle() const;

  /// \brief Short multi-line rendering (node descriptions + edges).
  std::string ToString() const;

 private:
  std::vector<GraphNode> nodes_;
  std::vector<std::pair<int, int>> edges_;
  std::vector<std::vector<int>> out_adj_;
  std::vector<std::vector<int>> in_adj_;
  int label_ = 0;
  VulnerabilityType vulnerability_ = VulnerabilityType::kNone;
  AttackType attack_ = AttackType::kFakeEvent;
  bool has_attack_ = false;
  std::vector<int> witness_;
};

/// \brief Computes a node's feature vector per the paper: Eq. 1 trigger-
/// action pair embedding (word platforms) or sentence embedding (voice
/// platforms), with the trailing time dims encoding \p event_time (seconds
/// of day; negative = offline, zeros). The 4 relational dims are zero
/// until AugmentRelationalFeatures fills them.
std::vector<double> ComputeNodeFeatures(const Rule& rule, double event_time);

/// \brief The text half of ComputeNodeFeatures: the Eq. 1 pair embedding
/// of the rule's trigger and action texts (word platforms) or the
/// sentence embedding of its description (voice platforms). A pure
/// function of that text and the platform's feature space.
std::vector<double> RuleTextEmbedding(const Rule& rule);

/// \brief Overwrites the two time-of-day dims of a full node feature
/// vector as ComputeNodeFeatures sets them for \p event_time (zeros when
/// it is negative).
void SetTimeOfDayDims(double event_time, std::vector<double>* features);

/// \brief Fills each node's 4 relational feature dims from the parsed
/// trigger-action structures of its graph neighborhood:
///   r0: max action-device overlap with any sibling (co-triggered rule);
///   r1: 1 if a sibling issues the identical (device, state) action;
///   r2: 1 if a sibling drives a shared device to a *different* state;
///   r3: 1 if a descendant within 3 hops reverts one of this rule's
///       actions (same device, different state).
/// These summarize the same pairwise rule-correlation features the
/// Figure 3 classifiers consume; computing them from the structured rules
/// is equivalent to running the (98%-accurate, Fig. 3) NLP extraction.
/// \p noise models that extraction error: each relational dim is flipped
/// with this probability (0 disables; requires \p rng when > 0).
void AugmentRelationalFeatures(InteractionGraph* g, double noise = 0.0,
                               Rng* rng = nullptr);

/// \brief Feature dimensionality used by \p platform.
int PlatformFeatureDim(Platform platform);

}  // namespace fexiot
