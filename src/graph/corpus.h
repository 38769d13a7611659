#pragma once

#include <vector>

#include "common/rng.h"
#include "graph/dataset.h"
#include "graph/interaction_graph.h"
#include "smarthome/platform.h"

namespace fexiot {

/// \brief Options for offline interaction-graph corpus generation.
struct CorpusOptions {
  /// Platforms rules are drawn from. {kIfttt} reproduces the homogeneous
  /// IFTTT dataset; all five platforms reproduce the heterogeneous one.
  std::vector<Platform> platforms = {Platform::kIfttt};
  int min_nodes = 2;
  int max_nodes = 50;
  /// Fraction of vulnerable graphs in labeled corpora (Table I: ~0.25 for
  /// IFTTT, ~0.30 for the heterogeneous dataset).
  double vulnerable_fraction = 0.25;
  /// Probability that each relational feature dim is flipped, modeling the
  /// ~2% per-pair NLP extraction error of Figure 3 compounded over the
  /// pairs a node participates in.
  double extraction_noise = 0.04;
};

/// \brief Generates labeled offline interaction-graph corpora
/// (Section III-A3: random chaining of "trigger-action" / "action-trigger"
/// pairs, plus planted vulnerability witnesses for the vulnerable class).
class GraphCorpusGenerator {
 public:
  GraphCorpusGenerator(CorpusOptions options, Rng* rng);

  /// \brief Generates a benign interaction graph: a random chained rule
  /// graph that the ground-truth checker certifies vulnerability-free
  /// (offending rules are repaired until clean).
  InteractionGraph GenerateBenign();

  /// \brief Generates a graph containing a planted witness of \p type
  /// (label 1, witness recorded).
  InteractionGraph GenerateVulnerable(VulnerabilityType type);

  /// \brief Generates \p count graphs with the configured vulnerable
  /// fraction; vulnerability types cycle uniformly.
  ///
  /// Parallel by stream splitting: the shared rng is consumed only for one
  /// Fork() and the final shuffle; graph i is generated from the fork's
  /// ForkAt(i) child by a worker generator, fanned out over parallel::For
  /// with results written by index. The corpus is therefore a pure
  /// function of (seed, call sequence) — bit-identical for every thread
  /// count and generation order (pinned by test_corpus_determinism).
  std::vector<InteractionGraph> GenerateDataset(int count);

  /// \brief Random vulnerability type (uniform over the six).
  VulnerabilityType SampleVulnerabilityType();

  /// \brief Generates a *drifting* sample: an interaction pattern outside
  /// the six known vulnerability classes (Section III-B3 / Figure 6), such
  /// as a long multi-hop action cycle, a dense conflicting hub, or a
  /// compound graph carrying several simultaneous witnesses. These land
  /// away from both class centroids in embedding space and should be
  /// flagged by the MAD detector.
  InteractionGraph GenerateDrifting();

  /// \brief Skews every platform generator's device vocabulary (see
  /// RuleGenerator::ApplyDeviceProfile).
  void ApplyDeviceProfile(uint64_t profile_seed, double strength);

 private:
  /// Grows a random chained graph of target size (no labels yet).
  InteractionGraph GrowRandomGraph(int target_nodes);
  /// Adds edges implied by ActionTriggersRule between every node pair.
  static void FinalizeEdges(InteractionGraph* g);
  /// Recomputes node features from rules (offline: no time info),
  /// including relational dims with the configured extraction noise.
  void ComputeFeatures(InteractionGraph* g);
  /// Mutates rules until the checker reports no findings. Returns false if
  /// the repair budget was exhausted.
  bool RepairToBenign(InteractionGraph* g);
  /// Injects a witness of \p type into \p g; returns witness node ids.
  std::vector<int> InjectVulnerability(InteractionGraph* g,
                                       VulnerabilityType type);

  RuleGenerator* RandomGenerator();

  CorpusOptions options_;
  Rng* rng_;
  std::vector<RuleGenerator> generators_;
  int vuln_type_cursor_ = 0;
  /// Device profiles applied so far, replayed onto the per-graph worker
  /// generators that parallel GenerateDataset spawns.
  std::vector<std::pair<uint64_t, double>> device_profiles_;
};

/// \brief Dataset statistics matching Table I of the paper.
struct CorpusStats {
  int total_graphs = 0;
  int vulnerable_graphs = 0;
  int min_nodes = 0;
  int max_nodes = 0;
  double avg_nodes = 0.0;
  double avg_edges = 0.0;
};

CorpusStats ComputeCorpusStats(const std::vector<InteractionGraph>& graphs);

/// \brief Order-sensitive 64-bit FNV-1a digest over every byte of corpus
/// content: rule text, feature-vector bit patterns, edges, labels,
/// vulnerability types, and witnesses. Two corpora fingerprint equal iff
/// they are bit-identical — the parity probe behind the thread-count
/// determinism tests and bench_corpus.
uint64_t CorpusContentFingerprint(const std::vector<InteractionGraph>& graphs);


/// \brief A federated corpus: the pooled training dataset, the client
/// partition that induced it, and one held-out test pool per latent
/// cluster (the 20% evaluation split of Section IV-C — drawn from the same
/// household-cluster distribution as the clients it evaluates, with the
/// corpus-wide vulnerable fraction).
struct FederatedCorpus {
  GraphDataset data;
  ClientPartition partition;
  std::vector<GraphDataset> cluster_tests;
};

/// \brief Builds the non-i.i.d. federated evaluation corpus of
/// Section IV-C: \p num_clusters latent household clusters, each with its
/// own device profile (covariate shift, strength \p profile_strength) and
/// preferred vulnerability types (concept shift); within a cluster,
/// samples spread over its clients with Dirichlet(\p alpha) label skew.
/// Test pools are class-balanced (50% vulnerable).
FederatedCorpus BuildClusteredFederatedCorpus(
    const CorpusOptions& base, int total_graphs, int num_clients,
    int num_clusters, double alpha, double profile_strength, Rng* rng);

/// \brief Extends CorpusContentFingerprint over a full federated corpus:
/// pooled data, client partition indices, cluster assignment, and every
/// per-cluster test pool.
uint64_t FederatedCorpusContentFingerprint(const FederatedCorpus& corpus);

/// \brief Shard-on-demand corpus API: materializes one client's corpus
/// shard without constructing anything for any other client.
///
/// The shard is generated from the ForkAt(client_id) child of a root
/// stream seeded with \p corpus_seed, with the client's latent-cluster
/// device profile (cluster = client_id % num_clusters, covariate shift of
/// \p profile_strength) applied — a pure function of (options, seed,
/// client_id). Materialize -> release -> rematerialize therefore yields
/// bit-identical content for any participation schedule and thread count
/// (pinned by test_scale), which is what lets the million-client scale
/// simulator hold only in-flight clients in memory.
std::vector<InteractionGraph> MaterializeClientShard(
    const CorpusOptions& base, uint64_t corpus_seed, uint64_t client_id,
    int graphs_per_client, int num_clusters, double profile_strength);

/// \brief CorpusContentFingerprint of MaterializeClientShard's output —
/// the rematerialization-identity probe used by the lazy-state tests.
uint64_t ClientShardFingerprint(const CorpusOptions& base,
                                uint64_t corpus_seed, uint64_t client_id,
                                int graphs_per_client, int num_clusters,
                                double profile_strength);

}  // namespace fexiot
