// Golden-statistics harness for corpus generation regression tests.
//
// The stream-split parallel corpus generator deliberately changed corpus
// content relative to the serial seed; what must stay stable from now on
// are (a) bit-identity across thread counts / schedules for a pinned seed
// and (b) the distributional shape of the corpora. This header provides
// the three tools the harness needs:
//
//   * CorpusFingerprint / FederatedCorpusFingerprint — order-sensitive
//     64-bit FNV-1a digests over every byte of content (rule text,
//     feature-vector bit patterns, edges, labels, witnesses), used for
//     exact thread-count parity checks;
//   * ComputeGoldenStats — per-platform distributional invariants
//     (node/edge counts, label balance, vulnerability-type histogram,
//     Dirichlet partition skew) as a flat name -> value map;
//   * ReadGoldenBaseline / WriteGoldenJson — a checked-in JSON baseline
//     of {name: [value, tolerance]} entries. Regenerate with
//     FEXIOT_UPDATE_GOLDEN=1 (see test_corpus_determinism.cc).

#pragma once

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "graph/corpus.h"
#include "graph/dataset.h"
#include "graph/interaction_graph.h"

namespace fexiot {
namespace golden {

// --- Bit-exact fingerprints -------------------------------------------------
// The digests themselves live in the graph library (CorpusContentFingerprint
// in graph/corpus.h) so bench_corpus shares them; these aliases keep the
// test-side vocabulary.

inline uint64_t CorpusFingerprint(const std::vector<InteractionGraph>& graphs) {
  return CorpusContentFingerprint(graphs);
}

inline uint64_t FederatedCorpusFingerprint(const FederatedCorpus& corpus) {
  return FederatedCorpusContentFingerprint(corpus);
}

// --- Distributional statistics ----------------------------------------------

using StatsMap = std::map<std::string, double>;

/// Flat distributional summary of a labeled corpus. Keys are stable; the
/// checked-in baseline pins every key with a per-key tolerance.
inline StatsMap ComputeGoldenStats(const std::vector<InteractionGraph>& graphs) {
  StatsMap s;
  const double n = static_cast<double>(graphs.size());
  s["total_graphs"] = n;
  if (graphs.empty()) return s;
  double nodes_sum = 0.0, edges_sum = 0.0, vuln = 0.0;
  double nodes_min = 1e300, nodes_max = 0.0;
  std::map<int, double> vuln_hist;        // planted type -> count
  std::map<int, double> platform_nodes;   // platform -> node count
  double total_nodes = 0.0;
  for (const auto& g : graphs) {
    nodes_sum += g.num_nodes();
    edges_sum += g.num_edges();
    nodes_min = std::min(nodes_min, static_cast<double>(g.num_nodes()));
    nodes_max = std::max(nodes_max, static_cast<double>(g.num_nodes()));
    if (g.label() == 1) {
      vuln += 1.0;
      vuln_hist[static_cast<int>(g.vulnerability())] += 1.0;
    }
    for (int i = 0; i < g.num_nodes(); ++i) {
      platform_nodes[static_cast<int>(g.node(i).rule.platform)] += 1.0;
      total_nodes += 1.0;
    }
  }
  s["vulnerable_fraction"] = vuln / n;
  s["nodes_avg"] = nodes_sum / n;
  s["nodes_min"] = nodes_min;
  s["nodes_max"] = nodes_max;
  s["edges_avg"] = edges_sum / n;
  for (int t = 0; t <= static_cast<int>(kNumInternalVulnerabilities); ++t) {
    s["vuln_type_frac_" + std::to_string(t)] =
        vuln > 0.0 ? vuln_hist[t] / vuln : 0.0;
  }
  for (const auto& [p, c] : platform_nodes) {
    s["platform_node_frac_" + std::to_string(p)] = c / total_nodes;
  }
  return s;
}

/// Adds partition-skew statistics of a federated corpus under a "fed_"
/// prefix: client shard-size coefficient of variation (the Dirichlet
/// skew), mean absolute per-client label-balance deviation, and test-pool
/// class balance.
inline void AddFederatedStats(const FederatedCorpus& corpus, StatsMap* s) {
  const auto& shards = corpus.partition.indices;
  const double k = static_cast<double>(shards.size());
  (*s)["fed_num_clients"] = k;
  (*s)["fed_num_clusters"] = static_cast<double>(corpus.cluster_tests.size());
  if (shards.empty()) return;
  double size_sum = 0.0, size_sq = 0.0;
  const double global_vuln = corpus.data.VulnerableFraction();
  double label_dev = 0.0;
  for (const auto& shard : shards) {
    const double sz = static_cast<double>(shard.size());
    size_sum += sz;
    size_sq += sz * sz;
    double sv = 0.0;
    for (size_t i : shard) sv += corpus.data.graph(i).label();
    const double frac = shard.empty() ? 0.0 : sv / sz;
    label_dev += std::fabs(frac - global_vuln);
  }
  const double mean = size_sum / k;
  const double var = size_sq / k - mean * mean;
  (*s)["fed_partition_size_cv"] =
      mean > 0.0 ? std::sqrt(std::max(0.0, var)) / mean : 0.0;
  (*s)["fed_partition_label_dev"] = label_dev / k;
  double test_vuln = 0.0, test_n = 0.0;
  for (const auto& pool : corpus.cluster_tests) {
    for (const auto& g : pool.graphs()) {
      test_vuln += g.label();
      test_n += 1.0;
    }
  }
  (*s)["fed_test_pool_size"] = test_n;
  (*s)["fed_test_vulnerable_fraction"] =
      test_n > 0.0 ? test_vuln / test_n : 0.0;
}

// --- JSON baseline I/O ------------------------------------------------------

struct GoldenEntry {
  double value = 0.0;
  double tolerance = 0.0;
};

using GoldenBaseline = std::map<std::string, GoldenEntry>;

/// Parses the flat golden baseline: every line of the form
///   "name": [value, tolerance]
/// is one entry; everything else is ignored. Returns false if the file
/// cannot be read or contains no entries.
inline bool ReadGoldenBaseline(const std::string& path, GoldenBaseline* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const size_t q1 = line.find('"');
    if (q1 == std::string::npos) continue;
    const size_t q2 = line.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    const size_t br = line.find('[', q2);
    if (br == std::string::npos) continue;
    const std::string name = line.substr(q1 + 1, q2 - q1 - 1);
    GoldenEntry e;
    char comma = 0;
    std::istringstream vals(line.substr(br + 1));
    if (!(vals >> e.value >> comma >> e.tolerance) || comma != ',') continue;
    (*out)[name] = e;
  }
  return !out->empty();
}

/// Writes stats as a golden baseline, attaching the tolerance that
/// \p tolerance_for returns per key.
template <typename TolFn>
bool WriteGoldenJson(const std::string& path, const StatsMap& stats,
                     const TolFn& tolerance_for) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"baseline\": \"corpus-golden-stats\",\n";
  out << "  \"regenerate\": \"FEXIOT_UPDATE_GOLDEN=1 ./test_corpus_determinism\",\n";
  out << "  \"stats\": {\n";
  size_t i = 0;
  for (const auto& [name, value] : stats) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "    \"%s\": [%.9g, %.9g]%s\n",
                  name.c_str(), value, tolerance_for(name),
                  ++i < stats.size() ? "," : "");
    out << buf;
  }
  out << "  }\n}\n";
  return true;
}

}  // namespace golden
}  // namespace fexiot
