#include "graph/interaction_graph.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>
#include <sstream>

#include "nlp/embeddings.h"

namespace fexiot {

int InteractionGraph::AddNode(GraphNode node) {
  nodes_.push_back(std::move(node));
  out_adj_.emplace_back();
  in_adj_.emplace_back();
  return static_cast<int>(nodes_.size()) - 1;
}

void InteractionGraph::AddEdge(int u, int v) {
  assert(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes());
  if (u == v || HasEdge(u, v)) return;
  edges_.emplace_back(u, v);
  out_adj_[static_cast<size_t>(u)].push_back(v);
  in_adj_[static_cast<size_t>(v)].push_back(u);
}

void InteractionGraph::RemoveEdge(int u, int v) {
  assert(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes());
  const auto it = std::find(edges_.begin(), edges_.end(), std::make_pair(u, v));
  if (it == edges_.end()) return;
  edges_.erase(it);
  auto& out = out_adj_[static_cast<size_t>(u)];
  out.erase(std::find(out.begin(), out.end(), v));
  auto& in = in_adj_[static_cast<size_t>(v)];
  in.erase(std::find(in.begin(), in.end(), u));
}

const std::vector<int>& InteractionGraph::OutNeighbors(int u) const {
  return out_adj_[static_cast<size_t>(u)];
}

const std::vector<int>& InteractionGraph::InNeighbors(int u) const {
  return in_adj_[static_cast<size_t>(u)];
}

std::vector<int> InteractionGraph::UndirectedNeighbors(int u) const {
  std::set<int> s(out_adj_[static_cast<size_t>(u)].begin(),
                  out_adj_[static_cast<size_t>(u)].end());
  s.insert(in_adj_[static_cast<size_t>(u)].begin(),
           in_adj_[static_cast<size_t>(u)].end());
  return std::vector<int>(s.begin(), s.end());
}

bool InteractionGraph::HasEdge(int u, int v) const {
  const auto& nbrs = out_adj_[static_cast<size_t>(u)];
  return std::find(nbrs.begin(), nbrs.end(), v) != nbrs.end();
}

bool InteractionGraph::IsHeterogeneous() const {
  if (nodes_.empty()) return false;
  const size_t dim = nodes_.front().features.size();
  for (const auto& n : nodes_) {
    if (n.features.size() != dim) return true;
  }
  return false;
}

Matrix InteractionGraph::FeatureMatrix() const {
  assert(!nodes_.empty());
  const size_t dim = nodes_.front().features.size();
  Matrix x(nodes_.size(), dim);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    assert(nodes_[i].features.size() == dim &&
           "FeatureMatrix requires homogeneous feature dims");
    x.SetRow(i, nodes_[i].features);
  }
  return x;
}

Matrix InteractionGraph::NormalizedAdjacency() const {
  const size_t n = nodes_.size();
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) a.At(i, i) = 1.0;  // self loops
  for (const auto& [u, v] : edges_) {
    a.At(static_cast<size_t>(u), static_cast<size_t>(v)) = 1.0;
    a.At(static_cast<size_t>(v), static_cast<size_t>(u)) = 1.0;
  }
  std::vector<double> dinv(n);
  for (size_t i = 0; i < n; ++i) {
    double deg = 0.0;
    for (size_t j = 0; j < n; ++j) deg += a.At(i, j);
    dinv[i] = deg > 0.0 ? 1.0 / std::sqrt(deg) : 0.0;
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      a.At(i, j) *= dinv[i] * dinv[j];
    }
  }
  return a;
}

InteractionGraph InteractionGraph::InducedSubgraph(
    const std::vector<int>& node_ids) const {
  InteractionGraph sub;
  std::vector<int> remap(nodes_.size(), -1);
  for (int id : node_ids) {
    assert(id >= 0 && id < num_nodes());
    remap[static_cast<size_t>(id)] = sub.AddNode(nodes_[static_cast<size_t>(id)]);
  }
  for (const auto& [u, v] : edges_) {
    const int nu = remap[static_cast<size_t>(u)];
    const int nv = remap[static_cast<size_t>(v)];
    if (nu >= 0 && nv >= 0) sub.AddEdge(nu, nv);
  }
  sub.label_ = label_;
  sub.vulnerability_ = vulnerability_;
  sub.attack_ = attack_;
  sub.has_attack_ = has_attack_;
  return sub;
}

bool InteractionGraph::IsConnectedSubset(
    const std::vector<int>& node_ids) const {
  if (node_ids.empty()) return false;
  if (node_ids.size() == 1) return true;
  // One flat mark per node: 0 outside the subset, 1 a member not yet
  // reached, 2 reached. Edges are walked in both directions straight off
  // the adjacency lists.
  std::vector<unsigned char> mark(nodes_.size(), 0);
  size_t members = 0;
  for (int v : node_ids) {
    unsigned char& m = mark[static_cast<size_t>(v)];
    if (m == 0) {
      m = 1;
      ++members;
    }
  }
  std::vector<int> stack = {node_ids.front()};
  mark[static_cast<size_t>(node_ids.front())] = 2;
  size_t reached = 1;
  while (!stack.empty()) {
    const size_t u = static_cast<size_t>(stack.back());
    stack.pop_back();
    for (const std::vector<int>* adj : {&out_adj_[u], &in_adj_[u]}) {
      for (int v : *adj) {
        unsigned char& m = mark[static_cast<size_t>(v)];
        if (m == 1) {
          m = 2;
          ++reached;
          stack.push_back(v);
        }
      }
    }
  }
  return reached == members;
}

std::vector<std::vector<int>> InteractionGraph::ConnectedComponents() const {
  std::vector<std::vector<int>> comps;
  std::vector<bool> seen(nodes_.size(), false);
  for (int start = 0; start < num_nodes(); ++start) {
    if (seen[static_cast<size_t>(start)]) continue;
    std::vector<int> comp;
    std::vector<int> stack = {start};
    seen[static_cast<size_t>(start)] = true;
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      comp.push_back(u);
      for (int v : UndirectedNeighbors(u)) {
        if (!seen[static_cast<size_t>(v)]) {
          seen[static_cast<size_t>(v)] = true;
          stack.push_back(v);
        }
      }
    }
    std::sort(comp.begin(), comp.end());
    comps.push_back(std::move(comp));
  }
  return comps;
}

bool InteractionGraph::HasDirectedCycle() const {
  enum { kWhite, kGray, kBlack };
  std::vector<int> color(nodes_.size(), kWhite);
  // Iterative DFS with explicit stack of (node, next-neighbor-index).
  for (int start = 0; start < num_nodes(); ++start) {
    if (color[static_cast<size_t>(start)] != kWhite) continue;
    std::vector<std::pair<int, size_t>> stack = {{start, 0}};
    color[static_cast<size_t>(start)] = kGray;
    while (!stack.empty()) {
      auto& [u, idx] = stack.back();
      const auto& nbrs = out_adj_[static_cast<size_t>(u)];
      if (idx < nbrs.size()) {
        const int v = nbrs[idx++];
        if (color[static_cast<size_t>(v)] == kGray) return true;
        if (color[static_cast<size_t>(v)] == kWhite) {
          color[static_cast<size_t>(v)] = kGray;
          stack.emplace_back(v, 0);
        }
      } else {
        color[static_cast<size_t>(u)] = kBlack;
        stack.pop_back();
      }
    }
  }
  return false;
}

std::string InteractionGraph::ToString() const {
  std::ostringstream os;
  os << "InteractionGraph(nodes=" << num_nodes() << ", edges=" << num_edges()
     << ", label=" << label_ << ", vuln=" << VulnerabilityTypeName(vulnerability_)
     << ")\n";
  for (int i = 0; i < num_nodes(); ++i) {
    os << "  [" << i << "] (" << PlatformName(nodes_[static_cast<size_t>(i)].rule.platform)
       << ") " << nodes_[static_cast<size_t>(i)].rule.description << "\n";
  }
  for (const auto& [u, v] : edges_) os << "  " << u << " -> " << v << "\n";
  return os.str();
}

void AugmentRelationalFeatures(InteractionGraph* g, double noise, Rng* rng) {
  const int n = g->num_nodes();
  // Sibling sets: nodes sharing a parent, or sharing the same trigger.
  std::vector<std::set<int>> siblings(static_cast<size_t>(n));
  for (int p = 0; p < n; ++p) {
    const auto& children = g->OutNeighbors(p);
    for (size_t i = 0; i < children.size(); ++i) {
      for (size_t j = i + 1; j < children.size(); ++j) {
        siblings[static_cast<size_t>(children[i])].insert(children[j]);
        siblings[static_cast<size_t>(children[j])].insert(children[i]);
      }
    }
  }
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (g->node(a).rule.trigger == g->node(b).rule.trigger) {
        siblings[static_cast<size_t>(a)].insert(b);
        siblings[static_cast<size_t>(b)].insert(a);
      }
    }
  }

  auto actions_of = [&](int v) -> const std::vector<Action>& {
    return g->node(v).rule.actions;
  };

  for (int v = 0; v < n; ++v) {
    double r0 = 0.0, r1 = 0.0, r2 = 0.0, r3 = 0.0;
    // r0: condition-block relation — this rule drives some deployed
    // rule's (actuatable) trigger device to the opposite state, or its own
    // trigger is blocked by another rule.
    for (int u = 0; u < n && r0 == 0.0; ++u) {
      if (u == v) continue;
      const Trigger& tu = g->node(u).rule.trigger;
      if (!GetDeviceTypeInfo(tu.device).is_sensor) {
        for (const auto& x : actions_of(v)) {
          if (x.device == tu.device && x.state != tu.state &&
              x.state == OppositeState(tu.device, tu.state)) {
            r0 = 1.0;
          }
        }
      }
      const Trigger& tv = g->node(v).rule.trigger;
      if (!GetDeviceTypeInfo(tv.device).is_sensor) {
        for (const auto& y : actions_of(u)) {
          if (y.device == tv.device && y.state != tv.state &&
              y.state == OppositeState(tv.device, tv.state)) {
            r0 = 1.0;
          }
        }
      }
    }
    for (int s : siblings[static_cast<size_t>(v)]) {
      for (const auto& x : actions_of(v)) {
        for (const auto& y : actions_of(s)) {
          if (x.device != y.device) continue;
          if (x.state == y.state) {
            r1 = 1.0;
          } else {
            r2 = 1.0;
          }
        }
      }
    }
    // Descendants within 3 hops reverting one of v's actions.
    std::set<int> frontier = {v};
    std::set<int> seen = {v};
    for (int hop = 0; hop < 3 && r3 == 0.0; ++hop) {
      std::set<int> next;
      for (int u : frontier) {
        for (int w : g->OutNeighbors(u)) {
          if (seen.count(w)) continue;
          seen.insert(w);
          next.insert(w);
          for (const auto& x : actions_of(v)) {
            for (const auto& y : actions_of(w)) {
              if (x.device == y.device && x.state != y.state) r3 = 1.0;
            }
          }
        }
      }
      frontier = std::move(next);
    }
    auto& f = g->mutable_node(v).features;
    if (f.size() < static_cast<size_t>(kExtraFeatureDims)) continue;
    const size_t base = f.size() - kExtraFeatureDims;
    f[base + 0] = r0;
    f[base + 1] = r1;
    f[base + 2] = r2;
    f[base + 3] = r3;
    if (rng != nullptr) {
      // NLP extraction error: each relational indicator flips w.p. noise.
      for (size_t k = 0; k < 4; ++k) {
        if (noise > 0.0 && rng->Bernoulli(noise)) {
          f[base + k] = 1.0 - f[base + k];
        }
      }
    }
  }
}

int PlatformFeatureDim(Platform platform) {
  switch (platform) {
    case Platform::kGoogleAssistant:
    case Platform::kAlexa:
      return kHeteroFeatureDim;
    default:
      return kHomoFeatureDim;
  }
}

std::vector<double> RuleTextEmbedding(const Rule& rule) {
  if (PlatformFeatureDim(rule.platform) == kHeteroFeatureDim) {
    return SentenceEncoder::Encode(rule.description);
  }
  return TriggerActionPairEmbedding(rule.trigger_text, rule.action_text);
}

void SetTimeOfDayDims(double event_time, std::vector<double>* features) {
  std::vector<double>& f = *features;
  double sin_dim = 0.0, cos_dim = 0.0;
  if (event_time >= 0.0) {
    const double day_frac = std::fmod(event_time, 86400.0) / 86400.0;
    sin_dim = std::sin(2.0 * M_PI * day_frac);
    cos_dim = std::cos(2.0 * M_PI * day_frac);
  }
  f[f.size() - 4] = sin_dim;
  f[f.size() - 3] = cos_dim;
}

std::vector<double> ComputeNodeFeatures(const Rule& rule, double event_time) {
  // Append the extra dims: 4 relational slots (filled by
  // AugmentRelationalFeatures) then 4 time/consistency dims — sin/cos of
  // time-of-day plus two causal-consistency slots (see graph/fusion.h).
  // The consistency slots store an AMPLIFIED DEVIATION from full
  // consistency (0 = consistent, more negative = more tampering evidence)
  // so the few anomaly dims carry weight against the ~300 text dims in
  // embedding distances; offline graphs keep all four at zero.
  std::vector<double> out = RuleTextEmbedding(rule);
  out.resize(out.size() + kExtraFeatureDims, 0.0);
  SetTimeOfDayDims(event_time, &out);
  return out;
}

}  // namespace fexiot
