#include "graph/corpus.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "common/hash.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "graph/vuln_checker.h"

namespace fexiot {

GraphCorpusGenerator::GraphCorpusGenerator(CorpusOptions options, Rng* rng)
    : options_(std::move(options)), rng_(rng) {
  assert(!options_.platforms.empty());
  generators_.reserve(options_.platforms.size());
  for (Platform p : options_.platforms) generators_.emplace_back(p, rng);
}

RuleGenerator* GraphCorpusGenerator::RandomGenerator() {
  return &generators_[rng_->UniformInt(generators_.size())];
}

VulnerabilityType GraphCorpusGenerator::SampleVulnerabilityType() {
  const int t = 1 + static_cast<int>(rng_->UniformInt(
                        static_cast<uint64_t>(kNumInternalVulnerabilities)));
  return static_cast<VulnerabilityType>(t);
}

InteractionGraph GraphCorpusGenerator::GrowRandomGraph(int target_nodes) {
  InteractionGraph g;
  const int seed_count = std::max(1, target_nodes / 12);
  for (int s = 0; s < seed_count; ++s) {
    GraphNode node;
    node.rule = RandomGenerator()->Generate();
    g.AddNode(std::move(node));
  }
  while (g.num_nodes() < target_nodes) {
    // Extend from a random existing node's random action: the new rule's
    // trigger is fired by that action ("random chaining", Section III-A3).
    const int src = static_cast<int>(rng_->UniformInt(
        static_cast<uint64_t>(g.num_nodes())));
    const auto& actions = g.node(src).rule.actions;
    GraphNode node;
    if (!actions.empty() && rng_->Bernoulli(0.85)) {
      const Action& cause = actions[rng_->UniformInt(actions.size())];
      node.rule = RandomGenerator()->GenerateTriggeredBy(cause);
    } else {
      node.rule = RandomGenerator()->Generate();
    }
    g.AddNode(std::move(node));
  }
  FinalizeEdges(&g);
  return g;
}

void GraphCorpusGenerator::FinalizeEdges(InteractionGraph* g) {
  // The O(n^2) trigger-matching pass is rng-free, so it fans out over the
  // pool: each task fills its own row of hits, then edges are inserted
  // serially in (u, v) order — the resulting graph is bit-identical to the
  // serial double loop for any thread count.
  const int n = g->num_nodes();
  std::vector<std::vector<int>> hits(static_cast<size_t>(n));
  parallel::For(static_cast<size_t>(n), [&](size_t ui) {
    const int u = static_cast<int>(ui);
    for (int v = 0; v < n; ++v) {
      if (u == v) continue;
      if (ActionTriggersRule(g->node(u).rule, g->node(v).rule)) {
        hits[ui].push_back(v);
      }
    }
  });
  for (int u = 0; u < n; ++u) {
    for (int v : hits[static_cast<size_t>(u)]) g->AddEdge(u, v);
  }
}

void GraphCorpusGenerator::ComputeFeatures(InteractionGraph* g) {
  for (int i = 0; i < g->num_nodes(); ++i) {
    GraphNode& n = g->mutable_node(i);
    n.features = ComputeNodeFeatures(n.rule, n.event_time);
  }
  AugmentRelationalFeatures(g, options_.extraction_noise, rng_);
}

bool GraphCorpusGenerator::RepairToBenign(InteractionGraph* g) {
  for (int attempt = 0; attempt < 60; ++attempt) {
    const auto findings = VulnerabilityChecker::Check(*g);
    if (findings.empty()) return true;
    // Mutate one witness node: give it a fresh action on a device family
    // not used elsewhere in the graph and no environment side effects that
    // could recreate the finding.
    const auto& f = findings.front();
    const int victim =
        f.witness_nodes[rng_->UniformInt(f.witness_nodes.size())];
    std::set<DeviceType> used;
    for (int i = 0; i < g->num_nodes(); ++i) {
      if (i == victim) continue;
      used.insert(g->node(i).rule.trigger.device);
      for (const auto& a : g->node(i).rule.actions) used.insert(a.device);
    }
    std::vector<DeviceType> free_devices;
    for (DeviceType d : ActuatorTypes()) {
      if (used.count(d)) continue;
      if (GetDeviceTypeInfo(d).active_effect.has_value()) continue;
      free_devices.push_back(d);
    }
    Rule& rule = g->mutable_node(victim).rule;
    if (free_devices.empty()) {
      // Degenerate: drop extra actions instead.
      rule.actions.resize(1);
      rule.actions[0] = Action{DeviceType::kPhone, "sent"};
    } else {
      const DeviceType d =
          free_devices[rng_->UniformInt(free_devices.size())];
      rule.actions.clear();
      rule.actions.push_back(Action{d, ActiveState(d)});
    }
    // Re-render text and rebuild edges from scratch.
    rule.trigger_text = TriggerPhrase(rule.trigger);
    rule.action_text = ActionsPhrase(rule.actions);
    rule.description = RenderRuleDescription(rule);
    InteractionGraph rebuilt;
    for (int i = 0; i < g->num_nodes(); ++i) {
      GraphNode node;
      node.rule = g->node(i).rule;
      rebuilt.AddNode(std::move(node));
    }
    FinalizeEdges(&rebuilt);
    *g = std::move(rebuilt);
  }
  return VulnerabilityChecker::Check(*g).empty();
}

InteractionGraph GraphCorpusGenerator::GenerateBenign() {
  for (int attempt = 0; attempt < 20; ++attempt) {
    const int target = static_cast<int>(
        rng_->UniformInt(options_.min_nodes, options_.max_nodes));
    InteractionGraph g = GrowRandomGraph(target);
    if (!RepairToBenign(&g)) continue;
    g.set_label(0);
    g.set_vulnerability(VulnerabilityType::kNone);
    ComputeFeatures(&g);
    return g;
  }
  // Fallback: a minimal two-node benign chain.
  InteractionGraph g;
  RuleGenerator* gen = RandomGenerator();
  GraphNode a, b;
  a.rule = gen->Materialize(Trigger{DeviceType::kMotionSensor, "active"},
                            {Action{DeviceType::kLight, "on"}});
  b.rule = gen->Materialize(Trigger{DeviceType::kLight, "on"},
                            {Action{DeviceType::kPhone, "sent"}});
  g.AddNode(std::move(a));
  g.AddNode(std::move(b));
  FinalizeEdges(&g);
  g.set_label(0);
  ComputeFeatures(&g);
  return g;
}

std::vector<int> GraphCorpusGenerator::InjectVulnerability(
    InteractionGraph* g, VulnerabilityType type) {
  RuleGenerator* gen = RandomGenerator();
  auto pick_parent = [&]() {
    return static_cast<int>(
        rng_->UniformInt(static_cast<uint64_t>(g->num_nodes())));
  };
  auto conflict_device = [&]() {
    // A binary actuator for the conflicting/duplicated action.
    static const DeviceType kCandidates[] = {
        DeviceType::kLight, DeviceType::kHeater, DeviceType::kFan,
        DeviceType::kWaterValve, DeviceType::kDoorLock, DeviceType::kCamera};
    return kCandidates[rng_->UniformInt(6)];
  };

  switch (type) {
    case VulnerabilityType::kActionConflict:
    case VulnerabilityType::kActionDuplicate: {
      const int p = pick_parent();
      Rule& parent = g->mutable_node(p).rule;
      if (parent.actions.empty()) {
        parent.actions.push_back(Action{DeviceType::kSwitch, "on"});
        parent.action_text = ActionsPhrase(parent.actions);
        parent.description = RenderRuleDescription(parent);
      }
      const Action cause = parent.actions.front();
      const DeviceType d = conflict_device();
      const std::string s = ActiveState(d);
      const std::string s2 = type == VulnerabilityType::kActionConflict
                                 ? OppositeState(d, s)
                                 : s;
      GraphNode a, b;
      a.rule = gen->Materialize(Trigger{cause.device, cause.state},
                                {Action{d, s}});
      b.rule = gen->Materialize(Trigger{cause.device, cause.state},
                                {Action{d, s2}});
      const int ia = g->AddNode(std::move(a));
      const int ib = g->AddNode(std::move(b));
      return {p, ia, ib};
    }
    case VulnerabilityType::kActionRevert: {
      // Chain: A sets (D, s) ... -> Z sets (D, opposite(s)).
      const int p = pick_parent();
      const DeviceType d = conflict_device();
      const std::string s = ActiveState(d);
      Rule& head = g->mutable_node(p).rule;
      head.actions.clear();
      head.actions.push_back(Action{d, s});
      head.action_text = ActionsPhrase(head.actions);
      head.description = RenderRuleDescription(head);
      // Middle hop triggered by (d, s).
      GraphNode mid;
      mid.rule = gen->Materialize(Trigger{d, s},
                                  {Action{DeviceType::kPhone, "sent"}});
      const int im = g->AddNode(std::move(mid));
      // Tail triggered by the middle hop's action, reverting (d, s).
      GraphNode tail;
      tail.rule = gen->Materialize(Trigger{DeviceType::kPhone, "sent"},
                                   {Action{d, OppositeState(d, s)}});
      const int it = g->AddNode(std::move(tail));
      return {p, im, it};
    }
    case VulnerabilityType::kActionLoop: {
      // Three-rule cycle over binary actuators.
      const DeviceType d1 = DeviceType::kLight;
      const DeviceType d2 = DeviceType::kFan;
      const DeviceType d3 = DeviceType::kPlug;
      GraphNode r1, r2, r3;
      r1.rule = gen->Materialize(Trigger{d3, ActiveState(d3)},
                                 {Action{d1, ActiveState(d1)}});
      r2.rule = gen->Materialize(Trigger{d1, ActiveState(d1)},
                                 {Action{d2, ActiveState(d2)}});
      r3.rule = gen->Materialize(Trigger{d2, ActiveState(d2)},
                                 {Action{d3, ActiveState(d3)}});
      const int i1 = g->AddNode(std::move(r1));
      const int i2 = g->AddNode(std::move(r2));
      const int i3 = g->AddNode(std::move(r3));
      return {i1, i2, i3};
    }
    case VulnerabilityType::kConditionBlock: {
      // B waits on (X, s); A drives X to opposite(s).
      const DeviceType x = conflict_device();
      const std::string s = ActiveState(x);
      const int p = pick_parent();
      Rule& parent = g->mutable_node(p).rule;
      if (parent.actions.empty()) {
        parent.actions.push_back(Action{DeviceType::kSwitch, "on"});
        parent.action_text = ActionsPhrase(parent.actions);
        parent.description = RenderRuleDescription(parent);
      }
      const Action cause = parent.actions.front();
      GraphNode blocker, blocked;
      blocker.rule = gen->Materialize(Trigger{cause.device, cause.state},
                                      {Action{x, OppositeState(x, s)}});
      blocked.rule = gen->Materialize(
          Trigger{x, s}, {Action{DeviceType::kPhone, "sent"}});
      const int ia = g->AddNode(std::move(blocker));
      const int ib = g->AddNode(std::move(blocked));
      return {p, ia, ib};
    }
    case VulnerabilityType::kConditionBypass: {
      // U: mundane actuator fabricates a safety-sensor condition.
      // V: safety-sensor-guarded rule controlling a security device.
      const bool smoke_path = rng_->Bernoulli(0.5);
      GraphNode u, v;
      if (smoke_path) {
        u.rule = gen->Materialize(Trigger{DeviceType::kVoice, "spoken"},
                                  {Action{DeviceType::kOven, "on"}});
        v.rule = gen->Materialize(
            Trigger{DeviceType::kSmokeDetector, "detected"},
            {Action{DeviceType::kDoorLock, "unlocked"},
             Action{DeviceType::kAlarm, "on"}});
      } else {
        u.rule = gen->Materialize(Trigger{DeviceType::kClock, "sunset"},
                                  {Action{DeviceType::kWaterValve, "open"}});
        v.rule = gen->Materialize(
            Trigger{DeviceType::kLeakSensor, "wet"},
            {Action{DeviceType::kWaterValve, "closed"},
             Action{DeviceType::kPhone, "sent"}});
      }
      const int iu = g->AddNode(std::move(u));
      const int iv = g->AddNode(std::move(v));
      return {iu, iv};
    }
    case VulnerabilityType::kNone:
    case VulnerabilityType::kNumInternalTypes:
      break;
  }
  return {};
}

InteractionGraph GraphCorpusGenerator::GenerateVulnerable(
    VulnerabilityType type) {
  // Host graph: a small benign graph (leave room for injected nodes).
  const int target = std::max(
      options_.min_nodes,
      static_cast<int>(rng_->UniformInt(options_.min_nodes,
                                        std::max(options_.min_nodes,
                                                 options_.max_nodes - 3))));
  InteractionGraph g;
  for (int attempt = 0; attempt < 20; ++attempt) {
    g = GrowRandomGraph(target);
    if (RepairToBenign(&g)) break;
  }
  const std::vector<int> witness = InjectVulnerability(&g, type);
  // Rebuild edges including the injected nodes.
  InteractionGraph rebuilt;
  for (int i = 0; i < g.num_nodes(); ++i) {
    GraphNode node;
    node.rule = g.node(i).rule;
    rebuilt.AddNode(std::move(node));
  }
  FinalizeEdges(&rebuilt);
  rebuilt.set_label(1);
  rebuilt.set_vulnerability(type);
  rebuilt.set_witness(witness);
  ComputeFeatures(&rebuilt);
  return rebuilt;
}

InteractionGraph GraphCorpusGenerator::GenerateDrifting() {
  RuleGenerator* gen = RandomGenerator();
  InteractionGraph g;
  const int variant = static_cast<int>(rng_->UniformInt(uint64_t{3}));
  if (variant == 0) {
    // Long action cycle over many devices ("action reverted over time").
    static const DeviceType kRing[] = {
        DeviceType::kLight, DeviceType::kFan,     DeviceType::kPlug,
        DeviceType::kTv,    DeviceType::kSpeaker, DeviceType::kCamera};
    const int len = 5 + static_cast<int>(rng_->UniformInt(uint64_t{2}));
    for (int i = 0; i < len; ++i) {
      const DeviceType cur = kRing[i % 6];
      const DeviceType nxt = kRing[(i + 1) % 6];
      GraphNode node;
      node.rule = gen->Materialize(Trigger{cur, ActiveState(cur)},
                                   {Action{nxt, ActiveState(nxt)}});
      g.AddNode(std::move(node));
    }
  } else if (variant == 1) {
    // Dense conflicting hub: one trigger drives many contradictory
    // commands ("another action can generate fake automation conditions").
    GraphNode hub;
    hub.rule = gen->Materialize(Trigger{DeviceType::kMotionSensor, "active"},
                                {Action{DeviceType::kSwitch, "on"}});
    g.AddNode(std::move(hub));
    static const DeviceType kLeaves[] = {
        DeviceType::kLight, DeviceType::kHeater, DeviceType::kFan,
        DeviceType::kCamera, DeviceType::kWaterValve};
    for (int i = 0; i < 8; ++i) {
      const DeviceType d = kLeaves[i % 5];
      GraphNode leaf;
      const std::string state = i % 2 == 0
                                    ? ActiveState(d)
                                    : OppositeState(d, ActiveState(d));
      leaf.rule = gen->Materialize(Trigger{DeviceType::kSwitch, "on"},
                                   {Action{d, state}});
      g.AddNode(std::move(leaf));
    }
  } else {
    // Compound: several simultaneous witnesses in one graph.
    g = GrowRandomGraph(6);
    RepairToBenign(&g);
    InjectVulnerability(&g, VulnerabilityType::kActionConflict);
    InjectVulnerability(&g, VulnerabilityType::kActionLoop);
    InjectVulnerability(&g, VulnerabilityType::kConditionBypass);
  }
  // Rebuild edges and features.
  InteractionGraph rebuilt;
  for (int i = 0; i < g.num_nodes(); ++i) {
    GraphNode node;
    node.rule = g.node(i).rule;
    rebuilt.AddNode(std::move(node));
  }
  FinalizeEdges(&rebuilt);
  rebuilt.set_label(1);
  rebuilt.set_vulnerability(VulnerabilityType::kNone);  // unknown pattern
  ComputeFeatures(&rebuilt);
  return rebuilt;
}

std::vector<InteractionGraph> GraphCorpusGenerator::GenerateDataset(
    int count) {
  if (count <= 0) return {};
  // Stream splitting: the shared rng is consumed exactly once (the Fork
  // below) plus the final shuffle, so two successive GenerateDataset calls
  // still produce distinct content. Graph i is generated by a worker
  // generator seeded from base.ForkAt(i) — a pure function of (seed, i) —
  // so the fan-out is bit-identical for every thread count and schedule.
  const int num_vulnerable =
      static_cast<int>(count * options_.vulnerable_fraction + 0.5);
  std::vector<VulnerabilityType> plan(static_cast<size_t>(count),
                                      VulnerabilityType::kNone);
  for (int i = 0; i < num_vulnerable; ++i) {
    plan[static_cast<size_t>(i)] = static_cast<VulnerabilityType>(
        1 + (vuln_type_cursor_++ % kNumInternalVulnerabilities));
  }
  const Rng base = rng_->Fork();
  std::vector<InteractionGraph> out(static_cast<size_t>(count));
  parallel::For(static_cast<size_t>(count), [&](size_t i) {
    Rng child = base.ForkAt(static_cast<uint64_t>(i));
    GraphCorpusGenerator worker(options_, &child);
    for (const auto& [seed, strength] : device_profiles_) {
      worker.ApplyDeviceProfile(seed, strength);
    }
    out[i] = plan[i] == VulnerabilityType::kNone
                 ? worker.GenerateBenign()
                 : worker.GenerateVulnerable(plan[i]);
  });
  rng_->Shuffle(&out);
  return out;
}

namespace {

void HashText(const std::string& s, Fnv1a* h) {
  h->U64(s.size());
  h->Bytes(s.data(), s.size());
}

void HashGraph(const InteractionGraph& g, Fnv1a* h) {
  h->U64(static_cast<uint64_t>(g.num_nodes()));
  for (int i = 0; i < g.num_nodes(); ++i) {
    const GraphNode& n = g.node(i);
    h->U64(static_cast<uint64_t>(n.rule.platform));
    HashText(n.rule.description, h);
    HashText(n.rule.trigger_text, h);
    HashText(n.rule.action_text, h);
    h->Double(n.event_time);
    h->U64(n.features.size());
    for (double f : n.features) h->Double(f);
  }
  h->U64(static_cast<uint64_t>(g.num_edges()));
  for (const auto& [u, v] : g.edges()) {
    h->U64(static_cast<uint64_t>(u));
    h->U64(static_cast<uint64_t>(v));
  }
  h->U64(static_cast<uint64_t>(g.label()));
  h->U64(static_cast<uint64_t>(g.vulnerability()));
  h->U64(g.witness().size());
  for (int w : g.witness()) h->U64(static_cast<uint64_t>(w));
}

}  // namespace

uint64_t CorpusContentFingerprint(
    const std::vector<InteractionGraph>& graphs) {
  Fnv1a h;
  h.U64(graphs.size());
  for (const auto& g : graphs) HashGraph(g, &h);
  return h.digest();
}

uint64_t FederatedCorpusContentFingerprint(const FederatedCorpus& corpus) {
  Fnv1a h(CorpusContentFingerprint(corpus.data.graphs()));
  h.U64(corpus.partition.indices.size());
  for (const auto& shard : corpus.partition.indices) {
    h.U64(shard.size());
    for (size_t i : shard) h.U64(i);
  }
  for (int c : corpus.partition.client_cluster) {
    h.U64(static_cast<uint64_t>(c));
  }
  h.U64(corpus.cluster_tests.size());
  for (const auto& pool : corpus.cluster_tests) {
    h.U64(CorpusContentFingerprint(pool.graphs()));
  }
  return h.digest();
}

CorpusStats ComputeCorpusStats(const std::vector<InteractionGraph>& graphs) {
  CorpusStats s;
  s.total_graphs = static_cast<int>(graphs.size());
  if (graphs.empty()) return s;
  s.min_nodes = graphs.front().num_nodes();
  double nodes_sum = 0.0, edges_sum = 0.0;
  for (const auto& g : graphs) {
    if (g.label() == 1) ++s.vulnerable_graphs;
    s.min_nodes = std::min(s.min_nodes, g.num_nodes());
    s.max_nodes = std::max(s.max_nodes, g.num_nodes());
    nodes_sum += g.num_nodes();
    edges_sum += g.num_edges();
  }
  s.avg_nodes = nodes_sum / s.total_graphs;
  s.avg_edges = edges_sum / s.total_graphs;
  return s;
}



void GraphCorpusGenerator::ApplyDeviceProfile(uint64_t profile_seed,
                                              double strength) {
  device_profiles_.emplace_back(profile_seed, strength);
  for (auto& gen : generators_) {
    gen.ApplyDeviceProfile(profile_seed, strength);
  }
}

namespace {

/// One planned federated-corpus sample: which cluster generates it, what
/// content it carries, and where it lands. All rng draws that decide a
/// plan happen serially up front, so the parallel generation phase below
/// is rng-free on the shared stream.
struct FederatedSamplePlan {
  int cluster = 0;
  bool test = false;
  /// kNone = plain benign; otherwise the type to plant. idiom_benign
  /// means: plant the cluster's idiom pattern but relabel it benign.
  VulnerabilityType type = VulnerabilityType::kNone;
  bool idiom_benign = false;
};

}  // namespace

FederatedCorpus BuildClusteredFederatedCorpus(
    const CorpusOptions& base, int total_graphs, int num_clients,
    int num_clusters, double alpha, double profile_strength, Rng* rng) {
  assert(rng != nullptr);
  assert(num_clients > 0 && num_clusters > 0);
  num_clusters = std::min(num_clusters, num_clients);
  FederatedCorpus out;
  out.partition.indices.resize(static_cast<size_t>(num_clients));
  out.partition.client_cluster.resize(static_cast<size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    out.partition.client_cluster[static_cast<size_t>(c)] = c % num_clusters;
  }
  out.cluster_tests.resize(static_cast<size_t>(num_clusters));

  // --- Phase 1 (serial): plan every sample's cluster/content/destination,
  // consuming the shared rng in a fixed order.
  std::vector<FederatedSamplePlan> plans;
  plans.reserve(static_cast<size_t>(total_graphs));
  std::vector<int> train_quota(static_cast<size_t>(num_clusters), 0);
  for (int k = 0; k < num_clusters; ++k) {
    const int quota = total_graphs / num_clusters +
                      (k < total_graphs % num_clusters ? 1 : 0);
    // 20% of the quota becomes the held-out test pool for this cluster.
    const int test_q = std::max(2, quota / 5);
    const int train_q = quota - test_q;
    train_quota[static_cast<size_t>(k)] = train_q;
    // The cluster's *benign idiom*: one interaction pattern that counts as
    // a vulnerability elsewhere but is an intended automation habit in
    // this household cluster (e.g. deliberately duplicated actions). This
    // label-convention conflict is the concept heterogeneity that makes
    // plain FedAvg degrade and clustering recover (Section III-B2).
    const auto idiom = static_cast<VulnerabilityType>(
        1 + (k % kNumInternalVulnerabilities));
    auto plan_sample = [&](bool vulnerable, bool test) {
      FederatedSamplePlan p;
      p.cluster = k;
      p.test = test;
      if (!vulnerable) {
        // Half the benign samples exhibit the cluster's idiom pattern.
        p.idiom_benign = rng->Bernoulli(0.5);
        p.type = p.idiom_benign ? idiom : VulnerabilityType::kNone;
        return p;
      }
      // 80%: one of the cluster's two home vulnerability types; 20%: any —
      // but never the idiom, which is benign here.
      int t;
      do {
        if (rng->Bernoulli(0.8)) {
          const int base_t = (2 * k) % kNumInternalVulnerabilities;
          t = 1 + (base_t + static_cast<int>(rng->UniformInt(uint64_t{2}))) %
                      kNumInternalVulnerabilities;
        } else {
          t = 1 + static_cast<int>(rng->UniformInt(
                      static_cast<uint64_t>(kNumInternalVulnerabilities)));
        }
      } while (t == static_cast<int>(idiom));
      p.type = static_cast<VulnerabilityType>(t);
      return p;
    };
    const int num_vuln =
        static_cast<int>(train_q * base.vulnerable_fraction + 0.5);
    for (int i = 0; i < train_q; ++i) {
      plans.push_back(plan_sample(i < num_vuln, /*test=*/false));
    }
    // Test pools are class-balanced so that a class-starved client model
    // scores near 0.5, matching the evaluation regime of Figure 4.
    const int test_vuln = test_q / 2;
    for (int i = 0; i < test_q; ++i) {
      plans.push_back(plan_sample(i < test_vuln, /*test=*/true));
    }
  }

  // --- Phase 2 (parallel): generate every planned graph from its own
  // ForkAt(i) stream; per-cluster device profiles (covariate shift) are
  // re-applied inside each worker. Written by index — bit-identical for
  // any thread count.
  const Rng fork_base = rng->Fork();
  std::vector<InteractionGraph> graphs(plans.size());
  parallel::For(plans.size(), [&](size_t i) {
    const FederatedSamplePlan& p = plans[i];
    Rng child = fork_base.ForkAt(static_cast<uint64_t>(i));
    GraphCorpusGenerator worker(base, &child);
    worker.ApplyDeviceProfile(
        0xfeed0000ULL + static_cast<uint64_t>(p.cluster), profile_strength);
    if (p.type == VulnerabilityType::kNone) {
      graphs[i] = worker.GenerateBenign();
    } else {
      graphs[i] = worker.GenerateVulnerable(p.type);
      if (p.idiom_benign) {
        graphs[i].set_label(0);
        graphs[i].set_vulnerability(VulnerabilityType::kNone);
        graphs[i].set_witness({});
      }
    }
  });

  // --- Phase 3 (serial): assemble pools and spread each cluster's train
  // samples over its clients with Dirichlet label skew.
  size_t next_plan = 0;
  for (int k = 0; k < num_clusters; ++k) {
    std::vector<size_t> cluster_samples;
    while (next_plan < plans.size() && plans[next_plan].cluster == k) {
      const FederatedSamplePlan& p = plans[next_plan];
      if (p.test) {
        out.cluster_tests[static_cast<size_t>(k)].Add(
            std::move(graphs[next_plan]));
      } else {
        cluster_samples.push_back(out.data.size());
        out.data.Add(std::move(graphs[next_plan]));
      }
      ++next_plan;
    }
    assert(static_cast<int>(cluster_samples.size()) ==
           train_quota[static_cast<size_t>(k)]);
    rng->Shuffle(&cluster_samples);

    std::vector<int> clients;
    for (int c = 0; c < num_clients; ++c) {
      if (out.partition.client_cluster[static_cast<size_t>(c)] == k) {
        clients.push_back(c);
      }
    }
    if (clients.empty()) continue;
    const std::vector<double> prop =
        rng->Dirichlet(alpha, static_cast<int>(clients.size()));
    size_t cursor = 0;
    for (size_t ci = 0; ci < clients.size(); ++ci) {
      size_t take =
          ci + 1 == clients.size()
              ? cluster_samples.size() - cursor
              : static_cast<size_t>(prop[ci] *
                                    static_cast<double>(
                                        cluster_samples.size()));
      take = std::min(take, cluster_samples.size() - cursor);
      for (size_t j = 0; j < take; ++j) {
        out.partition.indices[static_cast<size_t>(clients[ci])].push_back(
            cluster_samples[cursor + j]);
      }
      cursor += take;
    }
  }
  // Every client keeps at least kMinPerClass samples of each class (a
  // house observes at least a few incidents of both kinds over time; the
  // local SGD head needs both classes to be fittable at all). Donors are
  // the clients holding the most of that class.
  constexpr int kMinPerClass = 3;
  auto count_class = [&](const std::vector<size_t>& shard, int label) {
    int n = 0;
    for (size_t i : shard) n += out.data.graph(i).label() == label ? 1 : 0;
    return n;
  };
  for (int label = 0; label <= 1; ++label) {
    for (auto& client : out.partition.indices) {
      while (count_class(client, label) < kMinPerClass) {
        // Find the richest donor for this class.
        std::vector<size_t>* donor = nullptr;
        int best = kMinPerClass;
        for (auto& other : out.partition.indices) {
          if (&other == &client) continue;
          const int have = count_class(other, label);
          if (have > best) {
            best = have;
            donor = &other;
          }
        }
        if (donor == nullptr) break;
        for (size_t k = donor->size(); k-- > 0;) {
          if (out.data.graph((*donor)[k]).label() == label) {
            client.push_back((*donor)[k]);
            donor->erase(donor->begin() + static_cast<long>(k));
            break;
          }
        }
      }
    }
  }
  return out;
}

std::vector<InteractionGraph> MaterializeClientShard(
    const CorpusOptions& base, uint64_t corpus_seed, uint64_t client_id,
    int graphs_per_client, int num_clusters, double profile_strength) {
  if (graphs_per_client <= 0) return {};
  // Every draw below comes from the ForkAt(client_id) child stream, so
  // the shard depends only on (options, corpus_seed, client_id) — never
  // on which other clients were materialized, in what order, or on how
  // many threads are running.
  Rng root(corpus_seed);
  Rng child = root.ForkAt(client_id);
  GraphCorpusGenerator worker(base, &child);
  if (num_clusters > 0 && profile_strength > 0.0) {
    worker.ApplyDeviceProfile(
        0xfeed0000ULL + client_id % static_cast<uint64_t>(num_clusters),
        profile_strength);
  }
  const int num_vulnerable = static_cast<int>(
      graphs_per_client * base.vulnerable_fraction + 0.5);
  std::vector<InteractionGraph> shard;
  shard.reserve(static_cast<size_t>(graphs_per_client));
  for (int i = 0; i < graphs_per_client; ++i) {
    if (i < num_vulnerable) {
      // Vulnerability types cycle with a per-client phase so neighboring
      // clients do not all open with the same witness class.
      const auto type = static_cast<VulnerabilityType>(
          1 + static_cast<int>((client_id + static_cast<uint64_t>(i)) %
                               kNumInternalVulnerabilities));
      shard.push_back(worker.GenerateVulnerable(type));
    } else {
      shard.push_back(worker.GenerateBenign());
    }
  }
  // Mix the label blocks so a suffix train/test split sees both classes
  // with high probability; the shuffle consumes the same child stream.
  child.Shuffle(&shard);
  return shard;
}

uint64_t ClientShardFingerprint(const CorpusOptions& base,
                                uint64_t corpus_seed, uint64_t client_id,
                                int graphs_per_client, int num_clusters,
                                double profile_strength) {
  return CorpusContentFingerprint(
      MaterializeClientShard(base, corpus_seed, client_id, graphs_per_client,
                             num_clusters, profile_strength));
}

}  // namespace fexiot
