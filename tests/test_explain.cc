#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "common/parallel.h"
#include "explain/explainer.h"
#include "explain/shap.h"
#include "gnn/trainer.h"
#include "graph/corpus.h"
#include "ml/linear_model.h"

namespace fexiot {
namespace {

// A trained detection model over a small corpus, shared by the tests.
struct Fixture {
  GnnConfig gc;
  GnnModel model;
  SgdClassifier head;
  GraphCorpusGenerator gen;
  Rng rng;

  static Fixture& Get() {
    static Fixture f;
    return f;
  }

  Fixture()
      : gc([] {
          GnnConfig c;
          c.type = GnnType::kGin;
          c.hidden_dim = 12;
          c.embedding_dim = 12;
          return c;
        }()),
        model(gc),
        gen([] {
          CorpusOptions opt;
          opt.platforms = {Platform::kIfttt};
          opt.min_nodes = 5;
          opt.max_nodes = 9;
          opt.vulnerable_fraction = 0.5;
          opt.extraction_noise = 0.0;
          return opt;
        }(), &StaticRng()),
        rng(55) {
    GraphDataset train(gen.GenerateDataset(120));
    TrainConfig tc;
    tc.epochs = 10;
    tc.learning_rate = 0.02;
    tc.margin = 3.0;
    GnnTrainer trainer(&model, tc);
    const auto prepared = PrepareDataset(train, gc);
    trainer.Train(prepared, &rng);
    std::vector<int> y = train.Labels();
    const Status st = head.Fit(trainer.Embed(prepared), y);
    EXPECT_TRUE(st.ok());
  }

  static Rng& StaticRng() {
    static Rng rng(5556);
    return rng;
  }
};

TEST(GnnGraphScorer, ScoresAreProbabilities) {
  Fixture& f = Fixture::Get();
  const InteractionGraph g =
      f.gen.GenerateVulnerable(VulnerabilityType::kActionConflict);
  GnnGraphScorer scorer(&f.model, &f.head, &g);
  std::vector<int> all;
  for (int i = 0; i < g.num_nodes(); ++i) all.push_back(i);
  const double full = scorer.Score(all);
  const double empty = scorer.Score({});
  EXPECT_GE(full, 0.0);
  EXPECT_LE(full, 1.0);
  EXPECT_GE(empty, 0.0);
  EXPECT_LE(empty, 1.0);
  EXPECT_EQ(scorer.evaluations(), 2);
}

TEST(KernelShap, LinearGameRecoversMarginals) {
  // Synthetic check on a simple graph: removing the witness should matter
  // more than removing a filler node, and the SHAP value of the witness
  // subgraph should exceed that of a random benign subgraph.
  Fixture& f = Fixture::Get();
  const InteractionGraph g =
      f.gen.GenerateVulnerable(VulnerabilityType::kActionLoop);
  ASSERT_GE(g.num_nodes(), 4);
  GnnGraphScorer scorer(&f.model, &f.head, &g);
  KernelShap shap(KernelShap::Options{32});
  Rng rng(78);
  const double witness_phi = shap.SubgraphShap(scorer, g.witness(), &rng);
  // A singleton far from the witness.
  std::set<int> witness(g.witness().begin(), g.witness().end());
  int filler = -1;
  for (int i = 0; i < g.num_nodes(); ++i) {
    if (!witness.count(i)) filler = i;
  }
  ASSERT_GE(filler, 0);
  const double filler_phi = shap.SubgraphShap(scorer, {filler}, &rng);
  EXPECT_GT(witness_phi, filler_phi - 0.05);
}

class ExplainerRun : public ::testing::TestWithParam<int> {};

TEST_P(ExplainerRun, ReturnsConnectedBoundedSubgraph) {
  Fixture& f = Fixture::Get();
  SearchOptions opt;
  opt.iterations = 3;
  opt.beam_width = 2;
  opt.max_subgraph_nodes = 3;
  opt.shap_samples = 8;
  std::unique_ptr<Explainer> explainer;
  switch (GetParam()) {
    case 0: explainer = std::make_unique<ShapMcbsExplainer>(opt); break;
    case 1: explainer = std::make_unique<SubgraphXExplainer>(opt); break;
    default: explainer = std::make_unique<MctsGnnExplainer>(opt); break;
  }
  for (int trial = 0; trial < 3; ++trial) {
    const InteractionGraph g =
        f.gen.GenerateVulnerable(f.gen.SampleVulnerabilityType());
    GnnGraphScorer scorer(&f.model, &f.head, &g);
    const ExplanationResult res = explainer->Explain(scorer, &f.rng);
    ASSERT_FALSE(res.subgraph_nodes.empty());
    EXPECT_LE(res.subgraph_nodes.size(), 3u + 1u);  // target or tiny root
    EXPECT_TRUE(g.IsConnectedSubset(res.subgraph_nodes))
        << explainer->Name();
    EXPECT_GT(res.model_evaluations, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllExplainers, ExplainerRun,
                         ::testing::Range(0, 3));

TEST(EvaluateExplanation, FidelitySparsityDefinitions) {
  Fixture& f = Fixture::Get();
  const InteractionGraph g =
      f.gen.GenerateVulnerable(VulnerabilityType::kActionConflict);
  GnnGraphScorer scorer(&f.model, &f.head, &g);
  // Sparsity of a single node = 1 - 1/n.
  const FidelitySparsity fs = EvaluateExplanation(scorer, {0});
  EXPECT_NEAR(fs.sparsity, 1.0 - 1.0 / g.num_nodes(), 1e-12);
  // Removing everything = fidelity of full prediction vs empty baseline.
  std::vector<int> all;
  for (int i = 0; i < g.num_nodes(); ++i) all.push_back(i);
  const FidelitySparsity full = EvaluateExplanation(scorer, all);
  EXPECT_NEAR(full.sparsity, 0.0, 1e-12);
}

TEST(ShapMcbs, RecoversWitnessBetterThanChance) {
  // Aggregate witness recall over several graphs should beat the recall
  // of random subgraphs of the same size.
  Fixture& f = Fixture::Get();
  SearchOptions opt;
  opt.iterations = 4;
  opt.beam_width = 3;
  opt.max_subgraph_nodes = 3;
  opt.shap_samples = 10;
  ShapMcbsExplainer explainer(opt);
  double recall = 0.0, random_recall = 0.0;
  int cases = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const InteractionGraph g =
        f.gen.GenerateVulnerable(f.gen.SampleVulnerabilityType());
    if (g.witness().empty()) continue;
    GnnGraphScorer scorer(&f.model, &f.head, &g);
    const ExplanationResult res = explainer.Explain(scorer, &f.rng);
    const std::set<int> witness(g.witness().begin(), g.witness().end());
    int hit = 0;
    for (int v : res.subgraph_nodes) hit += witness.count(v);
    recall += static_cast<double>(hit) / witness.size();
    // Random subset of equal size.
    const auto idx = f.rng.SampleWithoutReplacement(
        static_cast<size_t>(g.num_nodes()), res.subgraph_nodes.size());
    int rhit = 0;
    for (size_t v : idx) rhit += witness.count(static_cast<int>(v));
    random_recall += static_cast<double>(rhit) / witness.size();
    ++cases;
  }
  ASSERT_GT(cases, 0);
  EXPECT_GE(recall, random_recall);
}

std::unique_ptr<Explainer> MakeExplainer(int kind, const SearchOptions& opt) {
  switch (kind) {
    case 0: return std::make_unique<ShapMcbsExplainer>(opt);
    case 1: return std::make_unique<SubgraphXExplainer>(opt);
    default: return std::make_unique<MctsGnnExplainer>(opt);
  }
}

/// A seed-pinned vulnerable graph, independent of the shared fixture's rng
/// position (the parity tests regenerate the identical graph per run).
InteractionGraph MakeGraph(uint64_t seed, VulnerabilityType type) {
  CorpusOptions opt;
  opt.platforms = {Platform::kIfttt};
  opt.min_nodes = 5;
  opt.max_nodes = 9;
  opt.vulnerable_fraction = 0.5;
  opt.extraction_noise = 0.0;
  Rng rng(seed);
  GraphCorpusGenerator gen(opt, &rng);
  return gen.GenerateVulnerable(type);
}

TEST(GnnGraphScorer, ScoreBatchMatchesSequentialScoreBitwise) {
  Fixture& f = Fixture::Get();
  const InteractionGraph g =
      f.gen.GenerateVulnerable(VulnerabilityType::kConditionBypass);
  // A ragged batch: empty set, full graph, singletons, mid-sized subsets,
  // and an exact duplicate.
  std::vector<int> all;
  for (int i = 0; i < g.num_nodes(); ++i) all.push_back(i);
  std::vector<std::vector<int>> sets = {
      {}, all, {0}, {1}, {0, 1, 2}, {0, 1, 2}, {2, 3}, all};
  // Reference: one fresh scorer, sequential Score calls.
  GnnGraphScorer seq(&f.model, &f.head, &g);
  std::vector<double> expected;
  for (const auto& s : sets) expected.push_back(seq.Score(s));
  // One batched call on another fresh scorer.
  GnnGraphScorer batched(&f.model, &f.head, &g);
  std::vector<double> got;
  batched.ScoreBatch(sets, &got);
  ASSERT_EQ(got.size(), sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(expected[i], got[i]) << "set " << i;  // bitwise
  }
  // Counting contract: 6 distinct subsets, 8 queries, exact invariant.
  EXPECT_EQ(batched.evaluations(), 6);
  EXPECT_EQ(batched.queries(), 8);
  EXPECT_EQ(batched.queries(), batched.evaluations() + batched.memo_hits());
  // A second identical batch is served entirely from the memo.
  batched.ScoreBatch(sets, &got);
  EXPECT_EQ(batched.evaluations(), 6);
  for (size_t i = 0; i < sets.size(); ++i) EXPECT_EQ(expected[i], got[i]);
  // Single-element batches take the same path as any other batch.
  std::vector<double> lone;
  GnnGraphScorer single(&f.model, &f.head, &g);
  single.ScoreBatch({{1, 2}}, &lone);
  EXPECT_EQ(lone[0], seq.Score({1, 2}));
  EXPECT_EQ(single.evaluations(), 1);
}

/// The masking oracle (docs/EXPLAIN.md §3): the induced subgraph,
/// prepared and run through the whole model.
double InducedOracle(const GnnModel& model, const SgdClassifier& head,
                     const InteractionGraph& g, const std::vector<int>& s) {
  if (s.empty()) {
    return head.PredictProba(std::vector<double>(
        static_cast<size_t>(model.config().embedding_dim), 0.0));
  }
  return head.PredictProba(model.Forward(
      PrepareGraph(g.InducedSubgraph(s), model.config()), nullptr));
}

/// Subsets that exercise the row cache: the empty set, the full graph in
/// ascending and descending order, every singleton, random subsets in
/// sampled (unsorted) and in sorted order, and repeats of earlier ones.
std::vector<std::vector<int>> CacheSubsets(const InteractionGraph& g,
                                           Rng* rng) {
  const int n = g.num_nodes();
  std::vector<int> all(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) all[static_cast<size_t>(v)] = v;
  std::vector<std::vector<int>> sets = {{}, all, {all.rbegin(), all.rend()}};
  for (int v = 0; v < n; ++v) sets.push_back({v});
  for (int k = 0; k < 16; ++k) {
    const size_t size = 1 + static_cast<size_t>(rng->UniformInt(
                                static_cast<uint64_t>(n)));
    std::vector<int> s;
    for (size_t v : rng->SampleWithoutReplacement(static_cast<size_t>(n),
                                                  size)) {
      s.push_back(static_cast<int>(v));
    }
    sets.push_back(s);
    std::sort(s.begin(), s.end());
    sets.push_back(std::move(s));
  }
  for (size_t k = 0; k < 6; ++k) sets.push_back(sets[2 * k + 1]);
  return sets;
}

/// A random-weight model of \p type over a mixed IFTTT/Alexa corpus, with
/// a head fitted to its embeddings; scores need only be exact, not good.
struct MixedCorpusModel {
  GnnConfig gc;
  GnnModel model;
  SgdClassifier head;
  std::vector<InteractionGraph> graphs;

  explicit MixedCorpusModel(GnnType type)
      : gc([type] {
          GnnConfig c;
          c.type = type;
          c.hidden_dim = 12;
          c.embedding_dim = 12;
          return c;
        }()),
        model(gc) {
    CorpusOptions opt;
    opt.platforms = {Platform::kIfttt, Platform::kAlexa};
    opt.min_nodes = 5;
    opt.max_nodes = 10;
    opt.vulnerable_fraction = 0.5;
    Rng rng(4242);
    GraphCorpusGenerator gen(opt, &rng);
    const GraphDataset train(gen.GenerateDataset(24));
    Matrix z(train.size(), static_cast<size_t>(gc.embedding_dim));
    for (size_t i = 0; i < train.size(); ++i) {
      z.SetRow(i, model.Forward(PrepareGraph(train.graph(i), gc), nullptr));
    }
    EXPECT_TRUE(head.Fit(z, train.Labels()).ok());
    for (int k = 0; k < 3; ++k) {
      graphs.push_back(gen.GenerateVulnerable(gen.SampleVulnerabilityType()));
    }
  }
};

TEST(GnnGraphScorer, CachedRowsEqualInducedSubgraphForward) {
  for (const GnnType type : {GnnType::kGcn, GnnType::kGin, GnnType::kMagnn}) {
    const MixedCorpusModel m(type);
    bool sentence_space = false;
    Rng rng(71);
    for (const InteractionGraph& g : m.graphs) {
      for (int v = 0; v < g.num_nodes(); ++v) {
        sentence_space |= g.node(v).features.size() ==
                          static_cast<size_t>(kHeteroFeatureDim);
      }
      const std::vector<std::vector<int>> sets = CacheSubsets(g, &rng);
      std::vector<double> expected;
      for (const auto& s : sets) {
        expected.push_back(InducedOracle(m.model, m.head, g, s));
      }
      const std::string where = std::string(GnnTypeName(type)) + " graph " +
                                std::to_string(g.num_nodes()) + " nodes";
      // Score on a fresh scorer: the cache warms as the queries go.
      GnnGraphScorer one(&m.model, &m.head, &g);
      for (size_t i = 0; i < sets.size(); ++i) {
        EXPECT_EQ(one.Score(sets[i]), expected[i]) << where << " set " << i;
      }
      // ScoreBatch on a fresh scorer, then again on the warm one with the
      // memo off, so every subset is rebuilt from cached rows.
      GnnGraphScorer batched(&m.model, &m.head, &g);
      std::vector<double> got;
      batched.ScoreBatch(sets, &got);
      ASSERT_EQ(got.size(), sets.size());
      for (size_t i = 0; i < sets.size(); ++i) {
        EXPECT_EQ(got[i], expected[i]) << where << " set " << i;
      }
      const long long computed = batched.rows_computed();
      batched.set_memoize(false);
      batched.ScoreBatch(sets, &got);
      for (size_t i = 0; i < sets.size(); ++i) {
        EXPECT_EQ(got[i], expected[i]) << where << " warm set " << i;
        EXPECT_EQ(batched.Score(sets[i]), expected[i]) << where;
      }
      EXPECT_EQ(batched.rows_computed(), computed) << where;
      EXPECT_GT(batched.rows_served(), computed) << where;
    }
    EXPECT_TRUE(sentence_space) << GnnTypeName(type);
  }
}

TEST(GnnGraphScorer, ConcurrentBatchesEqualSerialScorer) {
  const MixedCorpusModel m(GnnType::kGcn);
  const InteractionGraph& g = m.graphs.front();
  Rng rng(72);
  const std::vector<std::vector<int>> sets = CacheSubsets(g, &rng);
  // Overlapping batches: batch k takes 9 consecutive subsets from k.
  std::vector<std::vector<std::vector<int>>> batches(24);
  for (size_t k = 0; k < batches.size(); ++k) {
    for (size_t j = 0; j < 9; ++j) {
      batches[k].push_back(sets[(k + j) % sets.size()]);
    }
  }
  for (const bool memo : {true, false}) {
    GnnGraphScorer serial(&m.model, &m.head, &g);
    serial.set_memoize(memo);
    std::vector<std::vector<double>> expected(batches.size());
    for (size_t k = 0; k < batches.size(); ++k) {
      serial.ScoreBatch(batches[k], &expected[k]);
    }
    parallel::SetThreads(4);
    GnnGraphScorer shared(&m.model, &m.head, &g);
    shared.set_memoize(memo);
    std::vector<std::vector<double>> got(batches.size());
    parallel::For(batches.size(),
                  [&](size_t k) { shared.ScoreBatch(batches[k], &got[k]); });
    parallel::SetThreads(0);
    for (size_t k = 0; k < batches.size(); ++k) {
      ASSERT_EQ(got[k].size(), expected[k].size());
      for (size_t j = 0; j < got[k].size(); ++j) {
        EXPECT_EQ(got[k][j], expected[k][j])  // bitwise
            << "memo=" << memo << " batch " << k << " set " << j;
      }
    }
    EXPECT_EQ(shared.evaluations(), serial.evaluations());
    EXPECT_EQ(shared.queries(), serial.queries());
    EXPECT_EQ(shared.queries(), shared.evaluations() + shared.memo_hits());
    EXPECT_EQ(shared.rows_served(), serial.rows_served());
    EXPECT_EQ(shared.rows_computed(), serial.rows_computed());
  }
}

TEST(ParallelSearch, ThreadCountDoesNotChangeExplanationBits) {
  Fixture& f = Fixture::Get();
  SearchOptions opt;
  opt.iterations = 6;
  opt.beam_width = 3;
  opt.max_subgraph_nodes = 3;
  opt.shap_samples = 8;
  for (const uint64_t seed : {101u, 202u, 303u}) {
    const InteractionGraph g =
        MakeGraph(seed, VulnerabilityType::kActionConflict);
    for (int kind = 0; kind < 3; ++kind) {
      struct Run {
        std::vector<int> nodes;
        double score, fidelity, sparsity;
        int evaluations, scored, waves;
      };
      auto run_at = [&](size_t threads) {
        parallel::SetThreads(threads);
        GnnGraphScorer scorer(&f.model, &f.head, &g);
        auto explainer = MakeExplainer(kind, opt);
        Rng rng(seed * 7 + static_cast<uint64_t>(kind));
        const ExplanationResult res = explainer->Explain(scorer, &rng);
        const FidelitySparsity fs =
            EvaluateExplanation(scorer, res.subgraph_nodes);
        parallel::SetThreads(0);
        return Run{res.subgraph_nodes,   res.score,
                   fs.fidelity,          fs.sparsity,
                   scorer.evaluations(), res.subgraphs_scored,
                   res.waves};
      };
      const Run t1 = run_at(1);
      for (const size_t threads : {2u, 4u}) {
        const Run tn = run_at(threads);
        EXPECT_EQ(t1.nodes, tn.nodes)
            << "kind=" << kind << " seed=" << seed << " t=" << threads;
        EXPECT_EQ(t1.score, tn.score);            // bitwise
        EXPECT_EQ(t1.fidelity, tn.fidelity);      // bitwise
        EXPECT_EQ(t1.sparsity, tn.sparsity);      // bitwise
        EXPECT_EQ(t1.evaluations, tn.evaluations);
        EXPECT_EQ(t1.scored, tn.scored);
        EXPECT_EQ(t1.waves, tn.waves);
      }
    }
  }
}

TEST(ParallelSearch, TranspositionTableMatchesMemoFreeReference) {
  // Oracle: the memo-free reference search (rewards recomputed at every
  // visit, scorer memo off) must select the same subgraph with the same
  // score bits — the transposition table and score memo only skip
  // recomputation of pure values, never change them.
  Fixture& f = Fixture::Get();
  SearchOptions tt_opt;
  tt_opt.iterations = 8;
  tt_opt.beam_width = 3;
  tt_opt.max_subgraph_nodes = 3;
  tt_opt.shap_samples = 8;
  SearchOptions ref_opt = tt_opt;
  ref_opt.reuse_rewards = false;
  for (const uint64_t seed : {11u, 22u, 33u}) {
    const InteractionGraph g =
        MakeGraph(seed, VulnerabilityType::kActionLoop);
    for (int kind = 0; kind < 3; ++kind) {
      GnnGraphScorer tt_scorer(&f.model, &f.head, &g);
      Rng tt_rng(seed + 900 + static_cast<uint64_t>(kind));
      const ExplanationResult tt_res =
          MakeExplainer(kind, tt_opt)->Explain(tt_scorer, &tt_rng);

      GnnGraphScorer ref_scorer(&f.model, &f.head, &g);
      ref_scorer.set_memoize(false);
      Rng ref_rng(seed + 900 + static_cast<uint64_t>(kind));
      const ExplanationResult ref_res =
          MakeExplainer(kind, ref_opt)->Explain(ref_scorer, &ref_rng);

      EXPECT_EQ(tt_res.subgraph_nodes, ref_res.subgraph_nodes)
          << "kind=" << kind << " seed=" << seed;
      EXPECT_EQ(tt_res.score, ref_res.score);  // bitwise
      // The caches must actually fire: the table serves repeat lookups,
      // and the reference pays at least as many model evaluations.
      EXPECT_GT(tt_res.tt_hits, 0) << "kind=" << kind;
      EXPECT_EQ(ref_res.tt_hits, 0) << "kind=" << kind;
      EXPECT_GE(ref_scorer.evaluations(), tt_scorer.evaluations());
      EXPECT_GE(ref_res.subgraphs_scored, tt_res.subgraphs_scored);
    }
  }
}

}  // namespace
}  // namespace fexiot
