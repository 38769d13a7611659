// Figure 8: qualitative explanation comparison + explain-engine sweep.
//
// Paper: two example graphs; FexIoT identifies a concise subgraph (even
// correcting a GCN false positive with a minimal misleading explanation),
// while SubgraphX / MCTS_GNN select larger subgraphs that confuse the
// inspector. Here we print the chosen subgraphs plus the ground-truth
// witness so conciseness and witness coverage can be compared directly.
//
// The second half benchmarks the parallel explanation engine on the same
// workload: the memo-free serial reference search vs. the full engine
// (transposition table + score memo + batched leaf inference) at 1/2/4
// threads, writing bench/results/BENCH_explain.json. Engine results are
// bit-identical across thread counts (asserted via a content digest); the
// speedup over the reference comes from reward reuse and block-diagonal
// batching, so it holds even on a single-core host. Both modes score
// subsets from the scorer's cached first-layer rows; each record carries
// the rows served and the distinct rows computed.

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "explain/explainer.h"
#include "gnn/trainer.h"
#include "graph/corpus.h"
#include "ml/linear_model.h"
#include "tensor/gemm.h"

#ifndef FEXIOT_BUILD_TYPE
#define FEXIOT_BUILD_TYPE "unknown"
#endif

using namespace fexiot;
using namespace fexiot::bench;

namespace {

struct ExplainRecord {
  std::string mode;
  size_t threads = 1;
  double wall_seconds = 0.0;
  double speedup_vs_serial = 0.0;
  long long model_evals = 0;
  long long tt_hits = 0;
  long long score_memo_hits = 0;
  long long reward_lookups = 0;  // tt_hits + unique rewards computed
  int subgraphs_scored = 0;
  long long rows_served = 0;     // first-layer rows the evaluations read
  long long rows_computed = 0;   // distinct ones run through layer 0
  uint64_t digest = 0;
};

/// Runs the full fig8 explanation workload (every graph x every explainer)
/// in one engine configuration and fingerprints the results.
ExplainRecord RunConfig(const std::vector<InteractionGraph>& graphs,
                        const GnnModel& model, const SgdClassifier& head,
                        SearchOptions sopt, bool engine, size_t threads) {
  ExplainRecord rec;
  rec.mode = engine ? "engine" : "reference_serial";
  rec.threads = threads;
  sopt.reuse_rewards = engine;
  parallel::SetThreads(threads);
  Fnv1a digest;  // fingerprints every decision bit of the run
  Stopwatch watch;
  for (size_t e = 0; e < graphs.size(); ++e) {
    for (int kind = 0; kind < 3; ++kind) {
      GnnGraphScorer scorer(&model, &head, &graphs[e]);
      scorer.set_memoize(engine);
      std::unique_ptr<Explainer> ex;
      switch (kind) {
        case 0: ex = std::make_unique<ShapMcbsExplainer>(sopt); break;
        case 1: ex = std::make_unique<SubgraphXExplainer>(sopt); break;
        default: ex = std::make_unique<MctsGnnExplainer>(sopt); break;
      }
      Rng rng(4200 + 10 * static_cast<uint64_t>(e) +
              static_cast<uint64_t>(kind));
      const ExplanationResult res = ex->Explain(scorer, &rng);
      const FidelitySparsity fs =
          EvaluateExplanation(scorer, res.subgraph_nodes);
      digest.U64(res.subgraph_nodes.size());
      for (int v : res.subgraph_nodes) {
        digest.U64(static_cast<uint32_t>(v));
      }
      digest.Double(res.score);
      digest.Double(fs.fidelity);
      digest.Double(fs.sparsity);
      rec.model_evals += scorer.evaluations();
      rec.tt_hits += res.tt_hits;
      rec.score_memo_hits += scorer.memo_hits();
      rec.subgraphs_scored += res.subgraphs_scored;
      rec.rows_served += scorer.rows_served();
      rec.rows_computed += scorer.rows_computed();
    }
  }
  rec.wall_seconds = watch.ElapsedSeconds();
  rec.reward_lookups = rec.tt_hits + rec.subgraphs_scored;
  rec.digest = digest.digest();
  parallel::SetThreads(0);
  return rec;
}

bool WriteJson(const std::string& path,
               const std::vector<ExplainRecord>& records,
               bool bit_identical) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"explain\",\n");
  std::fprintf(f, "  \"version\": 2,\n");
  std::fprintf(f,
               "  \"sweep\": \"reference serial search vs parallel engine "
               "(transposition table + score memo + batched leaves) at "
               "1/2/4 threads; both score subsets from cached first-layer "
               "rows\",\n");
  std::fprintf(f, "  \"isa\": \"%s\",\n", gemm::ActiveKernel().name);
  std::fprintf(f, "  \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"build_type\": \"%s\",\n", FEXIOT_BUILD_TYPE);
  std::fprintf(f, "  \"bit_identical_across_threads\": %s,\n",
               bit_identical ? "true" : "false");
  std::fprintf(f, "  \"records\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const ExplainRecord& r = records[i];
    const double hit_rate =
        r.reward_lookups > 0
            ? static_cast<double>(r.tt_hits) /
                  static_cast<double>(r.reward_lookups)
            : 0.0;
    const double row_reuse =
        r.rows_served > 0 ? 1.0 - static_cast<double>(r.rows_computed) /
                                      static_cast<double>(r.rows_served)
                          : 0.0;
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"threads\": %zu, "
        "\"wall_seconds\": %.4f, \"speedup_vs_serial\": %.2f, "
        "\"model_evals\": %lld, \"tt_hits\": %lld, "
        "\"tt_hit_rate\": %.3f, \"score_memo_hits\": %lld, "
        "\"subgraphs_scored\": %d, \"rows_served\": %lld, "
        "\"rows_computed\": %lld, \"row_reuse\": %.3f, "
        "\"digest\": \"%016llx\"}%s\n",
        r.mode.c_str(), r.threads, r.wall_seconds, r.speedup_vs_serial,
        r.model_evals, r.tt_hits, hit_rate, r.score_memo_hits,
        r.subgraphs_scored, r.rows_served, r.rows_computed, row_reuse,
        static_cast<unsigned long long>(r.digest),
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("Figure 8", "qualitative explanation examples + engine sweep");

  Rng rng(88);
  CorpusOptions copt;
  copt.platforms = {Platform::kIfttt};
  copt.min_nodes = 6;
  copt.max_nodes = 12;
  copt.vulnerable_fraction = 0.5;
  GraphCorpusGenerator gen(copt, &rng);
  GraphDataset train(gen.GenerateDataset(Scaled(300, 150)));

  GnnConfig gc;
  gc.type = GnnType::kGcn;  // the paper explains GCN predictions
  gc.hidden_dim = 24;
  gc.embedding_dim = 24;
  GnnModel model(gc);
  TrainConfig tc;
  tc.epochs = Scaled(18, 12);
  tc.learning_rate = 0.02;
  tc.margin = 3.0;
  tc.pairs_per_sample = 2.0;
  GnnTrainer trainer(&model, tc);
  const auto prepared = PrepareDataset(train, gc);
  trainer.Train(prepared, &rng);
  SgdClassifier head;
  std::vector<int> y = train.Labels();
  (void)head.Fit(trainer.Embed(prepared), y);

  SearchOptions sopt;
  sopt.iterations = Scaled(6, 4);
  sopt.beam_width = 3;
  sopt.max_subgraph_nodes = 4;
  sopt.shap_samples = 12;

  // Two vulnerable examples of different types.
  std::vector<InteractionGraph> examples;
  examples.push_back(gen.GenerateVulnerable(VulnerabilityType::kActionLoop));
  examples.push_back(
      gen.GenerateVulnerable(VulnerabilityType::kConditionBypass));

  for (size_t e = 0; e < examples.size(); ++e) {
    const InteractionGraph& g = examples[e];
    std::printf("\n=== Example %zu: %s graph with %d rules ===\n", e + 1,
                VulnerabilityTypeName(g.vulnerability()), g.num_nodes());
    for (int i = 0; i < g.num_nodes(); ++i) {
      std::printf("  [%d] %s\n", i, g.node(i).rule.description.c_str());
    }
    std::printf("  ground-truth witness:");
    for (int w : g.witness()) std::printf(" %d", w);
    std::printf("\n");

    std::vector<std::unique_ptr<Explainer>> explainers;
    explainers.push_back(std::make_unique<ShapMcbsExplainer>(sopt));
    explainers.push_back(std::make_unique<SubgraphXExplainer>(sopt));
    explainers.push_back(std::make_unique<MctsGnnExplainer>(sopt));
    const std::set<int> witness(g.witness().begin(), g.witness().end());
    for (auto& ex : explainers) {
      GnnGraphScorer scorer(&model, &head, &g);
      const ExplanationResult res = ex->Explain(scorer, &rng);
      int covered = 0;
      for (int v : res.subgraph_nodes) covered += witness.count(v) ? 1 : 0;
      std::printf("  %-10s -> subgraph {", ex->Name().c_str());
      for (size_t i = 0; i < res.subgraph_nodes.size(); ++i) {
        std::printf("%s%d", i ? "," : "", res.subgraph_nodes[i]);
      }
      std::printf("} score=%.3f witness_overlap=%d/%zu evals=%d\n",
                  res.score, covered, witness.size(),
                  res.model_evaluations);
    }
  }
  std::printf(
      "\nShape check: FexIoT's subgraph is concise and overlaps the\n"
      "ground-truth witness chain; the baselines tend to keep more\n"
      "peripheral nodes for the same witness coverage.\n");

  // ---- Explain-engine sweep (PR 9) --------------------------------------
  std::printf("\n=== Explain engine: reference serial vs parallel engine ===\n");
  struct Config {
    bool engine;
    size_t threads;
  };
  const std::vector<Config> configs = {
      {false, 1}, {true, 1}, {true, 2}, {true, 4}};
  // Median-of-3 walls, repeats interleaved round-robin across configs so
  // host drift doesn't fold into the speedup ratios; counters and digests
  // are deterministic and asserted equal across repeats.
  const int repeats = 3;
  std::vector<std::vector<ExplainRecord>> runs(configs.size());
  RunConfig(examples, model, head, sopt, true, 1);  // warm-up
  for (int r = 0; r < repeats; ++r) {
    for (size_t c = 0; c < configs.size(); ++c) {
      runs[c].push_back(RunConfig(examples, model, head, sopt,
                                  configs[c].engine, configs[c].threads));
    }
  }
  std::vector<ExplainRecord> records;
  for (std::vector<ExplainRecord>& rs : runs) {
    std::vector<double> walls;
    for (const ExplainRecord& rr : rs) {
      walls.push_back(rr.wall_seconds);
      if (rr.digest != rs.front().digest) {
        std::fprintf(stderr, "FAIL: digest varies across repeats\n");
        return 1;
      }
    }
    ExplainRecord med = rs.front();
    med.wall_seconds = MedianSeconds(walls);
    records.push_back(med);
  }
  const double serial_wall = records.front().wall_seconds;
  bool bit_identical = true;
  for (ExplainRecord& r : records) {
    r.speedup_vs_serial =
        r.wall_seconds > 0.0 ? serial_wall / r.wall_seconds : 0.0;
    if (r.mode == "engine" && r.digest != records[1].digest) {
      bit_identical = false;
    }
  }
  if (!bit_identical) {
    std::fprintf(stderr,
                 "FAIL: engine digests differ across thread counts\n");
  }

  TablePrinter table({"mode", "threads", "wall s", "speedup", "model evals",
                      "tt_hits", "memo_hits", "rows served", "rows computed",
                      "digest"});
  for (const ExplainRecord& r : records) {
    char dig[20];
    std::snprintf(dig, sizeof(dig), "%016llx",
                  static_cast<unsigned long long>(r.digest));
    table.AddRow({r.mode, std::to_string(r.threads), Fmt(r.wall_seconds, 3),
                  Fmt(r.speedup_vs_serial, 2), std::to_string(r.model_evals),
                  std::to_string(r.tt_hits),
                  std::to_string(r.score_memo_hits),
                  std::to_string(r.rows_served),
                  std::to_string(r.rows_computed), dig});
  }
  table.Print();
  std::printf(
      "\nThe engine's speedup over the reference search is structural —\n"
      "transposition-table reward reuse, the subset-hash score memo, and\n"
      "block-diagonal leaf batching — so it survives a single-core host;\n"
      "extra threads additionally parallelize reward evaluation. All\n"
      "engine rows share one digest: results are bit-identical for every\n"
      "FEXIOT_THREADS.\n");

  const std::string out = argc > 1 ? argv[1] : "BENCH_explain.json";
  return WriteJson(out, records, bit_identical) && bit_identical ? 0 : 1;
}
