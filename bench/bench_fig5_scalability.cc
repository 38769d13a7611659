// Figure 5: scalability — client-accuracy box plots for 25/50/75/100
// clients, IFTTT dataset (GIN) and heterogeneous dataset (MAGNN), alpha=1.
//
// Paper: third-quartile accuracy stays >= ~0.86 as clients grow; spread
// widens at 100 clients because per-client data shrinks.

#include "bench_common.h"
#include "federated/fl_simulator.h"
#include "graph/corpus.h"
#include "ml/metrics.h"

using namespace fexiot;
using namespace fexiot::bench;

namespace {

void RunDataset(const char* name, const CorpusOptions& copt, GnnType type,
                const std::vector<int>& client_counts) {
  std::printf("\n--- %s dataset (%s) ---\n", name, GnnTypeName(type));
  TablePrinter table({"clients", "min", "q1", "median", "q3", "max"});
  for (int clients : client_counts) {
    Rng rng(9000 + static_cast<uint64_t>(clients));
    // Dataset size fixed (the paper's point: more clients = less data
    // per client).
    const int total = Scaled(900, 400);
    FederatedCorpus corpus = BuildClusteredFederatedCorpus(
        copt, total, clients, /*num_clusters=*/4, /*alpha=*/1.0,
        /*profile_strength=*/0.7, &rng);

    GnnConfig gc;
    gc.type = type;
    gc.hidden_dim = 24;
    gc.embedding_dim = 24;
    FlConfig fc;
    fc.num_rounds = Scaled(8, 6);
    fc.local.epochs = 2;
    fc.local.learning_rate = 0.02;
    fc.local.margin = 3.0;
    fc.local.pairs_per_sample = 2.0;
    fc.min_cluster_size = std::max(4, clients / 6);

    FederatedSimulator sim(gc, fc);
    sim.SetupClients(corpus.data, corpus.partition, corpus.cluster_tests);
    const FlResult res = sim.Run(FlAlgorithm::kFexiot).value();
    std::vector<double> accs;
    for (const auto& m : res.client_metrics) accs.push_back(m.accuracy);
    const BoxStats box = ComputeBoxStats(accs);
    table.AddRow({std::to_string(clients), Fmt(box.min), Fmt(box.q1),
                  Fmt(box.median), Fmt(box.q3), Fmt(box.max)});
  }
  table.Print();
}

}  // namespace

int main() {
  PrintHeader("Figure 5", "FexIoT accuracy distribution vs client count");

  // Client counts scale down for the smoke budget; FEXIOT_SCALE>=2
  // restores the paper's 25..100 sweep.
  std::vector<int> counts;
  if (Scale() >= 2.0) {
    counts = {25, 50, 75, 100};
  } else {
    counts = {10, 20, 30, 40};
  }

  CorpusOptions ifttt;
  ifttt.platforms = {Platform::kIfttt};
  ifttt.min_nodes = 4;
  ifttt.max_nodes = 20;
  ifttt.vulnerable_fraction = 0.3;
  RunDataset("IFTTT", ifttt, GnnType::kGin, counts);

  CorpusOptions hetero;
  hetero.platforms = {Platform::kSmartThings, Platform::kHomeAssistant,
                      Platform::kIfttt, Platform::kGoogleAssistant,
                      Platform::kAlexa};
  hetero.min_nodes = 4;
  hetero.max_nodes = 20;
  hetero.vulnerable_fraction = 0.3;
  RunDataset("heterogeneous", hetero, GnnType::kMagnn, counts);

  std::printf(
      "\nPaper reference: Q3 accuracies 0.869/0.879/0.882/0.873 for\n"
      "25/50/75/100 clients (IFTTT). Shape check: the median/Q3 stay high\n"
      "as clients increase while min-max spread widens (fixed dataset\n"
      "split over more clients).\n");
  return 0;
}
