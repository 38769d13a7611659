// federate: FexIoT's Algorithm 1 on the event runtime, timed per
// FederatedSimulator::Run.
//
// 48 clients share 960 corpus graphs of 3-10 nodes (about 6.6 nodes, the
// paper's shapes) from two latent household clusters; a GIN (hidden 12)
// trains for 20 rounds with per-round evaluation. The runtime retries lost
// updates after a timeout, drops 15% of uplinks, slows every 4th client
// down 4x, and the fleet is mixed: even clients send int8, odd ones fp64.
// Every timed Run starts from a fresh simulator on the same inputs, so
// every Run must return the same FlResult.
//
// Run is a single call, and Algorithm 1's per-round aggregation (layer-wise
// clustering and lazy sync) is private to FederatedSimulator. The second
// half of a traced run therefore replays plain FedAvg rounds of the same
// federation through the public per-phase calls
// (FederatedRuntime::ExecuteRound, FlClient::LocalTrain, CodecRoundTrip,
// StreamingAccumulator, FlClient::EvaluateLocal), mirroring what
// Run(FlAlgorithm::kFedAvg) does per round. Its per-layer shares attribute
// a FedAvg round, a proxy for an Algorithm 1 round: local training,
// evaluation, runtime and codecs are the same calls in both, only the
// aggregation differs. The replay's residual is measured against an
// untraced Run(FlAlgorithm::kFedAvg), not against the timed Algorithm 1
// Runs.

#include <algorithm>

#include "common.h"
#include "common/parallel.h"
#include "federated/fl_simulator.h"
#include "graph/corpus.h"
#include "runtime/codec.h"
#include "runtime/message.h"

namespace fexiot {
namespace e2e {
namespace {

struct FederateState {
  FederatedCorpus corpus;
  GnnConfig gnn;
  FlConfig fl;
  std::string warmup_digest;
};

FlConfig MakeFlConfig(int clients, int rounds) {
  FlConfig fc;
  fc.num_rounds = rounds;
  fc.local.epochs = 1;
  fc.local.learning_rate = 0.02;
  fc.local.margin = 3.0;
  fc.min_cluster_size = 3;
  fc.eval_each_round = true;
  fc.threads = static_cast<int>(parallel::NumThreads());
  RuntimeConfig& rc = fc.runtime;
  rc.policy = RoundPolicy::kTimeoutRetry;
  rc.retry_timeout_s = 1.0;
  rc.max_retries = 6;
  rc.train_seconds_per_graph = 0.02;
  rc.default_down.latency_s = 0.05;
  rc.default_down.bandwidth_bps = 2e6;
  rc.default_up.latency_s = 0.1;
  rc.default_up.bandwidth_bps = 1e6;
  rc.default_up.jitter_s = 0.02;
  rc.default_up.loss_prob = 0.15;
  rc.faults.resize(static_cast<size_t>(clients));
  for (int c = 3; c < clients; c += 4) {
    rc.faults[static_cast<size_t>(c)].slowdown = 4.0;
  }
  for (int c = 0; c < clients; ++c) {
    rc.client_codecs.push_back(c % 2 == 0 ? WireCodec::kInt8 : WireCodec::kFp64);
  }
  return fc;
}

std::unique_ptr<FederatedSimulator> MakeSimulator(const FederateState& s) {
  auto sim = std::make_unique<FederatedSimulator>(s.gnn, s.fl);
  sim->SetupClients(s.corpus.data, s.corpus.partition, s.corpus.cluster_tests);
  return sim;
}

std::string DigestResult(const FlResult& r) {
  Digest d;
  d.F64(r.mean.accuracy);
  d.F64(r.mean.f1);
  d.F64(r.accuracy_std);
  d.F64(r.total_uplink_wire_bytes);
  d.F64(r.total_downlink_wire_bytes);
  d.F64(r.total_sim_time_s);
  d.F64(r.total_retransmit_bytes);
  for (const ClassificationMetrics& m : r.client_metrics) d.F64(m.accuracy);
  for (const FlRoundStats& st : r.rounds) {
    d.U64(static_cast<uint64_t>(st.participants));
    d.U64(static_cast<uint64_t>(st.delivered));
    d.U64(static_cast<uint64_t>(st.num_clusters));
    d.F64(st.mean_local_loss);
    d.F64(st.mean_accuracy);
  }
  for (int c : r.client_cluster) d.U64(static_cast<uint64_t>(c));
  return Hex(d.value());
}

/// One timed Run on a fresh simulator (construction is not timed).
Result<FlResult> TimedRun(const FederateState& s, FlAlgorithm algorithm,
                          double* wall_s) {
  std::unique_ptr<FederatedSimulator> sim = MakeSimulator(s);
  const int64_t t0 = NowNs();
  Result<FlResult> r = sim->Run(algorithm);
  *wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return r;
}

std::unique_ptr<FederateState> Setup(const Options& opts) {
  auto s = std::make_unique<FederateState>();
  const int clients = opts.smoke ? 8 : 48;
  CorpusOptions copt;
  copt.platforms = {Platform::kIfttt};
  copt.min_nodes = 3;
  copt.max_nodes = 10;
  copt.vulnerable_fraction = 0.35;
  Rng rng(0xFED0000000000000ULL ^ opts.seed);
  s->corpus = BuildClusteredFederatedCorpus(copt, opts.smoke ? 160 : 960,
                                            clients, 2, /*alpha=*/1.0,
                                            /*profile_strength=*/0.6, &rng);
  s->gnn.type = GnnType::kGin;
  s->gnn.hidden_dim = 12;
  s->gnn.embedding_dim = 12;
  s->fl = MakeFlConfig(clients, opts.smoke ? 4 : 20);
  double wall = 0.0;
  // The warm-up Run.
  Result<FlResult> warm = TimedRun(*s, FlAlgorithm::kFexiot, &wall);
  if (!warm.ok()) return nullptr;
  s->warmup_digest = DigestResult(warm.value());
  return s;
}

struct ReplayCounters {
  double participants = 0, delivered = 0;
  double uplink_bytes = 0, retransmit_bytes = 0;
  double train_ns = 0, train_graphs = 0;
};

/// Replays one FedAvg federation round by round through the public
/// per-phase calls, each phase in its own span, as Run(kFedAvg) runs it:
/// every layer is exchanged, delivered updates cross their client's uplink
/// codec, and the weighted mean crosses each delivered client's downlink
/// codec on its way back. Returns the replay's wall seconds.
double Replay(const FederateState& s, Tracer* tr, ReplayCounters* c) {
  std::unique_ptr<FederatedSimulator> sim = MakeSimulator(s);
  const size_t n = sim->num_clients();
  const int layers = sim->client(0)->num_layers();
  const RuntimeConfig& rc = s.fl.runtime;
  FederatedRuntime runtime(rc, static_cast<int>(n));
  std::vector<WireCodec> codec(n, rc.wire_codec);
  std::vector<double> wire_bytes(n, 0.0), train_s(n), weight(n);
  for (size_t i = 0; i < n; ++i) {
    if (i < rc.client_codecs.size()) codec[i] = rc.client_codecs[i];
    for (int l = 0; l < layers; ++l) {  // one message per layer
      wire_bytes[i] += static_cast<double>(
          MessageWireBytes(sim->client(0)->model()->LayerSize(l), codec[i]));
    }
    weight[i] = static_cast<double>(sim->client(i)->num_train_graphs());
    train_s[i] = rc.train_seconds_per_graph * weight[i] * s.fl.local.epochs;
  }
  auto evaluate = [&]() {
    ScopedSpan span(tr, "federated.evaluate", -1);
    parallel::For(n, [&](size_t i) { (void)sim->client(i)->EvaluateLocal(); });
  };
  const int64_t start = NowNs();
  for (int round = 0; round < s.fl.num_rounds; ++round) {
    RoundOutcome out;
    {
      ScopedSpan span(tr, "runtime.execute_round", round);
      out = runtime.ExecuteRound(round, wire_bytes, wire_bytes, train_s);
    }
    c->participants += static_cast<double>(out.participants.size());
    c->delivered += static_cast<double>(out.delivered.size());
    c->uplink_bytes += out.uplink_wire_bytes;
    c->retransmit_bytes += out.retransmit_bytes;
    {
      ScopedSpan span(tr, "federated.local_train", round);
      std::vector<int64_t> ns(out.participants.size());
      parallel::For(out.participants.size(), [&](size_t k) {
        const int64_t t0 = NowNs();
        (void)sim->client(static_cast<size_t>(out.participants[k]))->LocalTrain();
        ns[k] = NowNs() - t0;
      });
      for (size_t k = 0; k < ns.size(); ++k) {
        c->train_ns += static_cast<double>(ns[k]);
        c->train_graphs += weight[static_cast<size_t>(out.participants[k])];
      }
    }
    // What the server reads off the wire: each delivered layer after its
    // client's codec.
    std::vector<std::vector<std::vector<double>>> received(out.delivered.size());
    {
      ScopedSpan span(tr, "runtime.codec", round);
      for (size_t k = 0; k < out.delivered.size(); ++k) {
        const size_t cid = static_cast<size_t>(out.delivered[k]);
        for (int l = 0; l < layers; ++l) {
          received[k].push_back(sim->client(cid)->LayerWeights(l));
          CodecRoundTrip(codec[cid], &received[k].back());
        }
      }
    }
    std::vector<std::vector<double>> means(static_cast<size_t>(layers));
    {
      ScopedSpan span(tr, "federated.aggregate", round);
      for (int l = 0; l < layers; ++l) {
        StreamingAccumulator acc;
        for (size_t k = 0; k < out.delivered.size(); ++k) {
          acc.Add(weight[static_cast<size_t>(out.delivered[k])],
                  received[k][static_cast<size_t>(l)]);
        }
        means[static_cast<size_t>(l)] = acc.Mean();
      }
    }
    {
      ScopedSpan span(tr, "runtime.codec", round);
      for (int cid : out.delivered) {
        for (int l = 0; l < layers; ++l) {
          std::vector<double> installed = means[static_cast<size_t>(l)];
          if (installed.empty()) continue;
          CodecRoundTrip(codec[static_cast<size_t>(cid)], &installed);
          sim->client(static_cast<size_t>(cid))->SetLayerWeights(l, installed);
        }
      }
    }
    evaluate();
  }
  evaluate();  // the final evaluation Run also makes
  return static_cast<double>(NowNs() - start) * 1e-9;
}

}  // namespace

void RunFederate(const Options& opts, Tracer* tracer, Report* report) {
  std::unique_ptr<FederateState> s = RepeatedSetup<FederateState>(
      opts, report, [&](int) { return Setup(opts); });
  if (s == nullptr) {
    report->Check(false, "set-up failed (warm-up Run)");
    return;
  }
  std::vector<double> walls;
  FlResult last;
  const int64_t limit =
      NowNs() + static_cast<int64_t>(opts.untraced_seconds() * 1e9);
  bool deterministic = true;
  do {
    double wall = 0.0;
    Result<FlResult> r = TimedRun(*s, FlAlgorithm::kFexiot, &wall);
    ++report->attempted;
    if (!r.ok()) {
      ++report->failed;
      continue;
    }
    walls.push_back(wall);
    deterministic = deterministic && DigestResult(r.value()) == s->warmup_digest;
    last = std::move(r).value();
  } while (NowNs() < limit);
  report->Metric("peak_rss_mb", PeakRssMiB(), "MiB");
  report->Check(deterministic, "a Run's FlResult differs from the warm-up Run");
  report->Check(!walls.empty(), "no Run succeeded");
  if (walls.empty()) return;
  const LatencySummary lat = Summarize(walls);
  const double median_wall = Percentile(walls, 50.0);
  report->Metric("throughput_per_s",
                 Ratio(static_cast<double>(s->fl.num_rounds), median_wall), "1/s");
  report->Metric("latency_p50_ms", lat.p50 * 1e3, "ms");
  report->Metric("latency_p95_ms", lat.p95 * 1e3, "ms");
  report->info["latency_samples"] = static_cast<double>(lat.count);
  report->info["latency_max_ms"] = lat.max * 1e3;
  report->info["accuracy"] = last.mean.accuracy;
  report->info["f1"] = last.mean.f1;
  report->info["uplink_mb"] = last.total_uplink_wire_bytes / (1024.0 * 1024.0);
  report->info["sim_time_s"] = last.total_sim_time_s;
  if (!opts.smoke) {
    report->Check(last.mean.f1 >= 0.4, "mean client F1 below floor");
  }

  if (!opts.trace) return;
  // Alternate an untraced Run(kFedAvg), the replay's reference, with an
  // untraced and a traced replay (swapping their order every round), so
  // host drift hits all three alike.
  std::vector<double> fedavg, plain, traced;
  ReplayCounters c, unused;
  Tracer off(false);
  const int64_t trace_limit =
      NowNs() + static_cast<int64_t>(opts.traced_seconds() * 1e9);
  do {
    double wall = 0.0;
    report->Check(TimedRun(*s, FlAlgorithm::kFedAvg, &wall).ok(),
                  "Run(kFedAvg) failed");
    fedavg.push_back(wall);
    if (fedavg.size() % 2 == 1) plain.push_back(Replay(*s, &off, &unused));
    traced.push_back(Replay(*s, tracer, &c));
    if (fedavg.size() % 2 == 0) plain.push_back(Replay(*s, &off, &unused));
  } while (NowNs() < trace_limit);
  double traced_total = 0.0;
  for (double w : traced) traced_total += w;
  report->traced_worker_s = traced_total;
  const double fedavg_wall = Percentile(fedavg, 50.0);
  report->info["fedavg_run_ms"] = fedavg_wall * 1e3;
  report->Layer("federated.round_residual_frac",
                1.0 - Ratio(tracer->TopLevelSeconds() / static_cast<double>(traced.size()),
                            fedavg_wall),
                "fraction");
  report->Layer("runtime.delivered_frac", Ratio(c.delivered, c.participants),
                "fraction");
  report->Layer("runtime.retransmit_frac",
                Ratio(c.retransmit_bytes, c.uplink_bytes), "fraction");
  report->info["federated.local_train_us_per_graph"] =
      Ratio(c.train_ns * 1e-3, c.train_graphs);
  double nodes = 0, edges = 0, flops = 0, graphs = 0;
  for (const InteractionGraph& g : s->corpus.data.graphs()) {
    const PreparedGraph p = PrepareGraph(g, s->gnn);
    nodes += g.num_nodes();
    edges += g.num_edges();
    flops += ForwardFlops(s->gnn, p.num_nodes, p.prop_csr.nnz());
    ++graphs;
  }
  report->Layer("graph.nodes_per_item", Ratio(nodes, graphs), "count");
  report->Layer("graph.edges_per_item", Ratio(edges, graphs), "count");
  report->Layer("gnn.flops_per_forward", Ratio(flops, graphs), "count");
  report->Layer("trace.overhead_frac",
                1.0 - Ratio(Percentile(plain, 50.0), Percentile(traced, 50.0)),
                "fraction");
}

}  // namespace e2e
}  // namespace fexiot
