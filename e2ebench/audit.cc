// audit-logs and audit-graphs: the offline audit path of Tables II and III.
//
// One closed-loop auditor per worker thread, each with its own FexIoT
// pipeline, takes its share of the items in fixed order (repeating passes)
// one at a time: audit-logs fuses a raw 3 h event-log window first
// (FexIoT::Fuse), then both workloads run FexIoT::Analyze. Traced slices
// replace Analyze by the same public calls in the same order
// (PredictProba, split into its PrepareGraph / GnnModel::Forward / head
// parts, then DriftScore, then Explain when flagged), so its verdicts are
// bit-identical.

#include <algorithm>
#include <cstdio>
#include <optional>

#include "common.h"
#include "common/parallel.h"
#include "core/fexiot.h"
#include "core/testbed.h"
#include "graph/corpus.h"
#include "ml/metrics.h"
#include "smarthome/attacks.h"

namespace fexiot {
namespace e2e {
namespace {

/// Verdict F1 every seed clears by a wide margin; it catches a broken
/// pipeline, not a slightly worse model.
constexpr double kF1Floor = 0.5;

/// Items analyzed (and digested) by each set-up's warm-up pass.
constexpr size_t kWarmupItems = 24;

struct AuditItem {
  int home = -1;             ///< audit-logs: index into AuditState::homes
  EventLog raw;              ///< audit-logs: the raw (maybe tampered) window
  InteractionGraph graph;    ///< audit-graphs: the corpus graph
  int truth = 0;             ///< 1 = attacked or internally vulnerable
};

struct AuditState {
  FexIotConfig config;
  std::vector<Home> homes;
  std::vector<AuditItem> items;
  /// One pipeline per worker, all with the same trained model and head.
  std::vector<std::unique_ptr<FexIoT>> pipelines;
  std::string warmup_digest;
  bool pipelines_agree = true;
};

/// One analyzed item. `empty` marks a fused graph with no nodes, which
/// counts as flagged without reaching the model.
struct Outcome {
  bool empty = false;
  int label = 0;
  double probability = 0.0;
  double drift_score = 0.0;
  bool drifting = false;
  std::optional<ExplanationResult> explanation;
  int nodes = 0;
  int edges = 0;
  double flops = 0.0;

  bool flagged() const { return empty || label == 1 || drifting; }
};

FexIotConfig AuditConfig(bool logs) {
  FexIotConfig c;
  c.gnn.type = GnnType::kGin;
  c.gnn.hidden_dim = 24;
  c.gnn.embedding_dim = 24;
  c.train.learning_rate = 0.02;
  c.train.margin = 3.0;
  c.train.pairs_per_sample = logs ? 4.0 : 1.0;
  c.train.epochs = logs ? 12 : 8;
  return c;
}

// ---------------------------------------------------------------------------
// Inputs

/// One raw window of \p home: a 3 h simulated log, tampered with one of
/// the five HAWatcher attack classes when \p attack >= 0.
EventLog SimulateWindow(const Home& home, int attack, Rng* rng) {
  SimulationConfig sc;
  sc.duration_seconds = 3.0 * 3600.0;
  sc.exogenous_mean_gap = 120.0;
  HomeSimulator sim(home, sc, rng);
  EventLog raw = sim.Run();
  if (attack < 0) return raw;
  AttackInjector injector(home, rng);
  return injector.Inject(raw, static_cast<AttackType>(attack), 0.45).log;
}

/// \p windows raw windows per home of \p s, half of them attacked (attack
/// classes cycle). Window content is a pure function of (stream, home,
/// window), generated in parallel.
std::vector<AuditItem> BuildLogWindows(const AuditState& s, uint64_t stream,
                                       int windows) {
  const Rng root(stream);
  const size_t homes = s.homes.size();
  std::vector<AuditItem> out(homes * static_cast<size_t>(windows));
  const FexIoT fuser(s.config);
  parallel::For(out.size(), [&](size_t i) {
    AuditItem& item = out[i];
    item.home = static_cast<int>(i % homes);
    const size_t w = i / homes;
    Rng wr = root.ForkAt(i);
    const bool attacked = w % 2 == 0;
    const int attack =
        attacked ? static_cast<int>((w / 2) % kNumAttackTypes) : -1;
    const Home& home = s.homes[static_cast<size_t>(item.home)];
    item.raw = SimulateWindow(home, attack, &wr);
    const InteractionGraph g = fuser.Fuse(home, item.raw);
    item.truth = (attacked || g.label() == 1) ? 1 : 0;
  });
  return out;
}

// ---------------------------------------------------------------------------
// Analysis paths

const InteractionGraph& GraphOf(const AuditState& s, const FexIoT& p,
                                const AuditItem& item, InteractionGraph* fused) {
  if (item.home < 0) return item.graph;
  *fused = p.Fuse(s.homes[static_cast<size_t>(item.home)], item.raw);
  return *fused;
}

/// The untraced path: Fuse (audit-logs) then FexIoT::Analyze.
Outcome AnalyzeItem(const AuditState& s, const FexIoT& p, const AuditItem& item) {
  Outcome o;
  InteractionGraph fused;
  const InteractionGraph& g = GraphOf(s, p, item, &fused);
  o.nodes = g.num_nodes();
  o.edges = g.num_edges();
  if (o.nodes == 0) {
    o.empty = true;
    return o;
  }
  FexIoT::Verdict v = p.Analyze(g);
  o.label = v.label;
  o.probability = v.probability;
  o.drift_score = v.drift_score;
  o.drifting = v.drifting;
  o.explanation = std::move(v.explanation);
  return o;
}

/// The traced path: the public calls Analyze makes, each in its own span.
Outcome TracedItem(const AuditState& s, FexIoT& p, const AuditItem& item,
                   int64_t id, Tracer* tr) {
  Outcome o;
  InteractionGraph fused;
  const InteractionGraph* g = &item.graph;
  if (item.home >= 0) {
    ScopedSpan span(tr, "core.fuse", id);
    g = &GraphOf(s, p, item, &fused);
  }
  o.nodes = g->num_nodes();
  o.edges = g->num_edges();
  if (o.nodes == 0) {
    o.empty = true;
    return o;
  }
  {
    ScopedSpan predict(tr, "core.predict", id);
    PreparedGraph prepared;
    {
      ScopedSpan span(tr, "gnn.prepare", id);
      prepared = PrepareGraph(*g, s.config.gnn);
    }
    std::vector<double> z;
    {
      ScopedSpan span(tr, "gnn.forward", id);
      z = p.model()->Forward(prepared, nullptr);
    }
    {
      ScopedSpan span(tr, "ml.head", id);
      o.probability = p.head().PredictProba(z);
    }
    o.flops = ForwardFlops(s.config.gnn, o.nodes, prepared.prop_csr.nnz());
  }
  o.label = o.probability >= 0.5 ? 1 : 0;
  {
    ScopedSpan span(tr, "core.drift", id);
    o.drift_score = p.DriftScore(*g);
  }
  o.drifting = o.drift_score > s.config.drift.threshold;
  if (o.label == 1 && o.nodes > 1) {
    ScopedSpan span(tr, "explain.explain", id);
    o.explanation = p.Explain(*g);
  }
  return o;
}

void DigestOutcome(const Outcome& o, Digest* d) {
  d->U64(o.empty);
  d->U64(static_cast<uint64_t>(o.label));
  d->F64(o.probability);
  d->F64(o.drift_score);
  d->U64(o.drifting);
  if (o.explanation) {
    d->U64(o.explanation->subgraph_nodes.size());
    for (int n : o.explanation->subgraph_nodes) d->U64(static_cast<uint64_t>(n));
    d->F64(o.explanation->score);
    d->U64(static_cast<uint64_t>(o.explanation->model_evaluations));
  }
}

/// A well-formed outcome: finite scores, and an explanation exactly when
/// Analyze promises one (flagged by the head with more than one node),
/// naming nodes of the graph.
bool WellFormed(const Outcome& o) {
  if (o.empty) return true;
  if (!std::isfinite(o.probability) || !std::isfinite(o.drift_score)) {
    return false;
  }
  const bool want = o.label == 1 && o.nodes > 1;
  if (want != o.explanation.has_value()) return false;
  if (!o.explanation) return true;
  if (!std::isfinite(o.explanation->score)) return false;
  if (o.explanation->subgraph_nodes.empty()) return false;
  for (int n : o.explanation->subgraph_nodes) {
    if (n < 0 || n >= o.nodes) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Set-up

/// Trains the first pipeline, runs the warm-up pass on it, and gives every
/// other worker a pipeline that adopts the trained model (its head and
/// drift statistics refit on the same data, so all verdicts agree).
///
/// The warm-up pass analyzes the first items: even repetitions call
/// Analyze, odd ones the traced path's call sequence (tracing off), so
/// equal digests across repetitions show that the traced run computes
/// exactly what Analyze computes.
std::unique_ptr<AuditState> FinishSetup(std::unique_ptr<AuditState> s,
                                        const GraphDataset& train,
                                        const Options& opts, int rep) {
  auto first = std::make_unique<FexIoT>(s->config);
  if (!first->TrainLocal(train).ok()) return nullptr;
  Tracer off(false);
  Digest d;
  const size_t n = std::min(kWarmupItems, s->items.size());
  for (size_t i = 0; i < n; ++i) {
    const AuditItem& item = s->items[i];
    DigestOutcome(rep % 2 == 0 ? AnalyzeItem(*s, *first, item)
                               : TracedItem(*s, *first, item,
                                            static_cast<int64_t>(i), &off),
                  &d);
  }
  s->warmup_digest = Hex(d.value());
  s->pipelines.push_back(std::move(first));
  for (int w = 1; w < opts.workers; ++w) {
    auto p = std::make_unique<FexIoT>(s->config);
    if (!p->AdoptModel(*s->pipelines.front()->model(), train).ok()) return nullptr;
    for (size_t i = 0; i < n; ++i) {
      InteractionGraph fused;
      const InteractionGraph& g = GraphOf(*s, *p, s->items[i], &fused);
      if (g.num_nodes() == 0) continue;
      s->pipelines_agree =
          s->pipelines_agree &&
          SameBits(p->PredictProba(g), s->pipelines.front()->PredictProba(g)) &&
          SameBits(p->DriftScore(g), s->pipelines.front()->DriftScore(g));
    }
    s->pipelines.push_back(std::move(p));
  }
  return s;
}

// In both audit workloads the deployed model is the same for every seed:
// it trains on inputs from fixed streams, and only the audited items vary
// with the seed. Explain runs once per item the model flags, so a per-seed
// model would make the work per item follow that model's false-positive
// rate rather than the inputs.

std::unique_ptr<AuditState> SetupLogs(const Options& opts, int rep) {
  auto s = std::make_unique<AuditState>();
  s->config = AuditConfig(true);
  const Rng homes(0xA0D1700000000000ULL);
  const TestbedOptions topt;
  for (int h = 0; h < (opts.smoke ? 2 : 64); ++h) {
    Rng hr = homes.ForkAt(static_cast<uint64_t>(h));
    s->homes.push_back(BuildTestbedHome(topt, &hr));
  }
  GraphDataset train;
  const FexIoT fuser(s->config);
  for (const AuditItem& item :
       BuildLogWindows(*s, 0xA0D1710000000000ULL, opts.smoke ? 12 : 6)) {
    InteractionGraph g =
        fuser.Fuse(s->homes[static_cast<size_t>(item.home)], item.raw);
    if (g.num_nodes() == 0) continue;
    g.set_label(item.truth);
    train.Add(std::move(g));
  }
  s->items = BuildLogWindows(*s, 0xA0D1720000000000ULL ^ opts.seed,
                             opts.smoke ? 40 : 20);
  return FinishSetup(std::move(s), train, opts, rep);
}

std::unique_ptr<AuditState> SetupGraphs(const Options& opts, int rep) {
  auto s = std::make_unique<AuditState>();
  s->config = AuditConfig(false);
  CorpusOptions copt;
  copt.platforms = {Platform::kIfttt};
  copt.min_nodes = 10;
  copt.max_nodes = 24;
  copt.vulnerable_fraction = 0.25;
  Rng train_rng(0xA0D1760000000000ULL);
  GraphCorpusGenerator train_gen(copt, &train_rng);
  const GraphDataset train(train_gen.GenerateDataset(opts.smoke ? 24 : 200));
  Rng rng(0xA0D1770000000000ULL ^ opts.seed);
  GraphCorpusGenerator gen(copt, &rng);
  // Enough graphs that p95 latency, set by the largest flagged graphs,
  // does not hinge on how many of them one seed happened to draw.
  for (InteractionGraph& g : gen.GenerateDataset(opts.smoke ? 24 : 1920)) {
    AuditItem item;
    item.truth = g.label();
    item.graph = std::move(g);
    s->items.push_back(std::move(item));
  }
  return FinishSetup(std::move(s), train, opts, rep);
}

// ---------------------------------------------------------------------------
// Measured phase

struct Counters {
  uint64_t items = 0;
  uint64_t flagged = 0;
  uint64_t explained = 0;
  uint64_t forwards = 0;
  double nodes = 0, edges = 0, flops = 0;
  double model_evals = 0, subgraphs_scored = 0, tt_hits = 0;
  double memo_hits = 0, waves = 0;

  void Add(const Outcome& o) {
    ++items;
    nodes += o.nodes;
    edges += o.edges;
    if (o.flagged()) ++flagged;
    if (o.flops > 0.0) {
      ++forwards;
      flops += o.flops;
    }
    if (o.explanation) {
      ++explained;
      model_evals += o.explanation->model_evaluations;
      subgraphs_scored += o.explanation->subgraphs_scored;
      tt_hits += static_cast<double>(o.explanation->tt_hits);
      memo_hits += static_cast<double>(o.explanation->score_memo_hits);
      waves += o.explanation->waves;
    }
  }

  void Merge(const Counters& c) {
    items += c.items;
    flagged += c.flagged;
    explained += c.explained;
    forwards += c.forwards;
    nodes += c.nodes;
    edges += c.edges;
    flops += c.flops;
    model_evals += c.model_evals;
    subgraphs_scored += c.subgraphs_scored;
    tt_hits += c.tt_hits;
    memo_hits += c.memo_hits;
    waves += c.waves;
  }
};

/// First-pass verdict of an item; later passes must reproduce it.
struct Pinned {
  bool seen = false;
  bool empty = false;
  int label = 0;
  double probability = 0.0;
  double drift_score = 0.0;
};

/// Window of the median-of-windows throughput.
constexpr double kWindowS = 1.0;
/// Latency samples reserved per worker-second, above audit-logs' rate, so
/// a worker's sample buffer never reallocates: peak_rss_mb would show the
/// copy, and how many items a run reached would move it.
constexpr double kSamplesPerWorkerS = 20000.0;

struct Phase {
  double worker_s = 0.0;
  double throughput = 0.0;  ///< median over kWindowS windows
  std::vector<double> latency_s;
  Counters counters;
  /// VmHWM when the workers finished, before their samples were merged.
  double peak_rss_mb = 0.0;
};

/// Worker w audits items w, w + k, w + 2k, ... (k workers) in that order,
/// repeating passes, until \p seconds pass. Every item is one attempt;
/// malformed outcomes count as failures, and a verdict that differs from
/// the item's first pass is a correctness error. \p next[w] carries each
/// worker's position from one phase to the next.
Phase RunPhase(AuditState* s, double seconds, bool traced, Tracer* tracer,
               std::vector<uint64_t>* next, std::vector<Pinned>* pinned,
               Report* report) {
  const int k = static_cast<int>(s->pipelines.size());
  const size_t n = s->items.size();
  const int64_t start = NowNs();
  struct Out {
    Report report;
    Counters counters;
    std::vector<float> latency_s;  // float halves what the samples add to RSS
    WindowCounter done;
    int64_t end = 0;
  };
  std::vector<Out> outs(static_cast<size_t>(k), Out{{}, {}, {}, WindowCounter(start, kWindowS), 0});
  std::vector<Tracer> tracers;
  for (int w = 0; w < k; ++w) tracers.emplace_back(traced, w);
  const int64_t limit = start + static_cast<int64_t>(seconds * 1e9);
  RunOnWorkers(k, [&](int w) {
    Out& out = outs[static_cast<size_t>(w)];
    FexIoT& pipeline = *s->pipelines[static_cast<size_t>(w)];
    const size_t first = static_cast<size_t>(w);
    const uint64_t mine = first < n ? (n - first + k - 1) / static_cast<size_t>(k) : 0;
    uint64_t& j = (*next)[static_cast<size_t>(w)];
    out.latency_s.reserve(static_cast<size_t>(seconds * kSamplesPerWorkerS));
    bool nondeterministic = false;
    int64_t now = NowNs();
    while (mine > 0 && now < limit) {
      const size_t idx = first + static_cast<size_t>(k) * (j % mine);
      const AuditItem& item = s->items[idx];
      const Outcome o =
          traced ? TracedItem(*s, pipeline, item, static_cast<int64_t>(idx),
                              &tracers[static_cast<size_t>(w)])
                 : AnalyzeItem(*s, pipeline, item);
      const int64_t end = NowNs();
      out.latency_s.push_back(static_cast<float>(static_cast<double>(end - now) * 1e-9));
      out.done.Add(end);
      now = end;
      ++j;
      ++out.report.attempted;
      if (!WellFormed(o)) ++out.report.failed;
      out.counters.Add(o);
      Pinned& p = (*pinned)[idx];
      if (!p.seen) {
        p = {true, o.empty, o.label, o.probability, o.drift_score};
      } else if (p.empty != o.empty || p.label != o.label ||
                 !SameBits(p.probability, o.probability) ||
                 !SameBits(p.drift_score, o.drift_score)) {
        nondeterministic = true;
      }
    }
    out.end = now;
    out.report.Check(!nondeterministic,
                     "an item's verdict changed between passes");
  });
  Phase ph;
  ph.peak_rss_mb = PeakRssMiB();
  int64_t first_done = limit;
  WindowCounter done(start, kWindowS);
  for (int w = 0; w < k; ++w) {
    Out& out = outs[static_cast<size_t>(w)];
    report->Merge(out.report);
    done.Merge(out.done);
    first_done = std::min(first_done, out.end);
    ph.counters.Merge(out.counters);
    ph.latency_s.insert(ph.latency_s.end(), out.latency_s.begin(),
                        out.latency_s.end());
    ph.worker_s += static_cast<double>(out.end - start) * 1e-9;
    tracer->Absorb(tracers[static_cast<size_t>(w)]);
  }
  ph.throughput = done.MedianRate(first_done);
  return ph;
}

void RunAudit(const Options& opts, Tracer* tracer, Report* report, bool logs) {
  std::unique_ptr<AuditState> s = RepeatedSetup<AuditState>(
      opts, report,
      [&](int rep) { return logs ? SetupLogs(opts, rep) : SetupGraphs(opts, rep); });
  if (s == nullptr) {
    report->Check(false, "set-up failed (TrainLocal or AdoptModel)");
    return;
  }
  report->Check(s->pipelines_agree,
                "a worker's pipeline disagrees with the trained one");
  std::vector<Pinned> pinned(s->items.size());
  std::vector<uint64_t> next(s->pipelines.size(), 0);
  const Phase base = RunPhase(s.get(), opts.untraced_seconds(), false, tracer,
                              &next, &pinned, report);
  const LatencySummary lat = Summarize(base.latency_s);
  const double items = static_cast<double>(base.counters.items);
  report->Metric("throughput_per_s", base.throughput, "1/s");
  report->Metric("latency_p50_ms", lat.p50 * 1e3, "ms");
  report->Metric("latency_p95_ms", lat.p95 * 1e3, "ms");
  report->Metric("peak_rss_mb", base.peak_rss_mb, "MiB");
  report->info["latency_p99_ms"] = lat.p99 * 1e3;
  report->info["latency_max_ms"] = lat.max * 1e3;
  report->info["latency_samples"] = static_cast<double>(lat.count);
  report->info["items"] = static_cast<double>(s->items.size());
  report->info["passes"] = Ratio(items, static_cast<double>(s->items.size()));
  report->info["flagged_frac"] =
      Ratio(static_cast<double>(base.counters.flagged), items);

  // Verdict quality over the distinct items the run reached.
  std::vector<int> truth, pred;
  for (size_t i = 0; i < s->items.size(); ++i) {
    const Pinned& p = pinned[i];
    if (!p.seen) continue;
    truth.push_back(s->items[i].truth);
    const bool drifting = p.drift_score > s->config.drift.threshold;
    pred.push_back(p.empty || p.label == 1 || drifting ? 1 : 0);
  }
  const ClassificationMetrics quality = ComputeMetrics(truth, pred);
  report->info["accuracy"] = quality.accuracy;
  report->info["f1"] = quality.f1;
  if (!opts.smoke) report->Check(quality.f1 >= kF1Floor, "F1 below floor");

  if (!opts.trace) return;
  Counters c;  // of the traced slices
  std::vector<uint64_t> pair_start;
  auto slice = [&](bool on, bool first, double seconds) {
    // Both slices of a pair audit the same items: item costs differ by
    // three orders of magnitude on audit-graphs.
    if (first) {
      pair_start = next;
    } else {
      next = pair_start;
    }
    const Phase ph =
        RunPhase(s.get(), seconds, on, tracer, &next, &pinned, report);
    if (on) {
      report->traced_worker_s += ph.worker_s;
      c.Merge(ph.counters);
    }
    return Ratio(static_cast<double>(ph.counters.items), ph.worker_s);
  };
  const double overhead = AlternateTraced(opts, slice);
  const double traced_items = static_cast<double>(c.items);
  const double explained = static_cast<double>(c.explained);
  report->Layer("graph.nodes_per_item", Ratio(c.nodes, traced_items), "count");
  report->Layer("graph.edges_per_item", Ratio(c.edges, traced_items), "count");
  report->Layer("gnn.flops_per_forward",
                Ratio(c.flops, static_cast<double>(c.forwards)), "count");
  report->Layer("explain.flagged_frac",
                Ratio(static_cast<double>(c.flagged), traced_items), "fraction");
  report->Layer("explain.model_evals_per_explain",
                Ratio(c.model_evals, explained), "count");
  report->Layer("explain.tt_hit_rate",
                Ratio(c.tt_hits, c.tt_hits + c.subgraphs_scored), "fraction");
  report->Layer("explain.memo_hit_rate",
                Ratio(c.memo_hits, c.memo_hits + c.model_evals), "fraction");
  report->Layer("explain.waves_per_explain", Ratio(c.waves, explained),
                "count");
  report->Layer("trace.overhead_frac", overhead, "fraction");
}

}  // namespace

void RunAuditLogs(const Options& opts, Tracer* tracer, Report* report) {
  RunAudit(opts, tracer, report, /*logs=*/true);
}

void RunAuditGraphs(const Options& opts, Tracer* tracer, Report* report) {
  RunAudit(opts, tracer, report, /*logs=*/false);
}

}  // namespace e2e
}  // namespace fexiot
