// serve-steady and serve-churn: the streaming detection engine under an
// open-loop Poisson load, then a saturated closed loop.
//
// Serving runs shard-per-thread: every worker thread owns one engine shard
// of 32 homes x 13 rules, served by a GCN (hidden 64) with max_batch 8 and
// a 2 ms wall-time linger. Each shard's requests are due on its own seeded
// Poisson schedule at about half a shard's capacity at seed 1 (6000 req/s
// on serve-steady, 4000 req/s on serve-churn, whose graphs change and
// carry more edges), so a queueing regression shows in latency_p95_ms
// before it shows in throughput. serve-steady ingests every home's full simulated 3 h log
// during set-up and only reads while measuring. serve-churn ingests a
// simulated first hour during set-up, then streams two hours of rule
// firings (replayed cyclically, each cycle shifted past the last) in
// timestamp order between the requests, so graph maintenance runs on the
// serving thread.
//
// serve-churn's stream is made of firings rather than simulated logs: in
// the simulated homes a rule's action rarely changes a device state (the
// device is usually in that state already), so the engine sees about two
// firings per home-hour and the interaction graphs hardly change. Firings
// at a rate that makes rules leave and re-enter the engine's active window
// keep inserting and removing interaction edges.
//
// The engine's clock is driven by the schedule, never by the wall clock:
// a request carries its due time (steady) or the log time its due time
// maps to (churn, kChurnLogPerWall log seconds per wall second), so its
// embedding is a pure function of the seed regardless of batching and
// timing. Open-loop latency runs from a request's due time to the wall
// time the call that returned its result came back.

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "common.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "serving/engine.h"
#include "smarthome/home.h"

namespace fexiot {
namespace e2e {
namespace {

constexpr int kHomesPerShard = 32;
constexpr int kRulesPerHome = 13;
constexpr int kMaxBatch = 8;
/// Open-loop request rates per shard.
constexpr double kSteadyRateHz = 6000.0;
constexpr double kChurnRateHz = 4000.0;
constexpr double kLingerWallS = 0.002;
/// Share of each measured phase or traced-run slice spent in the open
/// loop; the rest is the saturated closed loop that measures throughput.
constexpr double kOpenShare = 2.0 / 3.0;
/// serve-churn: log seconds that pass per wall second, fixed so the
/// stream delivers about 4 events per request at seed 1.
constexpr double kChurnLogPerWall = 6300.0;
constexpr double kChurnPrefixS = 3600.0;   ///< ingested during set-up
constexpr double kChurnStreamS = 7200.0;   ///< streamed while measuring
/// serve-churn: mean log seconds between two firings in one home. A rule
/// then fires about every kRulesPerHome * kFiringGapS = 585 s, close to
/// the engine's 600 s active window, so rules keep leaving the window and
/// coming back.
constexpr double kFiringGapS = 45.0;
/// Requests per shard whose embeddings set-up computes on reference
/// engines and the measured phase must reproduce bit for bit.
constexpr size_t kCheckedRequests = 1000;
/// Window of the closed loop's median-of-windows throughput.
constexpr double kWindowS = 0.5;
/// Closed-loop ops are generated up to this multiple of the open rate.
constexpr double kClosedHeadroom = 6.0;

struct SegEvent {
  double time;  ///< original log timestamp
  int home;
  int index;    ///< into World::segment[home]
};

/// Every shard's homes and logs, indexed by global home id; shard s owns
/// homes [s * kHomesPerShard, (s + 1) * kHomesPerShard), so a shard's
/// inputs do not depend on how many shards there are.
struct World {
  std::vector<Home> homes;
  std::vector<std::vector<LogEntry>> prefix;   ///< ingested at set-up
  std::vector<std::vector<LogEntry>> segment;  ///< streamed (churn)
  double scale = 1.0;  ///< engine seconds per wall second
  double rate_hz = 0.0;  ///< open-loop requests per second per shard
};

/// One step of the load: a request (entry < 0) or an ingested event.
struct Op {
  double v;         ///< virtual time: seconds on the Poisson schedule
  double engine_t;  ///< engine timestamp the op carries
  int home;
  int entry;        ///< segment entry index, -1 for a request
};

struct Shard {
  int first_home = 0;
  int num_homes = 0;
  double base = 0.0;  ///< engine time of virtual time 0
  std::vector<SegEvent> seg_events;  ///< streamed entries, time order
  /// Log-time shift between replay cycles of the stream: at least its
  /// span, so every home's timestamps keep increasing across cycles.
  double period = 0.0;
  std::vector<Op> ops;
  std::unique_ptr<StreamingDetectionEngine> engine;
  /// Reference embeddings of the first kCheckedRequests requests.
  std::vector<std::vector<double>> reference;
  std::string reference_digest;
  uint64_t parity_checks = 0;
  uint64_t parity_failures = 0;
  Report setup;  ///< correctness failures found while setting up
};

struct ServeState {
  World world;
  GnnConfig gnn;
  std::unique_ptr<GnnModel> model;
  std::vector<Shard> shards;
  std::string warmup_digest;  ///< shard 0's reference digest
};

/// A seed for stream \p tag of shard \p shard.
uint64_t StreamSeed(uint64_t seed, uint64_t tag, int shard) {
  return Rng((tag << 48) ^ seed).ForkAt(static_cast<uint64_t>(shard)).NextU64();
}

/// Appends what the engine observes when \p rule fires at log time \p t:
/// the trigger's state change, then each action's command and state change.
void AppendFiring(const Home& home, const Rule& rule, double t,
                  std::vector<LogEntry>* out) {
  auto entry = [&](double at, DeviceType device, const std::string& value,
                   LogKind kind) {
    LogEntry e;
    e.timestamp = at;
    e.device_id = home.DeviceIdFor(device);
    e.device = device;
    e.attribute = GetDeviceTypeInfo(device).attribute;
    e.value = value;
    e.kind = kind;
    e.source_rule_id = rule.id;
    out->push_back(std::move(e));
  };
  entry(t, rule.trigger.device, rule.trigger.state, LogKind::kStateChange);
  for (const Action& a : rule.actions) {
    entry(t + 0.5, a.device, a.state, LogKind::kCommand);
    entry(t + 1.0, a.device, a.state, LogKind::kStateChange);
  }
}

World BuildWorld(uint64_t seed, bool churn, int homes) {
  World w;
  w.homes.resize(static_cast<size_t>(homes));
  w.prefix.resize(static_cast<size_t>(homes));
  w.segment.resize(static_cast<size_t>(homes));
  w.scale = churn ? kChurnLogPerWall : 1.0;
  w.rate_hz = churn ? kChurnRateHz : kSteadyRateHz;
  const Rng root(0x5E7E000000000000ULL ^ seed);
  parallel::For(static_cast<size_t>(homes), [&](size_t h) {
    Rng rng = root.ForkAt(h);
    const Home& home = w.homes[h] = BuildChainedHome(
        kRulesPerHome, {Platform::kSmartThings, Platform::kHomeAssistant}, &rng);
    SimulationConfig config;
    config.duration_seconds = churn ? kChurnPrefixS : 3.0 * 3600.0;
    config.exogenous_mean_gap = 120.0;
    HomeSimulator sim(home, config, &rng);
    w.prefix[h] = std::move(sim.Run().Cleaned().mutable_entries());
    if (!churn) return;
    std::vector<LogEntry>& stream = w.segment[h];
    for (double t = kChurnPrefixS + kFiringGapS * -std::log(1.0 - rng.Uniform());
         t < kChurnPrefixS + kChurnStreamS;
         t += kFiringGapS * -std::log(1.0 - rng.Uniform())) {
      AppendFiring(home, home.rules[rng.UniformInt(home.rules.size())], t, &stream);
    }
    // Firings less than a second apart interleave.
    std::stable_sort(stream.begin(), stream.end(),
                     [](const LogEntry& a, const LogEntry& b) {
                       return a.timestamp < b.timestamp;
                     });
  });
  return w;
}

Shard MakeShard(const World& w, int index, int homes, bool churn) {
  Shard sh;
  sh.first_home = index * homes;
  sh.num_homes = homes;
  double log_end = 0.0;
  for (int h = sh.first_home; h < sh.first_home + homes; ++h) {
    const size_t hi = static_cast<size_t>(h);
    for (const LogEntry& e : w.prefix[hi]) log_end = std::max(log_end, e.timestamp);
    for (size_t i = 0; i < w.segment[hi].size(); ++i) {
      sh.seg_events.push_back({w.segment[hi][i].timestamp, h, static_cast<int>(i)});
    }
  }
  std::stable_sort(sh.seg_events.begin(), sh.seg_events.end(),
                   [](const SegEvent& a, const SegEvent& b) { return a.time < b.time; });
  sh.base = churn ? kChurnPrefixS : log_end;
  if (!sh.seg_events.empty()) {
    sh.period = std::ceil(sh.seg_events.back().time - kChurnPrefixS) + 1.0;
  }
  return sh;
}

/// The shard's whole load, in order: Poisson requests over \p horizon_v
/// virtual seconds (homes polled in a freshly shuffled order each cycle, so
/// a home rarely re-requests while pending) merged with the churn stream.
std::vector<Op> MakeTimeline(const World& w, const Shard& sh, uint64_t seed,
                             int shard, double horizon_v) {
  std::vector<Op> ops;
  const OpenLoopSchedule arrivals(w.rate_hz, StreamSeed(seed, 0xA331, shard),
                                  horizon_v);
  Rng pick(StreamSeed(seed, 0x9C1C, shard));
  std::vector<int> cycle(static_cast<size_t>(sh.num_homes));
  for (int i = 0; i < sh.num_homes; ++i) cycle[static_cast<size_t>(i)] = sh.first_home + i;
  // Events merge in by engine time, the order the engine requires; an
  // event's due time never precedes the request before it.
  size_t e = 0;
  double shift = 0.0;
  auto next_event_t = [&]() {
    if (sh.seg_events.empty()) return std::numeric_limits<double>::infinity();
    return sh.seg_events[e].time + shift;
  };
  double last_v = 0.0;
  for (size_t k = 0; k < arrivals.size(); ++k) {
    const double v = arrivals.due(k);
    const double t = sh.base + v * w.scale;
    while (next_event_t() <= t) {
      const SegEvent& se = sh.seg_events[e];
      last_v = std::max(last_v, (next_event_t() - sh.base) / w.scale);
      ops.push_back({last_v, next_event_t(), se.home, se.index});
      if (++e == sh.seg_events.size()) {
        e = 0;
        shift += sh.period;
      }
    }
    const size_t phase = k % cycle.size();
    if (phase == 0) pick.Shuffle(&cycle);
    last_v = std::max(last_v, v);
    ops.push_back({last_v, t, cycle[phase], -1});
  }
  return ops;
}

ServingConfig EngineConfig(const World& w, int max_batch, bool verify) {
  ServingConfig sc;
  sc.max_batch = max_batch;
  sc.max_linger_s = kLingerWallS * w.scale;
  sc.verify_incremental = verify;
  return sc;
}

/// A fresh engine with the shard's homes registered and their prefixes
/// ingested.
std::unique_ptr<StreamingDetectionEngine> MakeEngine(const World& w,
                                                     const Shard& sh,
                                                     const GnnModel& model,
                                                     const ServingConfig& sc) {
  auto engine = std::make_unique<StreamingDetectionEngine>(&model, sc);
  for (int h = sh.first_home; h < sh.first_home + sh.num_homes; ++h) {
    const size_t hi = static_cast<size_t>(h);
    if (!engine->AddHome(h, w.homes[hi]).ok()) return nullptr;
    for (const LogEntry& e : w.prefix[hi]) {
      if (!engine->Ingest(h, e).ok()) return nullptr;
    }
  }
  return engine;
}

/// Request ids waiting on each home, oldest first. A home has at most two:
/// a second request for a pending home makes the engine answer the first
/// before it enqueues the second, within the same call.
class PendingBook {
 public:
  explicit PendingBook(size_t homes) : by_home_(homes) {}

  void Push(int home, int64_t id) { by_home_[static_cast<size_t>(home)].push_back(id); }
  /// Removes the newest request of \p home (its call failed).
  void DropNewest(int home) { by_home_[static_cast<size_t>(home)].pop_back(); }
  /// The request a result for \p home answers, or -1 if none is pending.
  int64_t Pop(int home) {
    if (home < 0 || static_cast<size_t>(home) >= by_home_.size()) return -1;
    std::deque<int64_t>& q = by_home_[static_cast<size_t>(home)];
    if (q.empty()) return -1;
    const int64_t id = q.front();
    q.pop_front();
    return id;
  }
  /// Forgets every pending request; returns how many there were.
  size_t Clear() {
    size_t n = 0;
    for (std::deque<int64_t>& q : by_home_) {
      n += q.size();
      q.clear();
    }
    return n;
  }

 private:
  std::vector<std::deque<int64_t>> by_home_;
};

/// Runs one shard's load through ranges of its timeline and keeps the books:
/// which home has which request pending, when each was due and answered.
class ShardRunner {
 public:
  /// Request ids start at \p first_request, continuing an earlier runner's.
  ShardRunner(World* world, Shard* shard, const GnnConfig& gnn, Tracer* tracer,
         uint64_t first_request)
      : world_(world),
        shard_(shard),
        engine_(shard->engine.get()),
        gnn_(gnn),
        tracer_(tracer),
        pending_(world->homes.size()),
        next_request_(first_request) {}

  /// Open loop: sends each op when it falls due (virtual time relative to
  /// the phase's first op), advancing the engine's linger clock while idle.
  /// Returns the number of requests sent.
  uint64_t OpenLoop(size_t* cursor, double seconds) {
    const std::vector<Op>& ops = shard_->ops;
    if (*cursor >= ops.size()) return 0;
    const double v0 = ops[*cursor].v;
    const int64_t start = NowNs();
    uint64_t sent = 0;
    int wait = Tracer::kNone;
    while (*cursor < ops.size() && ops[*cursor].v - v0 < seconds) {
      const Op& op = ops[*cursor];
      const int64_t due = start + static_cast<int64_t>((op.v - v0) * 1e9);
      const int64_t now = NowNs();
      if (now < due) {
        if (wait == Tracer::kNone) wait = tracer_->Begin("loadgen.wait", -1);
        const double engine_now =
            shard_->base +
            (v0 + static_cast<double>(now - start) * 1e-9) * world_->scale;
        engine_->AdvanceTo(engine_now, &completed_);
        if (!completed_.empty()) {
          const int64_t end = NowNs();
          tracer_->Record("serving.dispatch", -1, now, end);
          Harvest(now, end, -1);
        }
        continue;
      }
      tracer_->End(wait);
      wait = Tracer::kNone;
      if (op.entry < 0) {
        late_.push_back(static_cast<double>(now - due) * 1e-9);
        due_ns_[next_request_ % kRing] = due;
        ++sent;
      }
      Execute(op);
      ++*cursor;
    }
    tracer_->End(wait);
    Flush();
    return sent;
  }

  /// Closed loop: ops back to back until \p seconds pass or the timeline
  /// ends. Returns the requests sent per wall second (median over
  /// kWindowS windows).
  double ClosedLoop(size_t* cursor, double seconds) {
    const std::vector<Op>& ops = shard_->ops;
    const int64_t start = NowNs();
    const int64_t limit = start + static_cast<int64_t>(seconds * 1e9);
    WindowCounter sent(start, kWindowS);
    int64_t now = start;
    while (*cursor < ops.size() && now < limit) {
      const Op& op = ops[*cursor];
      if (op.entry < 0) due_ns_[next_request_ % kRing] = -1;
      Execute(op);
      ++*cursor;
      now = NowNs();
      if (op.entry < 0) sent.Add(now);
    }
    Flush();
    return sent.MedianRate(now);
  }

  Report& report() { return report_; }
  /// Open-loop latencies recorded so far, in seconds.
  const std::vector<double>& latencies() const { return latency_; }
  const std::vector<double>& lateness() const { return late_; }
  const std::vector<double>& queue_waits() const { return queue_wait_; }
  /// Id the next request will get (= requests sent by this and earlier
  /// runners of the shard).
  uint64_t next_request() const { return next_request_; }
  uint64_t sent() const { return sent_; }
  uint64_t ingested() const { return ingested_; }
  double nodes() const { return nodes_; }
  double edges() const { return edges_; }
  double flops() const { return flops_; }

 private:
  void Execute(const Op& op) {
    const int64_t t0 = NowNs();
    if (op.entry >= 0) {
      // Replay cycles reuse the segment's entries with shifted timestamps.
      LogEntry& e = world_->segment[static_cast<size_t>(op.home)]
                                   [static_cast<size_t>(op.entry)];
      const double original = e.timestamp;
      e.timestamp = op.engine_t;
      const int span = tracer_->Begin("serving.ingest", op.home);
      const Status st = engine_->Ingest(op.home, e);
      tracer_->End(span);
      e.timestamp = original;
      ++ingested_;
      ++report_.attempted;
      if (!st.ok()) ++report_.failed;
      return;
    }
    const int64_t id = static_cast<int64_t>(next_request_++);
    ++sent_;
    ++report_.attempted;
    if (tracer_->enabled()) CountGraph(op.home);
    pending_.Push(op.home, id);
    const int span = tracer_->Begin("serving.enqueue", id);
    const Status st = engine_->RequestDetection(op.home, op.engine_t, &completed_);
    const bool dispatched = !completed_.empty();
    tracer_->End(span, dispatched ? "serving.dispatch" : nullptr);
    const int64_t t1 = NowNs();
    if (!st.ok()) {
      ++report_.failed;
      pending_.DropNewest(op.home);
    }
    if (dispatched) Harvest(t0, t1, id);
    enqueue_ns_[static_cast<uint64_t>(id) % kRing] = t1;
  }

  /// Accounts every result the last engine call returned. \p call_start is
  /// when that call began; \p just_sent the request the call itself sent.
  void Harvest(int64_t call_start, int64_t returned, int64_t just_sent) {
    for (const DetectionResult& r : completed_) {
      const int64_t id = pending_.Pop(r.home_id);
      if (id < 0) {
        report_.Check(false, "a result arrived for no pending request");
        continue;
      }
      if (r.embedding.size() != static_cast<size_t>(gnn_.embedding_dim) ||
          !Finite(r.embedding)) {
        ++report_.failed;
      }
      const size_t uid = static_cast<size_t>(id);
      const std::vector<std::vector<double>>& ref = shard_->reference;
      if (uid < ref.size() &&
          !std::equal(r.embedding.begin(), r.embedding.end(), ref[uid].begin(),
                      ref[uid].end(), SameBits)) {
        report_.Check(false, "embedding differs from the reference engines");
      }
      if (next_request_ - uid > kRing) {
        report_.Check(false, "a request was answered after kRing newer ones");
        continue;
      }
      const size_t slot = uid % kRing;
      if (due_ns_[slot] >= 0) {
        latency_.push_back(static_cast<double>(returned - due_ns_[slot]) * 1e-9);
      }
      if (tracer_->enabled()) {
        queue_wait_.push_back(
            id == just_sent
                ? 0.0
                : static_cast<double>(call_start - enqueue_ns_[slot]) * 1e-9);
      }
    }
    completed_.clear();
  }

  void Flush() {
    const int64_t t0 = NowNs();
    const int span = tracer_->Begin("serving.dispatch", -1);
    engine_->Flush(&completed_);
    tracer_->End(span);
    Harvest(t0, NowNs(), -1);
    const size_t unanswered = pending_.Clear();
    report_.failed += unanswered;
    report_.Check(unanswered == 0, "a request was never answered");
  }

  void CountGraph(int home) {
    const InteractionGraph* g = engine_->graph(home);
    const PreparedGraph* p = engine_->prepared(home);
    if (g == nullptr || p == nullptr) return;
    nodes_ += g->num_nodes();
    edges_ += g->num_edges();
    flops_ += ForwardFlops(gnn_, p->num_nodes, p->prop_csr.nnz());
  }

  World* world_;
  Shard* shard_;
  StreamingDetectionEngine* engine_;
  GnnConfig gnn_;
  Tracer* tracer_;
  Report report_;
  std::vector<DetectionResult> completed_;
  PendingBook pending_;
  uint64_t next_request_;
  /// Due time (-1 in the closed loop) and enqueue return time of the kRing
  /// most recent requests, at id % kRing. A request is answered within its
  /// batch's linger, long before kRing newer ones are sent. A fixed ring
  /// keeps peak_rss_mb from growing with the number of requests a run
  /// reached.
  static constexpr uint64_t kRing = 4096;
  std::vector<int64_t> due_ns_ = std::vector<int64_t>(kRing, -1);
  std::vector<int64_t> enqueue_ns_ = std::vector<int64_t>(kRing, 0);
  uint64_t sent_ = 0;
  std::vector<double> latency_, late_, queue_wait_;
  uint64_t ingested_ = 0;
  double nodes_ = 0, edges_ = 0, flops_ = 0;
};

/// Embeddings, by request id, of the shard's first kCheckedRequests
/// requests when a fresh engine configured by \p sc runs its timeline back
/// to back.
bool ReferenceRun(const ServeState& s, const Shard& sh, const ServingConfig& sc,
                  std::vector<std::vector<double>>* out, ServingStats* stats) {
  std::unique_ptr<StreamingDetectionEngine> engine =
      MakeEngine(s.world, sh, *s.model, sc);
  if (engine == nullptr) return false;
  std::vector<DetectionResult> completed;
  PendingBook pending(s.world.homes.size());
  auto collect = [&]() {
    for (DetectionResult& r : completed) {
      const int64_t popped = pending.Pop(r.home_id);
      if (popped < 0) continue;  // leaves a hole: the check below fails
      const size_t id = static_cast<size_t>(popped);
      if (out->size() <= id) out->resize(id + 1);
      (*out)[id] = std::move(r.embedding);
    }
    completed.clear();
  };
  uint64_t next = 0;
  for (size_t i = 0; i < sh.ops.size() && next < kCheckedRequests; ++i) {
    const Op& op = sh.ops[i];
    if (op.entry >= 0) {
      LogEntry e = s.world.segment[static_cast<size_t>(op.home)]
                                  [static_cast<size_t>(op.entry)];
      e.timestamp = op.engine_t;
      if (!engine->Ingest(op.home, e).ok()) return false;
      continue;
    }
    pending.Push(op.home, static_cast<int64_t>(next++));
    if (!engine->RequestDetection(op.home, op.engine_t, &completed).ok()) {
      return false;
    }
    collect();
  }
  engine->Flush(&completed);
  collect();
  *stats = engine->stats();
  return out->size() == next &&
         std::none_of(out->begin(), out->end(),
                      [](const std::vector<double>& e) { return e.empty(); });
}

/// The shard's warm-up pass: its first kCheckedRequests requests (with the
/// events between them) run back to back on two fresh engines, one
/// answering one graph at a time and one batching with every snapshot
/// verified against a full rebuild. Their embeddings must agree bit for
/// bit, and become the reference the measured phase is checked against.
bool BuildReference(const ServeState& s, Shard* sh) {
  std::vector<std::vector<double>> single, batched;
  ServingStats single_stats, batched_stats;
  if (!ReferenceRun(s, *sh, EngineConfig(s.world, 1, false), &single,
                    &single_stats) ||
      !ReferenceRun(s, *sh, EngineConfig(s.world, kMaxBatch, true), &batched,
                    &batched_stats)) {
    return false;
  }
  sh->parity_checks = batched_stats.parity_checks;
  sh->parity_failures = batched_stats.parity_failures;
  sh->setup.Check(single.size() == batched.size(),
                  "reference engines answered different request counts");
  Digest d;
  for (size_t i = 0; i < single.size() && i < batched.size(); ++i) {
    sh->setup.Check(std::equal(single[i].begin(), single[i].end(),
                               batched[i].begin(), batched[i].end(), SameBits),
                    "batched embedding differs from one-at-a-time");
    d.U64(i);
    d.F64s(single[i]);
  }
  sh->reference = std::move(single);
  sh->reference_digest = Hex(d.value());
  return true;
}

std::unique_ptr<ServeState> Setup(const Options& opts, bool churn) {
  auto s = std::make_unique<ServeState>();
  const int homes = opts.smoke ? 8 : kHomesPerShard;
  s->world = BuildWorld(opts.seed, churn, homes * opts.workers);
  s->gnn.type = GnnType::kGcn;
  s->gnn.hidden_dim = 64;
  s->gnn.seed = 0x6C0000ULL ^ opts.seed;
  s->model = std::make_unique<GnnModel>(s->gnn);
  const double open = opts.seconds * kOpenShare;
  const double closed = opts.seconds - open;
  for (int w = 0; w < opts.workers; ++w) {
    s->shards.push_back(MakeShard(s->world, w, homes, churn));
  }
  std::vector<char> ok(s->shards.size(), 0);
  parallel::For(s->shards.size(), [&](size_t i) {
    Shard& sh = s->shards[i];
    sh.ops = MakeTimeline(s->world, sh, opts.seed, static_cast<int>(i),
                          open + closed * kClosedHeadroom);
    if (!BuildReference(*s, &sh)) return;
    sh.engine = MakeEngine(s->world, sh, *s->model,
                           EngineConfig(s->world, kMaxBatch, false));
    ok[i] = sh.engine != nullptr;
  });
  if (std::count(ok.begin(), ok.end(), 0) > 0) return nullptr;
  s->warmup_digest = s->shards.front().reference_digest;
  return s;
}

/// What one measured phase or slice produced across every shard.
struct Phase {
  double throughput = 0.0;  ///< closed loop, summed over shards
  uint64_t open_sent = 0;
  double worker_s = 0.0;
  std::vector<std::unique_ptr<ShardRunner>> runners;
};

Phase RunPhase(ServeState* s, double seconds, std::vector<Tracer>* tracers,
               std::vector<size_t>* cursors, const Phase* before,
               Report* report) {
  Phase ph;
  const size_t k = s->shards.size();
  for (size_t w = 0; w < k; ++w) {
    ph.runners.push_back(std::make_unique<ShardRunner>(
        &s->world, &s->shards[w], s->gnn, &(*tracers)[w],
        before != nullptr ? before->runners[w]->next_request() : 0));
  }
  std::vector<double> rate(k, 0.0), busy(k, 0.0);
  std::vector<uint64_t> open_sent(k, 0);
  RunOnWorkers(static_cast<int>(k), [&](int w) {
    const size_t i = static_cast<size_t>(w);
    const int64_t t0 = NowNs();
    open_sent[i] = ph.runners[i]->OpenLoop(&(*cursors)[i], seconds * kOpenShare);
    rate[i] = ph.runners[i]->ClosedLoop(&(*cursors)[i], seconds * (1.0 - kOpenShare));
    busy[i] = static_cast<double>(NowNs() - t0) * 1e-9;
  });
  for (size_t w = 0; w < k; ++w) {
    ph.throughput += rate[w];
    ph.open_sent += open_sent[w];
    ph.worker_s += busy[w];
    report->Merge(ph.runners[w]->report());
  }
  return ph;
}

void RunServe(const Options& opts, Tracer* tracer, Report* report, bool churn) {
  std::unique_ptr<ServeState> s = RepeatedSetup<ServeState>(
      opts, report, [&](int) { return Setup(opts, churn); });
  if (s == nullptr) {
    report->Check(false, "set-up failed");
    return;
  }
  uint64_t parity_checks = 0, parity_failures = 0;
  for (const Shard& sh : s->shards) {
    report->Merge(sh.setup);
    parity_checks += sh.parity_checks;
    parity_failures += sh.parity_failures;
  }
  report->Check(parity_failures == 0,
                "incremental graph maintenance disagrees with a rebuild");
  report->info["parity_checks"] = static_cast<double>(parity_checks);

  const size_t k = s->shards.size();
  std::vector<size_t> cursors(k, 0);
  std::vector<Tracer> off;
  for (size_t w = 0; w < k; ++w) off.emplace_back(false, static_cast<int>(w));
  const double half = opts.untraced_seconds();
  Phase base = RunPhase(s.get(), half, &off, &cursors, nullptr, report);
  report->Metric("peak_rss_mb", PeakRssMiB(), "MiB");
  std::vector<double> latency, late;
  uint64_t sent = 0, ingested = 0;
  for (const auto& d : base.runners) {
    latency.insert(latency.end(), d->latencies().begin(), d->latencies().end());
    late.insert(late.end(), d->lateness().begin(), d->lateness().end());
    sent += d->sent();
    ingested += d->ingested();
  }
  const LatencySummary lat = Summarize(latency);
  const LatencySummary lateness = Summarize(late);
  report->Metric("throughput_per_s", base.throughput, "1/s");
  report->Metric("latency_p50_ms", lat.p50 * 1e3, "ms");
  report->Metric("latency_p95_ms", lat.p95 * 1e3, "ms");
  report->info["shards"] = static_cast<double>(k);
  report->info["latency_p99_ms"] = lat.p99 * 1e3;
  report->info["latency_max_ms"] = lat.max * 1e3;
  report->info["latency_samples"] = static_cast<double>(lat.count);
  report->info["offered_rps"] =
      Ratio(static_cast<double>(base.open_sent), half * kOpenShare);
  report->info["late_p95_ms"] = lateness.p95 * 1e3;
  report->info["late_max_ms"] = lateness.max * 1e3;
  report->info["requests_sent"] = static_cast<double>(sent);
  report->info["events_ingested"] = static_cast<double>(ingested);
  report->info["events_per_request"] =
      Ratio(static_cast<double>(ingested), static_cast<double>(sent));
  report->Check(base.open_sent > 0, "the open loop sent no requests");

  if (!opts.trace) return;
  std::vector<Tracer> tracers;
  for (size_t w = 0; w < k; ++w) tracers.emplace_back(true, static_cast<int>(w));
  double requests = 0, batches = 0, updates = 0, rebuilds = 0;
  double nodes = 0, edges = 0, flops = 0, traced_ingested = 0;
  std::vector<double> waits;
  Phase prev = std::move(base);  // request ids continue from its runners
  // The engines' state moves on with every op, so slices cannot replay.
  const double overhead = AlternateTraced(opts, [&](bool on, bool, double seconds) {
    std::vector<ServingStats> before;
    for (const Shard& sh : s->shards) before.push_back(sh.engine->stats());
    Phase ph = RunPhase(s.get(), seconds, on ? &tracers : &off, &cursors,
                        &prev, report);
    for (size_t w = 0; w < k && on; ++w) {
      const ServingStats& a = s->shards[w].engine->stats();
      requests += static_cast<double>(a.requests - before[w].requests);
      batches += static_cast<double>(a.batches - before[w].batches);
      updates += static_cast<double>(a.incremental_updates - before[w].incremental_updates);
      rebuilds += static_cast<double>(a.rebuilds - before[w].rebuilds);
      const ShardRunner& d = *ph.runners[w];
      nodes += d.nodes();
      edges += d.edges();
      flops += d.flops();
      traced_ingested += static_cast<double>(d.ingested());
      waits.insert(waits.end(), d.queue_waits().begin(), d.queue_waits().end());
    }
    if (on) report->traced_worker_s += ph.worker_s;
    const double rate = ph.throughput;
    prev = std::move(ph);
    return rate;
  });
  for (size_t w = 0; w < k; ++w) tracer->Absorb(tracers[w]);
  report->Layer("serving.batch_size_mean", Ratio(requests, batches), "count");
  report->Layer("serving.events_per_request", Ratio(traced_ingested, requests),
                "count");
  report->Layer("serving.incremental_updates_per_request",
                Ratio(updates, requests), "count");
  report->Layer("serving.rebuilds_per_1k_requests",
                1e3 * Ratio(rebuilds, requests), "count");
  report->Layer("graph.nodes_per_item", Ratio(nodes, requests), "count");
  report->Layer("graph.edges_per_item", Ratio(edges, requests), "count");
  report->Layer("gnn.flops_per_forward", Ratio(flops, requests), "count");
  const LatencySummary wait = Summarize(waits);
  report->info["queue_wait_p50_ms"] = wait.p50 * 1e3;
  report->info["queue_wait_p95_ms"] = wait.p95 * 1e3;
  report->Layer("trace.overhead_frac", overhead, "fraction");
}

}  // namespace

void RunServeSteady(const Options& opts, Tracer* tracer, Report* report) {
  RunServe(opts, tracer, report, /*churn=*/false);
}

void RunServeChurn(const Options& opts, Tracer* tracer, Report* report) {
  RunServe(opts, tracer, report, /*churn=*/true);
}

}  // namespace e2e
}  // namespace fexiot
