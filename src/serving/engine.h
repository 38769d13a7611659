#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "gnn/gnn_model.h"
#include "graph/interaction_graph.h"
#include "serving/stats.h"
#include "smarthome/event_log.h"
#include "smarthome/home.h"

namespace fexiot {

/// \brief Batching knobs of the serving engine. The GNN architecture
/// itself comes from the GnnModel the engine wraps; the mining windows and
/// the active window are constants (StreamingDetectionEngine).
struct ServingConfig {
  /// Requests accumulated before an inference dispatch. 1 = the classic
  /// one-graph-at-a-time path (no snapshot copy, no batching overhead).
  int max_batch = 8;
  /// Max simulated seconds a request may wait for batch-mates before the
  /// batch dispatches anyway (0 = dispatch as soon as sized or advanced).
  double max_linger_s = 0.05;
  /// Cross-check every snapshot against a from-scratch PrepareGraph and
  /// count mismatches in stats().parity_failures (testing/CI; expensive).
  bool verify_incremental = false;
};

Status ValidateServingConfig(const ServingConfig& config);

/// \brief One served detection answer.
struct DetectionResult {
  int home_id = -1;
  double request_time = 0.0;  ///< simulated enqueue time
  /// Simulated queueing wait (dispatch - enqueue) plus the measured
  /// wall-clock seconds of the inference dispatch that served it.
  double latency_s = 0.0;
  std::vector<double> embedding;  ///< GNN graph embedding
  /// Embedding L2 norm — a monotone anomaly proxy until a trained
  /// classifier head is wired in (larger = further from the origin the
  /// contrastive loss pulls benign graphs toward).
  double score = 0.0;
  int batch_size = 0;  ///< size of the dispatch that served it
};

/// \brief Long-lived streaming detection engine (DESIGN.md §5.11): ingests
/// per-home cleaned event-log streams, keeps each home's interaction graph
/// current event by event, and serves detection requests through a batched
/// block-diagonal inference path (GraphBatch + GnnModel::ForwardBatch)
/// that is bit-identical to running the homes one at a time.
///
/// Graph maintenance has one path: Ingest edits only the InteractionGraph;
/// the next snapshot of a home whose edges changed re-runs the relational
/// augmentation, rebuilds the propagation matrix from the edge list
/// (BuildPropagationCsr, as PrepareGraph does) and refills the input.
///
/// Graph semantics (the streaming counterpart of OnlineGraphBuilder):
/// every deployed rule is a node from AddHome on — never-fired rules are
/// isolated self-loop-only nodes, which keeps the node set fixed under
/// churn. A rule is *active* for kActiveWindowS after a mined firing
/// (trigger state-change followed by all action states within
/// kFiringWindowS; the firing timestamp is the trigger time). Directed
/// edge i -> j exists while both rules are active and rule i's actions
/// can fire rule j's trigger (ActionTriggersRule over the deployed
/// rules, precomputed at AddHome). Command- and effect-consistency
/// scores are mined from the stream with the offline builder's windows
/// (graph/fusion.h) and folded into the reserved feature dims.
///
/// Determinism: all simulated-time bookkeeping is driven by caller
/// timestamps, all compute runs through the pool-deterministic kernels,
/// so ingest/request sequences replay bit-identically for any
/// FEXIOT_THREADS (latency_s values are wall-clock measurements and
/// excluded from that contract).
///
/// Thread-safety: externally synchronized (one engine per serving thread,
/// like a GnnWorkspace); the internal kernels may still fan out over the
/// process pool.
class StreamingDetectionEngine {
 public:
  /// A rule counts as active — participates in interaction edges — for
  /// this many seconds after its last mined firing.
  static constexpr double kActiveWindowS = 600.0;

  /// \p model must outlive the engine.
  StreamingDetectionEngine(const GnnModel* model, const ServingConfig& config);

  /// \brief Registers a home. All of its rules become (isolated) graph
  /// nodes immediately. Fails on duplicate id or a home with no rules.
  Status AddHome(int home_id, const Home& home);

  /// \brief Consumes one cleaned log entry for \p home_id. Timestamps
  /// must be finite and non-decreasing per home (InvalidArgument
  /// otherwise, with the home untouched). Irrelevant kinds (sensor
  /// readings, execution errors) are counted and skipped.
  Status Ingest(int home_id, const LogEntry& entry);

  /// \brief Enqueues a detection request for \p home_id at simulated time
  /// \p now. The home's graph is snapshotted at enqueue, so later ingests
  /// never leak into an already-pending request. Dispatches happen when
  /// the batch fills, when a second request arrives for an already-pending
  /// home (forced early flush), or via AdvanceTo/Flush; completed results
  /// are appended to \p completed (may be empty after a call). A
  /// non-finite \p now is rejected with InvalidArgument.
  Status RequestDetection(int home_id, double now,
                          std::vector<DetectionResult>* completed);

  /// \brief Advances simulated time: dispatches the pending batch if its
  /// oldest request's linger deadline has passed.
  void AdvanceTo(double now, std::vector<DetectionResult>* completed);

  /// \brief Dispatches the pending batch regardless of size/linger.
  void Flush(std::vector<DetectionResult>* completed);

  const ServingStats& stats() const { return stats_; }
  const ServingConfig& config() const { return config_; }

  /// \brief The home's prepared graph as of its last snapshot (as of
  /// AddHome before the first): edges ingested since then reach it at the
  /// next request.
  const PreparedGraph* prepared(int home_id) const;

  /// \brief From-scratch PrepareGraph over the home's current interaction
  /// graph — the parity oracle a snapshot must match bit for bit
  /// (testing).
  PreparedGraph RebuildPrepared(int home_id) const;

  /// \brief The home's current interaction graph (testing).
  const InteractionGraph* graph(int home_id) const;

 private:
  struct TriggerCandidate {
    int rule = 0;            ///< rule index within the home
    double trigger_time = 0.0;
    std::vector<bool> action_seen;
    int actions_remaining = 0;
  };
  struct EffectCheck {
    int rule = 0;
    DeviceType device;
    std::string state;
    double command_time = 0.0;
  };
  struct CommandRecord {
    double time = 0.0;
    DeviceType device;
    std::string value;
  };
  struct RuleStats {
    double last_fire = -1.0;  ///< trigger time of the latest firing
    bool active = false;
    uint64_t command_hits = 0, command_total = 0;
    uint64_t effect_hits = 0, effect_total = 0;
  };

  struct HomeState {
    Home home;
    InteractionGraph graph;      ///< fixed node universe, live edge set
    PreparedGraph prepared;      ///< as of the last snapshot
    /// related[i * n + j]: rule i's actions can fire rule j's trigger.
    std::vector<bool> related;
    std::vector<RuleStats> rules;
    std::deque<TriggerCandidate> candidates;
    std::deque<EffectCheck> effect_checks;
    std::deque<CommandRecord> command_log;
    double clock = 0.0;  ///< latest timestamp seen
    /// Edges changed since the last snapshot: the augmentation and the
    /// propagation matrix are stale.
    bool relational_dirty = true;
    /// Node features changed since prepared.input was filled.
    bool input_dirty = false;
    bool pending_request = false;  ///< snapshot currently in the batch
  };

  HomeState* Find(int home_id);
  const HomeState* Find(int home_id) const;

  /// Deactivates rules whose active window ended at or before \p now and
  /// expires pending candidates / effect checks / command records.
  void ExpireTo(HomeState* hs, double now);
  /// Applies a mined firing of rule \p r at trigger time \p t.
  void CompleteFiring(HomeState* hs, int r, const TriggerCandidate& cand);
  /// Adds/removes rule \p r's graph edges after an activation flip and
  /// counts the undirected pairs that flipped.
  void SyncEdgesFor(HomeState* hs, int r);
  /// Refreshes node \p r's time and consistency dims; the prepared input
  /// follows at the next snapshot.
  void RefreshNodeFeatures(HomeState* hs, int r, double fire_time);
  /// If edges changed: re-runs the relational augmentation and rebuilds
  /// the propagation matrix. If features or edges changed: refills the
  /// prepared input. Then the optional parity check. Called right before
  /// a snapshot is taken.
  void PrepareForSnapshot(HomeState* hs);

  void Dispatch(double dispatch_time, std::vector<DetectionResult>* completed);

  const GnnModel* model_;
  ServingConfig config_;
  std::unordered_map<int, size_t> home_index_;
  std::deque<HomeState> homes_;  ///< stable addresses under growth

  struct PendingRequest {
    int home_id = -1;
    double enqueue_time = 0.0;
    size_t slot = 0;
  };
  std::vector<PendingRequest> pending_;
  std::vector<PreparedGraph> slots_;  ///< reused snapshot storage
  GraphBatch batch_;                  ///< reused batch assembly
  GnnWorkspace ws_;  ///< scratch of every forward, batched or not
  Matrix raw_;       ///< FillPreparedInput's X staging (GCN/GIN)
  std::vector<std::vector<double>> batch_embeddings_;

  ServingStats stats_;
};

}  // namespace fexiot
