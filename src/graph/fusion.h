#pragma once

#include "common/rng.h"
#include "graph/interaction_graph.h"
#include "smarthome/event_log.h"
#include "smarthome/home.h"

namespace fexiot {

/// \brief Cross-modality data fusion (Section III-A3): combines app rule
/// descriptions (trigger-action logic) with cleaned event logs (real-time
/// device status) into *online* interaction graphs.
///
/// For every deployed rule the builder mines the log for firings — a
/// trigger event followed by the rule's action states within a window.
/// Fired rules become nodes (with the firing time encoded in the feature
/// time dims); edges come from the action-trigger logic of the deployed
/// rules. Two causal-consistency scores are folded into the reserved
/// feature dims, which is where log-tampering attacks (fake events,
/// stealthy commands, command failures, event losses) leave their marks:
///  - command consistency: fraction of the rule's devices' state changes
///    preceded by a matching command record;
///  - effect consistency: fraction of the rule's command records followed
///    by the commanded state change.
///
/// Build cleans and mines in one pass (DESIGN.md §5.14): it runs
/// EventLog::ForEachCleaned once, indexes the kept records per device
/// type without copying a string, and takes each node's text features
/// (RuleTextEmbedding) from a process-wide memo keyed by the rule's text.
/// Thread-safe: concurrent Builds share only that memo, behind a lock.
class OnlineGraphBuilder {
 public:
  explicit OnlineGraphBuilder(const Home& home) : home_(home) {}

  /// \brief Builds one online interaction graph from a raw or a cleaned
  /// log: it cleans as it goes, and cleaning is idempotent, so
  /// Build(log) equals Build(log.Cleaned()) bit for bit.
  /// Nodes are rules observed firing at least once; label is left 0 (the
  /// caller sets it from attack ground truth / the checker).
  InteractionGraph Build(const EventLog& log) const;

  /// Capacity of the process-wide text-feature memo: distinct rule texts
  /// past it are embedded on every Build instead of being held.
  static constexpr size_t kTextMemoCapacity = 4096;
  /// Rule texts the memo holds now (for tests). Only Build fills it.
  static size_t TextMemoSize();

 private:
  const Home& home_;
};

/// Mining windows, in seconds, shared by OnlineGraphBuilder and the
/// streaming engine (serving/engine.h): a rule fires when each of its
/// action states follows its trigger within kFiringWindowS (inclusive),
/// and a command and a state change of the same value match within
/// kConsistencyWindowS.
constexpr double kFiringWindowS = 10.0;
constexpr double kConsistencyWindowS = 5.0;

/// Index (from the back of a feature vector) of the command-consistency
/// slot and the effect-consistency slot. The slots hold
/// kConsistencyScale * (consistency - 1): zero when every observation was
/// causally consistent, increasingly negative under log tampering.
constexpr int kFeatureDimCommandConsistency = 2;
constexpr int kFeatureDimEffectConsistency = 1;
constexpr double kConsistencyScale = 5.0;

}  // namespace fexiot
