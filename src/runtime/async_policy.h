#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fexiot {

/// \brief FedAsync-style polynomial staleness decay:
/// alpha(s) = alpha0 * (s + 1)^-exponent.
///
/// \p staleness counts the server model updates applied between the moment
/// the client's model copy was dispatched and the moment its update is
/// applied. alpha(0) == alpha0; the weight decays monotonically in s when
/// exponent > 0 and is constant when exponent == 0. Pure function — the
/// property tests in tests/test_async_policy.cc pin monotonicity and bounds.
double StalenessWeight(double alpha0, double exponent, int staleness);

/// \brief Per-client EWMA estimator of observed round-trip time (dispatch
/// to server-side arrival), the speed signal behind semi-async tiering.
///
/// estimate <- (1 - beta) * estimate + beta * observation, with the first
/// observation installed verbatim. Predict() returns +infinity until the
/// first observation, so never-observed clients sort into the last tier
/// (conservative: an unknown client cannot stall a fast tier).
class EwmaSpeed {
 public:
  explicit EwmaSpeed(double beta = 0.5) : beta_(beta) {}

  void Observe(double rtt_s);
  bool initialized() const { return initialized_; }
  /// Predicted round-trip seconds; +infinity before the first observation.
  double Predict() const;

 private:
  double beta_;
  double estimate_ = 0.0;
  bool initialized_ = false;
};

/// \brief Groups clients into \p num_tiers arrival tiers (FedCompass-style
/// co-scheduling): sort positions by (expected arrival, position) and chunk
/// the sorted order into contiguous near-equal groups.
///
/// Returns the tier index of each input position (same length as
/// \p expected_arrival_s). Ties — including the all-unknown first wave,
/// where every prediction is +infinity — break by position, so the
/// assignment is a pure function of the inputs. With fewer clients than
/// tiers the trailing tiers are simply empty.
std::vector<int> AssignTiers(const std::vector<double>& expected_arrival_s,
                             int num_tiers);

/// \brief Exact running quantile over all samples seen so far (sorted
/// inserts), used for adaptive deadline tuning. For n samples Value()
/// returns the element at ceil(q * n) - 1 of the sorted order — the
/// smallest sample v such that at least a q-fraction of samples are <= v.
class RunningQuantile {
 public:
  explicit RunningQuantile(double q) : q_(q) {}

  void Add(double v);
  bool empty() const { return sorted_.empty(); }
  size_t count() const { return sorted_.size(); }
  /// Quantile of the samples so far. Must not be called while empty().
  double Value() const;

 private:
  double q_;
  std::vector<double> sorted_;  ///< ascending
};

/// \brief First-arrival bookkeeping shared by every server policy.
///
/// The first arrival of a client's update wins; redundant deliveries (the
/// duplicate-delivery negative path: a retransmission racing the original,
/// or a replayed message) are rejected and counted instead of being applied
/// twice. Purely deterministic — state is a function of the Arrive call
/// sequence, which the event scheduler already makes a pure function of the
/// seed. Clients are dense indices in [0, num_clients); the runtime keys
/// it by each participant's slot in the round, so it is sized by the
/// round's cohort, not by the fleet.
class ArrivalTracker {
 public:
  explicit ArrivalTracker(int num_clients);

  /// Records the first arrival of \p client at \p time_s. Returns false
  /// (and counts a duplicate) when the client already arrived.
  bool Arrive(int client, double time_s);

  bool arrived(int client) const {
    return arrived_[static_cast<size_t>(client)] != 0;
  }
  double arrival_time(int client) const {
    return arrival_time_[static_cast<size_t>(client)];
  }
  int arrivals() const { return arrivals_; }
  int duplicates() const { return duplicates_; }

  /// Clears per-wave state (keeps the client capacity).
  void Reset();

 private:
  std::vector<char> arrived_;
  std::vector<double> arrival_time_;
  int arrivals_ = 0;
  int duplicates_ = 0;
};

}  // namespace fexiot
