#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace fexiot {

/// \brief Per-client fault injection profile.
struct ClientFaultProfile {
  /// Straggler multiplier on local training time (1.0 = nominal; a 4x
  /// straggler trains four times slower in simulated time).
  double slowdown = 1.0;
  /// Probability the client crashes at the start of a round (skips it).
  double crash_prob = 0.0;
  /// Rounds a crashed client stays offline before rejoining.
  int rejoin_rounds = 1;
};

/// \brief Stateful crash/rejoin + stateless straggler injection.
///
/// Crash draws are counter-based (Rng::ForkAt keyed on (round, client)),
/// so whether client c crashes in round r is a pure function of the seed —
/// independent of event order, thread count, and which other faults fire.
/// Crash state (offline-until round) is the only mutable state and is
/// advanced in client index order by the runtime. It is the model's only
/// per-client state, and a fleet whose profiles never crash holds none.
class FaultModel {
 public:
  FaultModel(ClientFaultProfile default_profile,
             std::vector<ClientFaultProfile> per_client, int num_clients,
             uint64_t seed);

  const ClientFaultProfile& profile(int client) const;

  /// Whether any client's profile has crash_prob > 0. When false every
  /// client is always alive and Alive need not be called.
  bool can_crash() const { return !offline_until_.empty(); }

  /// Applies the crash draw for (round, client) and the rejoin window.
  /// Must be called exactly once per client per round, in client order.
  bool Alive(int round, int client);

  double Slowdown(int client) const { return profile(client).slowdown; }

 private:
  ClientFaultProfile default_profile_;
  std::vector<ClientFaultProfile> per_client_;
  /// First round each client is back; empty when no client can crash.
  std::vector<int> offline_until_;
  Rng base_;
};

}  // namespace fexiot
