#include "runtime/fault_model.h"

#include <algorithm>

#include "runtime/event_queue.h"

namespace fexiot {

FaultModel::FaultModel(ClientFaultProfile default_profile,
                       std::vector<ClientFaultProfile> per_client,
                       int num_clients, uint64_t seed)
    : default_profile_(default_profile),
      per_client_(std::move(per_client)),
      base_(seed) {
  bool can_crash = default_profile_.crash_prob > 0.0;
  for (const ClientFaultProfile& p : per_client_) {
    can_crash = can_crash || p.crash_prob > 0.0;
  }
  if (can_crash) offline_until_.assign(static_cast<size_t>(num_clients), 0);
}

const ClientFaultProfile& FaultModel::profile(int client) const {
  if (static_cast<size_t>(client) < per_client_.size()) {
    return per_client_[static_cast<size_t>(client)];
  }
  return default_profile_;
}

bool FaultModel::Alive(int round, int client) {
  if (!can_crash()) return true;
  if (round < offline_until_[static_cast<size_t>(client)]) return false;
  const ClientFaultProfile& p = profile(client);
  if (p.crash_prob <= 0.0) return true;
  Rng r = base_.ForkAt(MixKey(static_cast<uint64_t>(round) + 1,
                              static_cast<uint64_t>(client) + 1, /*salt=*/3));
  if (!r.Bernoulli(p.crash_prob)) return true;
  offline_until_[static_cast<size_t>(client)] =
      round + std::max(1, p.rejoin_rounds);
  return false;
}

}  // namespace fexiot
