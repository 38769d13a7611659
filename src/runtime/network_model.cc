#include "runtime/network_model.h"

#include "runtime/event_queue.h"

namespace fexiot {

Status ValidateLinkModel(const LinkModel& link, const std::string& what) {
  if (!(link.latency_s >= 0.0 && link.bandwidth_bps >= 0.0 &&
        link.jitter_s >= 0.0)) {
    return Status::InvalidArgument(what +
                                   ": latency/bandwidth/jitter must be >= 0");
  }
  if (!(link.loss_prob >= 0.0 && link.loss_prob < 1.0)) {
    return Status::InvalidArgument(what + ": loss_prob must be in [0, 1)");
  }
  return Status::OK();
}

NetworkModel::NetworkModel(LinkModel default_down, LinkModel default_up,
                           std::vector<LinkModel> down_overrides,
                           std::vector<LinkModel> up_overrides, uint64_t seed)
    : default_down_(default_down),
      default_up_(default_up),
      down_(std::move(down_overrides)),
      up_(std::move(up_overrides)),
      base_(seed) {}

const LinkModel& NetworkModel::link(int client, LinkDirection dir) const {
  const auto& overrides = dir == LinkDirection::kDown ? down_ : up_;
  if (static_cast<size_t>(client) < overrides.size()) {
    return overrides[static_cast<size_t>(client)];
  }
  return dir == LinkDirection::kDown ? default_down_ : default_up_;
}

Rng NetworkModel::DrawStream(int round, int client, LinkDirection dir,
                             int attempt, uint64_t salt) const {
  return base_.ForkAt(MixKey(static_cast<uint64_t>(round) + 1,
                             static_cast<uint64_t>(client) + 1,
                             (static_cast<uint64_t>(dir) << 8) | salt,
                             static_cast<uint64_t>(attempt) + 1));
}

double NetworkModel::TransferSeconds(int round, int client, LinkDirection dir,
                                     int attempt, double bytes) const {
  const LinkModel& l = link(client, dir);
  double t = l.latency_s;
  if (l.bandwidth_bps > 0.0) t += bytes / l.bandwidth_bps;
  if (l.jitter_s > 0.0) {
    Rng r = DrawStream(round, client, dir, attempt, /*salt=*/1);
    t += r.Uniform(0.0, l.jitter_s);
  }
  return t;
}

bool NetworkModel::LostInTransit(int round, int client, LinkDirection dir,
                                 int attempt) const {
  const LinkModel& l = link(client, dir);
  if (l.loss_prob <= 0.0) return false;
  Rng r = DrawStream(round, client, dir, attempt, /*salt=*/2);
  return r.Bernoulli(l.loss_prob);
}

}  // namespace fexiot
