#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace fexiot {

/// \brief One direction of a client's access link.
///
/// A transfer of b bytes costs latency_s + b / bandwidth_bps + jitter,
/// where jitter is drawn uniformly from [0, jitter_s). bandwidth_bps == 0
/// means infinite bandwidth, so the all-zero default prices every transfer
/// at exactly 0 seconds — the paper's instantaneous-upload assumption.
struct LinkModel {
  double latency_s = 0.0;
  double bandwidth_bps = 0.0;  ///< 0 = infinite
  double jitter_s = 0.0;       ///< uniform extra delay in [0, jitter_s)
  double loss_prob = 0.0;      ///< per-transfer loss probability
};

/// \brief Rejects negative latency/bandwidth/jitter and a loss_prob
/// outside [0, 1); \p what names the link in the error message.
Status ValidateLinkModel(const LinkModel& link, const std::string& what);

enum class LinkDirection : int { kDown = 0, kUp = 1 };

/// \brief Per-client network model pricing transfers from serialized
/// message sizes.
///
/// All stochastic draws (jitter, loss) come from counter-based child
/// streams keyed on (round, client, direction, attempt) via Rng::ForkAt,
/// so a draw is a pure function of the seed and the transfer's identity —
/// never of event processing order or thread count.
///
/// Both directions can be lossy: uplink losses feed the retry policies,
/// downlink losses feed the broadcast re-fetch protocol in the runtime.
/// A direction with loss_prob == 0 never consumes a loss draw, so
/// enabling loss on one direction leaves the other direction's streams —
/// and therefore existing traces — bit-identical.
class NetworkModel {
 public:
  NetworkModel(LinkModel default_down, LinkModel default_up,
               std::vector<LinkModel> down_overrides,
               std::vector<LinkModel> up_overrides, uint64_t seed);

  const LinkModel& link(int client, LinkDirection dir) const;

  /// Transfer duration of \p bytes over the client's link.
  double TransferSeconds(int round, int client, LinkDirection dir,
                         int attempt, double bytes) const;

  /// Whether this transfer attempt over \p dir is lost in transit.
  bool LostInTransit(int round, int client, LinkDirection dir,
                     int attempt) const;

 private:
  Rng DrawStream(int round, int client, LinkDirection dir, int attempt,
                 uint64_t salt) const;

  LinkModel default_down_;
  LinkModel default_up_;
  std::vector<LinkModel> down_;  ///< per-client overrides (may be empty)
  std::vector<LinkModel> up_;
  Rng base_;
};

}  // namespace fexiot
