#include "runtime/topology.h"

#include <algorithm>
#include <cstdio>

#include "runtime/event_queue.h"

namespace fexiot {

Status ValidateTreeTopology(const TreeTopologyConfig& config) {
  if (config.edge_fanout < 0 || config.regional_fanout < 0) {
    return Status::InvalidArgument(
        "topology: edge_fanout/regional_fanout must be >= 0");
  }
  if (config.regional_fanout > 0 && config.edge_fanout == 0) {
    return Status::InvalidArgument(
        "topology: regional_fanout requires edge_fanout > 0");
  }
  if (!(config.aggregator_crash_prob >= 0.0 &&
        config.aggregator_crash_prob < 1.0)) {
    return Status::InvalidArgument(
        "topology: aggregator_crash_prob must be in [0, 1)");
  }
  if (config.aggregator_rejoin_rounds < 1) {
    return Status::InvalidArgument(
        "topology: aggregator_rejoin_rounds must be >= 1");
  }
  FEXIOT_RETURN_NOT_OK(ValidateLinkModel(config.edge_up, "topology edge_up"));
  FEXIOT_RETURN_NOT_OK(
      ValidateLinkModel(config.regional_up, "topology regional_up"));
  if (config.edge_up.loss_prob != 0.0 || config.regional_up.loss_prob != 0.0) {
    return Status::InvalidArgument(
        "topology: interior links are reliable (loss_prob must be 0; "
        "model interior failure via aggregator_crash_prob)");
  }
  return Status::OK();
}

void StreamingAccumulator::Add(double weight, const std::vector<double>& x) {
  if (sum_.empty()) sum_.assign(x.size(), 0.0);
  for (size_t i = 0; i < x.size(); ++i) sum_[i] += weight * x[i];
  weight_sum_ += weight;
  ++count_;
}

void StreamingAccumulator::Merge(const StreamingAccumulator& other) {
  if (other.empty()) return;
  if (sum_.empty()) sum_.assign(other.sum_.size(), 0.0);
  for (size_t i = 0; i < other.sum_.size(); ++i) sum_[i] += other.sum_[i];
  weight_sum_ += other.weight_sum_;
  count_ += other.count_;
}

std::vector<double> StreamingAccumulator::Mean() const {
  if (count_ == 0 || weight_sum_ <= 0.0) return {};
  std::vector<double> out(sum_);
  for (double& v : out) v /= weight_sum_;
  return out;
}

AggregationTree::AggregationTree(const TreeTopologyConfig& config,
                                 uint64_t seed)
    : config_(config), base_(seed) {}

int AggregationTree::depth() const {
  if (config_.edge_fanout <= 0) return 1;
  return config_.regional_fanout > 0 ? 3 : 2;
}

bool AggregationTree::AggregatorAlive(int round, int tier, int node) const {
  if (config_.aggregator_crash_prob <= 0.0) return true;
  for (int back = 0; back < config_.aggregator_rejoin_rounds; ++back) {
    const int r = round - back;
    if (r < 0) break;
    Rng draw = base_.ForkAt(MixKey(static_cast<uint64_t>(r) + 1,
                                   static_cast<uint64_t>(tier) + 1,
                                   static_cast<uint64_t>(node) + 1));
    if (draw.Bernoulli(config_.aggregator_crash_prob)) return false;
  }
  return true;
}

double AggregationTree::InteriorTransferSeconds(int round, int tier,
                                                int node,
                                                double bytes) const {
  const LinkModel& link = tier == 0 ? config_.edge_up : config_.regional_up;
  double t = link.latency_s;
  if (link.bandwidth_bps > 0.0) t += bytes / link.bandwidth_bps;
  if (link.jitter_s > 0.0) {
    Rng draw = base_.ForkAt(MixKey(static_cast<uint64_t>(round) + 1,
                                   static_cast<uint64_t>(tier) + 100,
                                   static_cast<uint64_t>(node) + 1));
    t += draw.Uniform(0.0, link.jitter_s);
  }
  return t;
}

namespace {

void TraceForward(std::vector<std::string>* trace, int round, int tier,
                  int node, int members, double arrive) {
  if (trace == nullptr) return;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "round=%d tree-fwd tier=%d node=%d n=%d "
                "t=%.6f", round, tier, node, members, arrive);
  trace->push_back(buf);
}

void TraceCrash(std::vector<std::string>* trace, int round, int tier,
                int node, int lost) {
  if (trace == nullptr) return;
  char buf[80];
  std::snprintf(buf, sizeof(buf), "round=%d tree-crash tier=%d node=%d "
                "lost=%d", round, tier, node, lost);
  trace->push_back(buf);
}

}  // namespace

TreeDelivery AggregationTree::Route(int round,
                                    const std::vector<TreeArrival>& arrivals,
                                    double agg_msg_bytes,
                                    std::vector<std::string>* trace) const {
  TreeDelivery out;
  out.hop_bytes.assign(static_cast<size_t>(depth()), 0.0);
  if (!enabled() || arrivals.empty()) return out;

  // Tier 0: edge aggregators. Arrivals are ascending by client, and
  // EdgeOf is monotone, so edge groups are contiguous ascending runs.
  struct Forward {
    int node = 0;
    double arrive_s = 0.0;
    size_t first = 0;  ///< [first, last) range into `arrivals`
    size_t last = 0;
  };
  std::vector<Forward> edge_forwards;
  size_t i = 0;
  while (i < arrivals.size()) {
    const int edge = EdgeOf(arrivals[i].client);
    size_t j = i;
    double latest = 0.0;
    while (j < arrivals.size() && EdgeOf(arrivals[j].client) == edge) {
      latest = std::max(latest, arrivals[j].edge_arrival_s);
      ++j;
    }
    const int members = static_cast<int>(j - i);
    if (!AggregatorAlive(round, /*tier=*/0, edge)) {
      ++out.aggregator_crashes;
      out.subtree_lost += members;
      TraceCrash(trace, round, 0, edge, members);
    } else {
      Forward fwd;
      fwd.node = edge;
      fwd.arrive_s =
          latest + InteriorTransferSeconds(round, 0, edge, agg_msg_bytes);
      fwd.first = i;
      fwd.last = j;
      out.hop_bytes[1] += agg_msg_bytes;
      ++out.forwards;
      TraceForward(trace, round, 0, edge, members, fwd.arrive_s);
      edge_forwards.push_back(fwd);
    }
    i = j;
  }

  auto deliver_range = [&](size_t first, size_t last, double root_arrival) {
    for (size_t k = first; k < last; ++k) {
      out.delivered.push_back(arrivals[k].client);
      out.root_arrival_s.push_back(root_arrival);
    }
  };

  if (config_.regional_fanout <= 0) {
    // Depth 2: edge forwards land at the root directly.
    for (const Forward& fwd : edge_forwards) {
      deliver_range(fwd.first, fwd.last, fwd.arrive_s);
    }
    return out;
  }

  // Tier 1: regional aggregators, again contiguous ascending runs.
  size_t e = 0;
  while (e < edge_forwards.size()) {
    const int regional = RegionalOf(edge_forwards[e].node);
    size_t f = e;
    double latest = 0.0;
    int members = 0;
    while (f < edge_forwards.size() &&
           RegionalOf(edge_forwards[f].node) == regional) {
      latest = std::max(latest, edge_forwards[f].arrive_s);
      members +=
          static_cast<int>(edge_forwards[f].last - edge_forwards[f].first);
      ++f;
    }
    if (!AggregatorAlive(round, /*tier=*/1, regional)) {
      ++out.aggregator_crashes;
      out.subtree_lost += members;
      TraceCrash(trace, round, 1, regional, members);
    } else {
      const double root_arrival =
          latest +
          InteriorTransferSeconds(round, 1, regional, agg_msg_bytes);
      out.hop_bytes[2] += agg_msg_bytes;
      ++out.forwards;
      TraceForward(trace, round, 1, regional, members, root_arrival);
      for (size_t k = e; k < f; ++k) {
        deliver_range(edge_forwards[k].first, edge_forwards[k].last,
                      root_arrival);
      }
    }
    e = f;
  }
  return out;
}

StreamingAccumulator AggregationTree::Accumulate(
    const std::vector<int>& clients,
    const std::function<void(size_t, StreamingAccumulator*)>& add) const {
  StreamingAccumulator root;
  if (!enabled()) {
    for (size_t i = 0; i < clients.size(); ++i) add(i, &root);
    return root;
  }
  const bool regional_tier = depth() == 3;
  StreamingAccumulator regional, edge;
  StreamingAccumulator& edge_parent = regional_tier ? regional : root;
  int cur_edge = -1;
  int cur_regional = -1;
  for (size_t i = 0; i < clients.size(); ++i) {
    const int e = EdgeOf(clients[i]);
    if (e != cur_edge) {
      // Fold the finished edge into its parent before checking for a
      // regional boundary.
      if (cur_edge >= 0) {
        edge_parent.Merge(edge);
        edge = StreamingAccumulator();
      }
      if (regional_tier && RegionalOf(e) != cur_regional) {
        if (cur_regional >= 0) {
          root.Merge(regional);
          regional = StreamingAccumulator();
        }
        cur_regional = RegionalOf(e);
      }
      cur_edge = e;
    }
    add(i, &edge);
  }
  if (cur_edge >= 0) edge_parent.Merge(edge);
  if (cur_regional >= 0) root.Merge(regional);
  return root;
}

}  // namespace fexiot
