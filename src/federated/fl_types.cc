#include "federated/fl_types.h"

#include <cstdio>

namespace fexiot {

const char* FlAlgorithmName(FlAlgorithm algorithm) {
  switch (algorithm) {
    case FlAlgorithm::kFedAvg:
      return "FedAvg";
    case FlAlgorithm::kFmtl:
      return "FMTL";
    case FlAlgorithm::kGcfl:
      return "GCFL+";
    case FlAlgorithm::kFexiot:
      return "FexIoT";
    case FlAlgorithm::kLocalOnly:
      return "Client";
  }
  return "?";
}

Status ValidateFlConfig(const FlConfig& config) {
  if (config.num_rounds <= 0) {
    return Status::InvalidArgument("FlConfig: num_rounds must be > 0");
  }
  if (!(config.epsilon1 >= 0.0 && config.epsilon2 >= 0.0)) {
    return Status::InvalidArgument(
        "FlConfig: epsilon1/epsilon2 must be >= 0");
  }
  if (config.min_cluster_size < 2) {
    return Status::InvalidArgument("FlConfig: min_cluster_size must be >= 2");
  }
  if (config.threads < 0) {
    return Status::InvalidArgument("FlConfig: threads must be >= 0");
  }
  FEXIOT_RETURN_NOT_OK(ValidateTrainConfig(config.local));
  return ValidateRuntimeConfig(config.runtime);
}

std::string FlResult::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "acc=%.3f (std %.3f) prec=%.3f rec=%.3f f1=%.3f comm=%.1fMB",
                mean.accuracy, accuracy_std, mean.precision, mean.recall,
                mean.f1,
                (total_uplink_wire_bytes + total_downlink_wire_bytes) /
                    (1024.0 * 1024.0));
  return buf;
}

}  // namespace fexiot
