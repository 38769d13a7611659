#pragma once

#include <string>
#include <vector>

namespace fexiot {

/// \brief Jenks natural-breaks classification.
///
/// Used to convert numeric sensor readings in event logs (e.g. "humidity is
/// 32") into the logical values app descriptions use ("humidity is low"),
/// per Section III-A2. Breaks minimize in-class variance via the classic
/// Fisher-Jenks dynamic program.
class JenksBreaks {
 public:
  /// Computes \p num_classes - 1 interior break values for \p values.
  /// Returns the full boundary list (num_classes + 1 values including min
  /// and max). Requires values.size() >= num_classes >= 1. Refuses (returns
  /// an empty list) values whose sums or sums of squares are not finite:
  /// a NaN or infinite value, or one so large its square overflows, would
  /// leave the dynamic program without a split.
  static std::vector<double> Compute(std::vector<double> values,
                                     int num_classes);

  /// Maps \p value to a class index in [0, num_classes) given boundaries
  /// from Compute().
  static int Classify(double value, const std::vector<double>& boundaries);

  /// Convenience labels for 2/3-class breaks ("low"/"high",
  /// "low"/"medium"/"high").
  static std::string ClassLabel(int class_index, int num_classes);
};

}  // namespace fexiot
