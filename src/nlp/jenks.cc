#include "nlp/jenks.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace fexiot {

std::vector<double> JenksBreaks::Compute(std::vector<double> values,
                                         int num_classes) {
  assert(num_classes >= 1);
  assert(values.size() >= static_cast<size_t>(num_classes));
  // Refuse what the dynamic program cannot split: a NaN (which std::sort
  // cannot order either) or an infinity here, and below, finite values
  // whose sums overflow.
  for (double v : values) {
    if (!std::isfinite(v)) return {};
  }
  std::sort(values.begin(), values.end());
  const int n = static_cast<int>(values.size());
  const int k = num_classes;

  // Prefix sums for O(1) within-class variance queries.
  std::vector<double> pre(n + 1, 0.0), pre2(n + 1, 0.0);
  for (int i = 0; i < n; ++i) {
    pre[i + 1] = pre[i] + values[i];
    pre2[i + 1] = pre2[i] + values[i] * values[i];
  }
  // Over finite values an overflowed running sum stays infinite to the
  // end, so checking the totals covers every prefix.
  if (!std::isfinite(pre[n]) || !std::isfinite(pre2[n])) return {};
  auto ssd = [&](int lo, int hi) {  // sum of squared deviations, [lo, hi)
    const int cnt = hi - lo;
    if (cnt <= 0) return 0.0;
    const double s = pre[hi] - pre[lo];
    const double s2 = pre2[hi] - pre2[lo];
    return s2 - s * s / cnt;
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // dp[c][i]: min total SSD splitting first i values into c classes.
  std::vector<std::vector<double>> dp(k + 1,
                                      std::vector<double>(n + 1, kInf));
  std::vector<std::vector<int>> cut(k + 1, std::vector<int>(n + 1, 0));
  dp[0][0] = 0.0;
  for (int c = 1; c <= k; ++c) {
    for (int i = c; i <= n; ++i) {
      for (int j = c - 1; j < i; ++j) {
        if (dp[c - 1][j] == kInf) continue;
        const double cand = dp[c - 1][j] + ssd(j, i);
        if (cand < dp[c][i]) {
          dp[c][i] = cand;
          cut[c][i] = j;
        }
      }
    }
  }

  // Recover boundaries.
  std::vector<double> bounds(static_cast<size_t>(k) + 1);
  bounds[0] = values.front();
  bounds[static_cast<size_t>(k)] = values.back();
  int i = n;
  for (int c = k; c >= 2; --c) {
    const int j = cut[c][i];
    bounds[static_cast<size_t>(c) - 1] = values[j - 1];
    i = j;
  }
  return bounds;
}

int JenksBreaks::Classify(double value,
                          const std::vector<double>& boundaries) {
  assert(boundaries.size() >= 2);
  const int num_classes = static_cast<int>(boundaries.size()) - 1;
  for (int c = 0; c < num_classes - 1; ++c) {
    if (value <= boundaries[static_cast<size_t>(c) + 1]) return c;
  }
  return num_classes - 1;
}

std::string JenksBreaks::ClassLabel(int class_index, int num_classes) {
  if (num_classes == 2) return class_index == 0 ? "low" : "high";
  if (num_classes == 3) {
    if (class_index == 0) return "low";
    if (class_index == 1) return "medium";
    return "high";
  }
  return "class" + std::to_string(class_index);
}

}  // namespace fexiot
