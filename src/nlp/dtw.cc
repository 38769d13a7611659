#include "nlp/dtw.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/ops.h"

namespace fexiot {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Generic DTW over a cost callback; returns accumulated cost / path length.
template <typename CostFn>
double DtwImpl(size_t n, size_t m, const CostFn& cost) {
  if (n == 0 && m == 0) return 0.0;
  if (n == 0 || m == 0) return 2.0;  // maximal normalized distance
  // dp[i][j]: best accumulated cost ending at (i, j); steps[i][j]: path len.
  std::vector<std::vector<double>> dp(n, std::vector<double>(m, kInf));
  std::vector<std::vector<int>> steps(n, std::vector<int>(m, 0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      const double c = cost(i, j);
      if (i == 0 && j == 0) {
        dp[i][j] = c;
        steps[i][j] = 1;
        continue;
      }
      double best = kInf;
      int best_steps = 0;
      auto consider = [&](size_t pi, size_t pj) {
        if (dp[pi][pj] < best) {
          best = dp[pi][pj];
          best_steps = steps[pi][pj];
        }
      };
      if (i > 0) consider(i - 1, j);
      if (j > 0) consider(i, j - 1);
      if (i > 0 && j > 0) consider(i - 1, j - 1);
      dp[i][j] = best + c;
      steps[i][j] = best_steps + 1;
    }
  }
  return dp[n - 1][m - 1] / steps[n - 1][m - 1];
}

}  // namespace

double DtwDistance(const std::vector<std::vector<double>>& a,
                   const std::vector<std::vector<double>>& b) {
  return DtwImpl(a.size(), b.size(), [&](size_t i, size_t j) {
    // Clamped at 0: for identical embeddings the cosine can round a hair
    // above 1 (e.g. -1.48e-16 under -fsanitize builds), and a cost is a
    // distance.
    return std::max(0.0, 1.0 - CosineSimilarity(a[i], b[j]));
  });
}

}  // namespace fexiot
