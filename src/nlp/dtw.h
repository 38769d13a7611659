#pragma once

#include <vector>

namespace fexiot {

/// \brief Dynamic time warping distance between two sequences of embedding
/// vectors (Section III-A1: similarity of verb / object element sequences
/// of different lengths).
///
/// Cost between elements is 1 - cosine similarity, clamped at 0 against
/// rounding, so the distance is 0 for
/// identical sequences and grows with semantic divergence. The result is
/// normalized by the warping path length, keeping it in [0, 2].
double DtwDistance(const std::vector<std::vector<double>>& a,
                   const std::vector<std::vector<double>>& b);

}  // namespace fexiot
