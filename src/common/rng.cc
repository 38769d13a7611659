#include "common/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <unordered_set>

namespace fexiot {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  while (u1 <= 1e-300) u1 = Uniform();
  const double u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

double Rng::Gamma(double shape) {
  assert(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 then scale back (Marsaglia-Tsang trick).
    const double u = Uniform();
    return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = Normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    const double u = Uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

std::vector<double> Rng::Dirichlet(double alpha, int k) {
  assert(k > 0);
  std::vector<double> out(static_cast<size_t>(k));
  double sum = 0.0;
  for (auto& x : out) {
    x = Gamma(alpha);
    sum += x;
  }
  if (sum <= 0.0) {
    // Degenerate draw; fall back to uniform.
    for (auto& x : out) x = 1.0 / k;
    return out;
  }
  for (auto& x : out) x /= sum;
  return out;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  assert(!weights.empty());
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  double r = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return i;
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  assert(k <= n);
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  // Partial Fisher-Yates: only the first k positions need shuffling.
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + static_cast<size_t>(UniformInt(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

std::vector<uint64_t> Rng::SampleSorted(uint64_t n, uint64_t k) {
  std::vector<uint64_t> out;
  if (k >= n) {
    out.resize(n);
    std::iota(out.begin(), out.end(), 0);
    return out;
  }
  std::unordered_set<uint64_t> chosen;
  chosen.reserve(static_cast<size_t>(k) * 2);
  for (uint64_t j = n - k; j < n; ++j) {
    const uint64_t t = UniformInt(j + 1);
    if (!chosen.insert(t).second) chosen.insert(j);
  }
  out.assign(chosen.begin(), chosen.end());
  std::sort(out.begin(), out.end());
  return out;
}

Rng Rng::Fork() { return Rng(NextU64() ^ 0xa5a5a5a5a5a5a5a5ULL); }

Rng Rng::ForkAt(uint64_t index) const {
  // Child seed = splitmix64 of (state digest + index * golden ratio): the
  // children enumerate a splitmix64 counter stream anchored at this
  // generator's state, so distinct indices yield decorrelated streams and
  // the parent state is never touched.
  uint64_t sm =
      (s_[0] ^ Rotl(s_[1], 16) ^ Rotl(s_[2], 32) ^ Rotl(s_[3], 48)) +
      index * 0x9e3779b97f4a7c15ULL;
  return Rng(SplitMix64(&sm));
}

}  // namespace fexiot
