#include "baselines/lstm.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fexiot {
namespace {

double SigmoidScalar(double x) { return 1.0 / (1.0 + std::exp(-x)); }

std::vector<double> Softmax(const std::vector<double>& logits) {
  std::vector<double> out(logits.size());
  double mx = logits[0];
  for (double v : logits) mx = std::max(mx, v);
  double sum = 0.0;
  for (size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(logits[i] - mx);
    sum += out[i];
  }
  for (auto& v : out) v /= sum;
  return out;
}

}  // namespace

/// Per-step activations recorded for BPTT.
struct LstmLanguageModel::StepCache {
  int key = 0;
  std::vector<double> h_prev, c_prev;
  std::vector<double> i, f, o, g;  // gate activations
  std::vector<double> c, h;
  std::vector<double> probs;
};

LstmLanguageModel::LstmLanguageModel(Options options) : options_(options) {
  Rng rng(options_.seed);
  const size_t v = static_cast<size_t>(options_.vocab_size);
  const size_t e = static_cast<size_t>(options_.embedding_dim);
  const size_t h = static_cast<size_t>(options_.hidden_dim);
  embed_ = Matrix::RandomNormal(v, e, 0.1, &rng);
  wx_ = Matrix::GlorotUniform(e, 4 * h, &rng);
  wh_ = Matrix::GlorotUniform(h, 4 * h, &rng);
  b_ = Matrix(1, 4 * h);
  // Forget-gate bias 1.0 (standard initialization).
  for (size_t j = h; j < 2 * h; ++j) b_.At(0, j) = 1.0;
  wout_ = Matrix::GlorotUniform(h, v, &rng);
  bout_ = Matrix(1, v);
}

std::vector<double> LstmLanguageModel::Step(int key, std::vector<double>* h,
                                            std::vector<double>* c,
                                            StepCache* cache) const {
  const size_t hd = static_cast<size_t>(options_.hidden_dim);
  const size_t ed = static_cast<size_t>(options_.embedding_dim);
  const size_t vd = static_cast<size_t>(options_.vocab_size);
  assert(key >= 0 && key < options_.vocab_size);

  // Gate pre-activations: a = x W_x + h W_h + b.
  std::vector<double> a(4 * hd, 0.0);
  for (size_t j = 0; j < 4 * hd; ++j) a[j] = b_.At(0, j);
  const double* x = embed_.RowPtr(static_cast<size_t>(key));
  for (size_t k = 0; k < ed; ++k) {
    const double xv = x[k];
    const double* row = wx_.RowPtr(k);
    for (size_t j = 0; j < 4 * hd; ++j) a[j] += xv * row[j];
  }
  for (size_t k = 0; k < hd; ++k) {
    const double hv = (*h)[k];
    if (hv == 0.0) continue;
    const double* row = wh_.RowPtr(k);
    for (size_t j = 0; j < 4 * hd; ++j) a[j] += hv * row[j];
  }

  std::vector<double> gi(hd), gf(hd), go(hd), gg(hd);
  for (size_t j = 0; j < hd; ++j) {
    gi[j] = SigmoidScalar(a[j]);
    gf[j] = SigmoidScalar(a[hd + j]);
    go[j] = SigmoidScalar(a[2 * hd + j]);
    gg[j] = std::tanh(a[3 * hd + j]);
  }
  std::vector<double> c_new(hd), h_new(hd);
  for (size_t j = 0; j < hd; ++j) {
    c_new[j] = gf[j] * (*c)[j] + gi[j] * gg[j];
    h_new[j] = go[j] * std::tanh(c_new[j]);
  }

  std::vector<double> logits(vd);
  for (size_t vv = 0; vv < vd; ++vv) logits[vv] = bout_.At(0, vv);
  for (size_t k = 0; k < hd; ++k) {
    const double hv = h_new[k];
    const double* row = wout_.RowPtr(k);
    for (size_t vv = 0; vv < vd; ++vv) logits[vv] += hv * row[vv];
  }

  if (cache) {
    cache->key = key;
    cache->h_prev = *h;
    cache->c_prev = *c;
    cache->i = gi;
    cache->f = gf;
    cache->o = go;
    cache->g = gg;
    cache->c = c_new;
    cache->h = h_new;
  }
  *h = std::move(h_new);
  *c = std::move(c_new);
  return logits;
}

double LstmLanguageModel::Fit(const std::vector<std::vector<int>>& sequences) {
  const size_t hd = static_cast<size_t>(options_.hidden_dim);
  const size_t ed = static_cast<size_t>(options_.embedding_dim);
  const size_t vd = static_cast<size_t>(options_.vocab_size);
  double final_ce = 0.0;

  // Gradient buffers.
  Matrix g_embed(vd, ed), g_wx(ed, 4 * hd), g_wh(hd, 4 * hd), g_b(1, 4 * hd);
  Matrix g_wout(hd, vd), g_bout(1, vd);

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    double ce_sum = 0.0;
    int ce_count = 0;
    for (const auto& seq : sequences) {
      if (seq.size() < 2) continue;
      std::vector<double> h(hd, 0.0), c(hd, 0.0);
      for (size_t start = 0; start + 1 < seq.size();
           start += static_cast<size_t>(options_.bptt_steps)) {
        const size_t end = std::min(
            seq.size() - 1, start + static_cast<size_t>(options_.bptt_steps));
        // Forward over the window with caches.
        std::vector<StepCache> caches(end - start);
        std::vector<std::vector<double>> probs(end - start);
        for (size_t t = start; t < end; ++t) {
          const std::vector<double> logits =
              Step(seq[t], &h, &c, &caches[t - start]);
          probs[t - start] = Softmax(logits);
          caches[t - start].probs = probs[t - start];
          const int target = seq[t + 1];
          ce_sum -= std::log(
              probs[t - start][static_cast<size_t>(target)] + 1e-12);
          ++ce_count;
        }

        // BPTT.
        g_embed.Fill(0.0);
        g_wx.Fill(0.0);
        g_wh.Fill(0.0);
        g_b.Fill(0.0);
        g_wout.Fill(0.0);
        g_bout.Fill(0.0);
        std::vector<double> dh_next(hd, 0.0), dc_next(hd, 0.0);
        for (size_t t = end; t-- > start;) {
          const StepCache& cc = caches[t - start];
          // Output layer gradient.
          std::vector<double> dlogits = cc.probs;
          dlogits[static_cast<size_t>(seq[t + 1])] -= 1.0;
          std::vector<double> dh = dh_next;
          for (size_t k = 0; k < hd; ++k) {
            double* row = g_wout.RowPtr(k);
            for (size_t vv = 0; vv < vd; ++vv) {
              row[vv] += cc.h[k] * dlogits[vv];
            }
          }
          for (size_t vv = 0; vv < vd; ++vv) {
            g_bout.At(0, vv) += dlogits[vv];
          }
          for (size_t k = 0; k < hd; ++k) {
            const double* row = wout_.RowPtr(k);
            double s = 0.0;
            for (size_t vv = 0; vv < vd; ++vv) s += row[vv] * dlogits[vv];
            dh[k] += s;
          }
          // Through h = o * tanh(c).
          std::vector<double> dc(hd);
          std::vector<double> da(4 * hd);
          for (size_t j = 0; j < hd; ++j) {
            const double tc = std::tanh(cc.c[j]);
            const double do_ = dh[j] * tc;
            dc[j] = dh[j] * cc.o[j] * (1.0 - tc * tc) + dc_next[j];
            const double di = dc[j] * cc.g[j];
            const double df = dc[j] * cc.c_prev[j];
            const double dg = dc[j] * cc.i[j];
            da[j] = di * cc.i[j] * (1.0 - cc.i[j]);
            da[hd + j] = df * cc.f[j] * (1.0 - cc.f[j]);
            da[2 * hd + j] = do_ * cc.o[j] * (1.0 - cc.o[j]);
            da[3 * hd + j] = dg * (1.0 - cc.g[j] * cc.g[j]);
          }
          // Parameter grads + upstream grads.
          const double* x = embed_.RowPtr(static_cast<size_t>(cc.key));
          std::vector<double> dx(ed, 0.0);
          for (size_t k = 0; k < ed; ++k) {
            double* row = g_wx.RowPtr(k);
            const double* wrow = wx_.RowPtr(k);
            double s = 0.0;
            for (size_t j = 0; j < 4 * hd; ++j) {
              row[j] += x[k] * da[j];
              s += wrow[j] * da[j];
            }
            dx[k] = s;
          }
          {
            double* grow = g_embed.RowPtr(static_cast<size_t>(cc.key));
            for (size_t k = 0; k < ed; ++k) grow[k] += dx[k];
          }
          std::vector<double> dh_prev(hd, 0.0);
          for (size_t k = 0; k < hd; ++k) {
            double* row = g_wh.RowPtr(k);
            const double* wrow = wh_.RowPtr(k);
            double s = 0.0;
            for (size_t j = 0; j < 4 * hd; ++j) {
              row[j] += cc.h_prev[k] * da[j];
              s += wrow[j] * da[j];
            }
            dh_prev[k] = s;
          }
          for (size_t j = 0; j < 4 * hd; ++j) g_b.At(0, j) += da[j];
          std::vector<double> dc_prev(hd);
          for (size_t j = 0; j < hd; ++j) dc_prev[j] = dc[j] * cc.f[j];
          dh_next = std::move(dh_prev);
          dc_next = std::move(dc_prev);
        }

        // SGD update with gradient clipping.
        const double steps = static_cast<double>(end - start);
        auto update = [&](Matrix* p, const Matrix& g) {
          for (size_t i = 0; i < p->size(); ++i) {
            double grad = g.data()[i] / steps;
            grad = std::clamp(grad, -1.0, 1.0);
            p->data()[i] -= options_.learning_rate * grad;
          }
        };
        update(&embed_, g_embed);
        update(&wx_, g_wx);
        update(&wh_, g_wh);
        update(&b_, g_b);
        update(&wout_, g_wout);
        update(&bout_, g_bout);
      }
    }
    final_ce = ce_count > 0 ? ce_sum / ce_count : 0.0;
  }
  return final_ce;
}

std::vector<double> LstmLanguageModel::NextKeyDistribution(
    const std::vector<int>& history) const {
  const size_t hd = static_cast<size_t>(options_.hidden_dim);
  std::vector<double> h(hd, 0.0), c(hd, 0.0);
  std::vector<double> logits(static_cast<size_t>(options_.vocab_size), 0.0);
  for (int key : history) logits = Step(key, &h, &c, nullptr);
  return Softmax(logits);
}

double LstmLanguageModel::AnomalyRate(const std::vector<int>& sequence,
                                      int k) const {
  if (sequence.size() < 2) return 0.0;
  const size_t hd = static_cast<size_t>(options_.hidden_dim);
  std::vector<double> h(hd, 0.0), c(hd, 0.0);
  int anomalies = 0, total = 0;
  for (size_t t = 0; t + 1 < sequence.size(); ++t) {
    const std::vector<double> logits = Step(sequence[t], &h, &c, nullptr);
    const std::vector<double> dist = Softmax(logits);
    const double p_next = dist[static_cast<size_t>(sequence[t + 1])];
    int better = 0;
    for (double p : dist) {
      if (p > p_next) ++better;
    }
    if (better >= k) ++anomalies;
    ++total;
  }
  return total > 0 ? static_cast<double>(anomalies) / total : 0.0;
}

}  // namespace fexiot
