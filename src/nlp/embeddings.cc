#include "nlp/embeddings.h"

#include <cmath>
#include <unordered_map>

#include "common/rng.h"
#include "common/hash.h"
#include "nlp/lexicon.h"
#include "nlp/tokenizer.h"
#include "tensor/ops.h"

namespace fexiot {
namespace {

// Fills `out` with unit-variance pseudo-random values seeded by `seed`.
void HashVector(uint64_t seed, std::vector<double>* out) {
  Rng rng(seed);
  for (auto& x : *out) x = rng.Normal();
}

void Normalize(std::vector<double>* v) {
  const double n = VectorNorm(*v);
  if (n > 1e-12) {
    for (auto& x : *v) x /= n;
  }
}

void AxPlusY(double a, const std::vector<double>& x, std::vector<double>* y) {
  for (size_t i = 0; i < x.size(); ++i) (*y)[i] += a * x[i];
}

}  // namespace

std::vector<double> WordEmbedding::Embed(const std::string& word) {
  // Embeddings are deterministic; memoize per thread (corpus generation
  // embeds the same device/action vocabulary millions of times).
  thread_local std::unordered_map<std::string, std::vector<double>> cache;
  auto it = cache.find(word);
  if (it != cache.end()) return it->second;
  const Lexicon& lex = Lexicon::Get();
  const int cluster = lex.ClusterId(word);
  std::vector<double> vec(kDim, 0.0);
  if (cluster != 0) {
    // Shared centroid per synonym group dominates the vector...
    std::vector<double> centroid(kDim);
    HashVector(0x1000000ULL + static_cast<uint64_t>(cluster), &centroid);
    AxPlusY(0.85, centroid, &vec);
    // ... plus a small word-specific residual.
    std::vector<double> residual(kDim);
    HashVector(HashString(word), &residual);
    AxPlusY(0.25, residual, &vec);
  } else {
    HashVector(HashString(word), &vec);
  }
  Normalize(&vec);
  cache.emplace(word, vec);
  return vec;
}

std::vector<double> WordEmbedding::EmbedMean(
    const std::vector<std::string>& words) {
  std::vector<double> out(kDim, 0.0);
  if (words.empty()) return out;
  for (const auto& w : words) {
    const std::vector<double> e = Embed(w);
    AxPlusY(1.0 / static_cast<double>(words.size()), e, &out);
  }
  return out;
}

std::vector<double> SentenceEncoder::Encode(const std::string& sentence) {
  const std::vector<std::string> tokens =
      Tokenizer::TokenizeContent(sentence);
  std::vector<double> out(kDim, 0.0);
  if (tokens.empty()) return out;

  // First 300 dims: mean content-word embedding.
  const std::vector<double> mean = WordEmbedding::EmbedMean(tokens);
  for (int i = 0; i < WordEmbedding::kDim; ++i) out[i] = mean[i];

  // Remaining dims: hashed bigram features (order-sensitive component).
  const int kBigramDim = kDim - WordEmbedding::kDim;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    const uint64_t h = HashString(tokens[i] + "_" + tokens[i + 1]);
    const int slot = static_cast<int>(h % static_cast<uint64_t>(kBigramDim));
    const double sign = ((h >> 32) & 1) ? 1.0 : -1.0;
    out[WordEmbedding::kDim + slot] +=
        sign / static_cast<double>(tokens.size());
  }
  Normalize(&out);
  return out;
}

namespace {

// Multi-grained key-phrase token list for one clause (Section III-A1):
// content words, with device/state words repeated for salience, plus
// device_state compound tokens ("valve_open") so that the exact
// device-state pairing — the signal that separates action conflicts and
// duplicates from benign sibling rules — survives the mean pooling.
std::vector<std::string> KeyPhraseTokens(const std::string& sentence) {
  const Lexicon& lex = Lexicon::Get();
  std::vector<std::string> tokens = Tokenizer::TokenizeContent(sentence);
  std::vector<std::string> out = tokens;
  std::string last_device;
  for (const auto& t : tokens) {
    if (lex.IsDeviceNoun(t)) {
      out.push_back(t);  // device words weighted 2x
      last_device = lex.Canonical(t);
    } else if (lex.IsStateWord(t)) {
      out.push_back(t);  // state words weighted 2x
      if (!last_device.empty()) {
        out.push_back(last_device + "_" + t);
      }
    }
  }
  // "turn on the light": the state word precedes the device; pair the
  // first state word with the first device too.
  std::string first_state, first_device;
  for (const auto& t : tokens) {
    if (first_state.empty() && lex.IsStateWord(t)) first_state = t;
    if (first_device.empty() && lex.IsDeviceNoun(t)) {
      first_device = lex.Canonical(t);
    }
  }
  if (!first_state.empty() && !first_device.empty()) {
    out.push_back(first_device + "_" + first_state);
  }
  return out;
}

}  // namespace

std::vector<double> TriggerActionPairEmbedding(
    const std::string& trigger_sentence, const std::string& action_sentence) {
  const std::vector<double> trig =
      WordEmbedding::EmbedMean(KeyPhraseTokens(trigger_sentence));
  const std::vector<double> act =
      WordEmbedding::EmbedMean(KeyPhraseTokens(action_sentence));
  std::vector<double> out(WordEmbedding::kDim);
  for (int i = 0; i < WordEmbedding::kDim; ++i) out[i] = trig[i] + act[i];
  return out;
}

}  // namespace fexiot
