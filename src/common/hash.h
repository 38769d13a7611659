#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace fexiot {

/// \brief Incremental 64-bit FNV-1a hash: the one content digest behind
/// token hashes, corpus fingerprints, explanation subset keys and model
/// fingerprints.
///
/// Words are mixed least-significant byte first, so a digest is the same
/// on every platform. Header-only so the per-byte loop inlines into the
/// hot callers (token hashing on the fuse path, subset keys in
/// explanation search).
class Fnv1a {
 public:
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr uint64_t kPrime = 0x100000001b3ULL;

  /// Starts a fresh digest, or continues one from a previous digest()
  /// when \p state is given.
  explicit Fnv1a(uint64_t state = kOffsetBasis) : h_(state) {}

  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= kPrime;
    }
  }

  void U64(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffULL;
      h_ *= kPrime;
    }
  }

  /// Bit pattern, not value: 0.0 vs -0.0 or any ulp drift changes the
  /// digest.
  void Double(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

  uint64_t digest() const { return h_; }

 private:
  uint64_t h_;
};

/// \brief Stable 64-bit FNV-1a hash of \p text (platform independent).
inline uint64_t HashString(std::string_view text) {
  Fnv1a h;
  h.Bytes(text.data(), text.size());
  return h.digest();
}

}  // namespace fexiot
