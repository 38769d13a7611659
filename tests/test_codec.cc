#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "runtime/codec.h"

namespace fexiot {
namespace {

// ---------------------------------------------------------------------------
// Names and wire ids
// ---------------------------------------------------------------------------

TEST(Codec, NamesAndWireIdsAreStable) {
  EXPECT_STREQ(WireCodecName(WireCodec::kFp64), "fp64");
  EXPECT_STREQ(WireCodecName(WireCodec::kFp32), "fp32");
  EXPECT_STREQ(WireCodecName(WireCodec::kBf16), "bf16");
  EXPECT_STREQ(WireCodecName(WireCodec::kInt8), "int8");
  EXPECT_TRUE(IsValidWireCodec(0));
  EXPECT_TRUE(IsValidWireCodec(3));
  EXPECT_FALSE(IsValidWireCodec(4));
  EXPECT_FALSE(IsValidWireCodec(0xFFFFFFFFu));
}

// ---------------------------------------------------------------------------
// Encoded record size / framing contracts
// ---------------------------------------------------------------------------

TEST(Codec, EncodedPayloadBytesMatchesAppendExactly) {
  Rng rng(0xC0DEC);
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{33}, size_t{257}}) {
    std::vector<double> v(n);
    for (auto& x : v) x = rng.Uniform() * 4.0 - 2.0;
    for (int k = 0; k < kNumWireCodecs; ++k) {
      const WireCodec c = static_cast<WireCodec>(k);
      std::vector<uint8_t> out;
      AppendEncodedPayload(&out, v, c);
      EXPECT_EQ(out.size(), EncodedPayloadBytes(n, c))
          << WireCodecName(c) << " n=" << n;
    }
  }
}

TEST(Codec, Fp64RecordIsByteIdenticalToRawDoubles) {
  const std::vector<double> v = {1.5, -2.25, 0.0, -0.0, 1e-300, 3.14159};
  std::vector<uint8_t> out;
  AppendEncodedPayload(&out, v, WireCodec::kFp64);
  ASSERT_EQ(out.size(), sizeof(uint64_t) + v.size() * sizeof(double));
  EXPECT_EQ(std::memcmp(out.data() + sizeof(uint64_t), v.data(),
                        v.size() * sizeof(double)),
            0);
}

TEST(Codec, LossyCodecsShrinkTheRecord) {
  const size_t n = 1000;
  const size_t fp64 = EncodedPayloadBytes(n, WireCodec::kFp64);
  EXPECT_LT(EncodedPayloadBytes(n, WireCodec::kFp32), fp64);
  EXPECT_LT(EncodedPayloadBytes(n, WireCodec::kBf16),
            EncodedPayloadBytes(n, WireCodec::kFp32));
  EXPECT_LT(EncodedPayloadBytes(n, WireCodec::kInt8),
            EncodedPayloadBytes(n, WireCodec::kBf16));
  // The headline ratio: int8 lanes are ~8x smaller than fp64 lanes.
  EXPECT_GE(static_cast<double>(fp64) /
                static_cast<double>(EncodedPayloadBytes(n, WireCodec::kInt8)),
            7.0);
}

// ---------------------------------------------------------------------------
// Round-trip error bounds
// ---------------------------------------------------------------------------

std::vector<double> DecodeRecord(const std::vector<uint8_t>& bytes,
                                 WireCodec codec) {
  std::vector<double> out;
  size_t off = 0;
  EXPECT_TRUE(ReadEncodedPayload(bytes.data(), bytes.size(), &off, codec, &out));
  EXPECT_EQ(off, bytes.size());
  return out;
}

TEST(Codec, Fp32RoundTripWithinHalfUlp) {
  Rng rng(11);
  std::vector<double> v(512);
  for (auto& x : v) x = (rng.Uniform() * 2.0 - 1.0) * 10.0;
  std::vector<uint8_t> bytes;
  AppendEncodedPayload(&bytes, v, WireCodec::kFp32);
  const std::vector<double> back = DecodeRecord(bytes, WireCodec::kFp32);
  ASSERT_EQ(back.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    // Round-to-nearest f32: relative error <= 2^-24.
    EXPECT_LE(std::abs(back[i] - v[i]),
              std::abs(v[i]) * std::ldexp(1.0, -24) +
                  std::numeric_limits<double>::min())
        << i;
  }
}

TEST(Codec, Bf16RoundTripWithinDocumentedRelativeError) {
  Rng rng(12);
  std::vector<double> v(512);
  for (auto& x : v) x = (rng.Uniform() * 2.0 - 1.0) * 10.0;
  std::vector<uint8_t> bytes;
  AppendEncodedPayload(&bytes, v, WireCodec::kBf16);
  const std::vector<double> back = DecodeRecord(bytes, WireCodec::kBf16);
  ASSERT_EQ(back.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    // 8 explicit mantissa bits, round to nearest: relative error <= 2^-8.
    EXPECT_LE(std::abs(back[i] - v[i]), std::abs(v[i]) * std::ldexp(1.0, -8))
        << i;
  }
}

TEST(Codec, Int8RoundTripWithinHalfScalePerElement) {
  Rng rng(13);
  std::vector<double> v(512);
  for (auto& x : v) x = (rng.Uniform() * 2.0 - 1.0) * 0.05;
  double lo = v[0], hi = v[0];
  for (double x : v) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  const double scale = (hi - lo) / 255.0;
  std::vector<uint8_t> bytes;
  AppendEncodedPayload(&bytes, v, WireCodec::kInt8);
  const std::vector<double> back = DecodeRecord(bytes, WireCodec::kInt8);
  ASSERT_EQ(back.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    // Affine quantization: error <= scale/2, plus slack for the fp32
    // rounding of the stored scale/zero-point endpoints.
    EXPECT_LE(std::abs(back[i] - v[i]),
              scale / 2.0 + (std::abs(lo) + std::abs(hi) + scale) * 1e-6)
        << i;
  }
}

TEST(Codec, Int8ConstantTensorIsExactUpToF32) {
  const std::vector<double> v(17, 0.03125);  // exactly representable in f32
  std::vector<uint8_t> bytes;
  AppendEncodedPayload(&bytes, v, WireCodec::kInt8);
  for (double x : DecodeRecord(bytes, WireCodec::kInt8)) {
    EXPECT_EQ(x, 0.03125);
  }
}

TEST(Codec, EmptyAndSingleElementTensors) {
  for (int k = 0; k < kNumWireCodecs; ++k) {
    const WireCodec c = static_cast<WireCodec>(k);
    {
      std::vector<uint8_t> bytes;
      AppendEncodedPayload(&bytes, {}, c);
      EXPECT_TRUE(DecodeRecord(bytes, c).empty()) << WireCodecName(c);
    }
    {
      std::vector<uint8_t> bytes;
      AppendEncodedPayload(&bytes, {0.75}, c);
      const std::vector<double> back = DecodeRecord(bytes, c);
      ASSERT_EQ(back.size(), 1u) << WireCodecName(c);
      // 0.75 is exact in every lane format (int8: zero_point = min = 0.75).
      EXPECT_EQ(back[0], 0.75) << WireCodecName(c);
    }
  }
}

TEST(Codec, NonFiniteHandlingPerCodec) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> v = {1.0, -1.0, inf, -inf, nan, 0.0, -0.0};
  for (WireCodec c : {WireCodec::kFp32, WireCodec::kBf16}) {
    std::vector<uint8_t> bytes;
    AppendEncodedPayload(&bytes, v, c);
    const std::vector<double> back = DecodeRecord(bytes, c);
    ASSERT_EQ(back.size(), v.size());
    EXPECT_EQ(back[2], inf) << WireCodecName(c);
    EXPECT_EQ(back[3], -inf) << WireCodecName(c);
    EXPECT_TRUE(std::isnan(back[4])) << WireCodecName(c);
    EXPECT_EQ(back[5], 0.0) << WireCodecName(c);
    EXPECT_TRUE(std::signbit(back[6])) << WireCodecName(c);
  }
  {
    // int8: +inf saturates to the top code, -inf/NaN to the bottom one;
    // the scale comes from the finite range [-1, 1] only.
    std::vector<uint8_t> bytes;
    AppendEncodedPayload(&bytes, v, WireCodec::kInt8);
    const std::vector<double> back = DecodeRecord(bytes, WireCodec::kInt8);
    ASSERT_EQ(back.size(), v.size());
    for (double x : back) EXPECT_TRUE(std::isfinite(x));
    EXPECT_NEAR(back[2], 1.0, 1e-6);   // +inf -> max code -> finite max
    EXPECT_NEAR(back[3], -1.0, 1e-6);  // -inf -> min code -> finite min
    EXPECT_NEAR(back[4], -1.0, 1e-6);  // NaN -> min code
  }
  {
    // Huge-but-finite doubles clamp through f32 to +-inf, never UB.
    std::vector<uint8_t> bytes;
    AppendEncodedPayload(&bytes, {1e308, -1e308}, WireCodec::kFp32);
    const std::vector<double> back = DecodeRecord(bytes, WireCodec::kFp32);
    EXPECT_EQ(back[0], inf);
    EXPECT_EQ(back[1], -inf);
  }
}

TEST(Codec, Bf16NanNeverBecomesInf) {
  const uint16_t b = FloatToBf16(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(std::isnan(Bf16ToFloat(b)));
  // All NaN payload patterns stay NaN through the rounding path too.
  uint32_t bits = 0x7F800001u;  // signaling-ish NaN with a low mantissa bit
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof(f));
  EXPECT_TRUE(std::isnan(Bf16ToFloat(FloatToBf16(f))));
}

// ---------------------------------------------------------------------------
// Determinism and encode stability
// ---------------------------------------------------------------------------

TEST(Codec, EncodeDecodeEncodeIsByteStable) {
  // Idempotency: re-encoding the dequantized payload reproduces the exact
  // record bytes, so a relay node never degrades a message further.
  Rng rng(14);
  std::vector<double> v(300);
  for (auto& x : v) x = (rng.Uniform() * 2.0 - 1.0) * 0.2;
  for (int k = 0; k < kNumWireCodecs; ++k) {
    const WireCodec c = static_cast<WireCodec>(k);
    std::vector<uint8_t> first;
    AppendEncodedPayload(&first, v, c);
    const std::vector<double> mid = DecodeRecord(first, c);
    std::vector<uint8_t> second;
    AppendEncodedPayload(&second, mid, c);
    EXPECT_EQ(first, second) << WireCodecName(c);
  }
}

TEST(Codec, RoundTripHelperMatchesWireRoundTrip) {
  Rng rng(15);
  std::vector<double> v(128);
  for (auto& x : v) x = rng.Uniform() * 2.0 - 1.0;
  for (int k = 0; k < kNumWireCodecs; ++k) {
    const WireCodec c = static_cast<WireCodec>(k);
    std::vector<uint8_t> bytes;
    AppendEncodedPayload(&bytes, v, c);
    EXPECT_EQ(CodecRoundTripped(c, v), DecodeRecord(bytes, c))
        << WireCodecName(c);
  }
}

TEST(Codec, QuantizationIsDeterministic) {
  Rng rng(16);
  std::vector<double> v(200);
  for (auto& x : v) x = rng.Uniform() * 6.0 - 3.0;
  for (int k = 0; k < kNumWireCodecs; ++k) {
    const WireCodec c = static_cast<WireCodec>(k);
    std::vector<uint8_t> a, b;
    AppendEncodedPayload(&a, v, c);
    AppendEncodedPayload(&b, v, c);
    EXPECT_EQ(a, b) << WireCodecName(c);
  }
}

// ---------------------------------------------------------------------------
// Truncated / hostile records
// ---------------------------------------------------------------------------

TEST(Codec, TruncatedRecordsFailCleanly) {
  std::vector<double> v(64, 0.5);
  v[0] = -1.0;
  v[63] = 1.0;
  for (int k = 0; k < kNumWireCodecs; ++k) {
    const WireCodec c = static_cast<WireCodec>(k);
    std::vector<uint8_t> bytes;
    AppendEncodedPayload(&bytes, v, c);
    for (size_t cut : {size_t{0}, size_t{4}, size_t{8}, size_t{9},
                       bytes.size() - 1}) {
      size_t off = 0;
      std::vector<double> out;
      EXPECT_FALSE(ReadEncodedPayload(bytes.data(), cut, &off, c, &out))
          << WireCodecName(c) << " cut=" << cut;
    }
  }
}

TEST(Codec, CorruptedCountDoesNotAllocatePetabytes) {
  std::vector<uint8_t> bytes;
  AppendEncodedPayload(&bytes, {1.0, 2.0}, WireCodec::kInt8);
  // Overwrite the u64 element count with a huge value: the reader must
  // reject it from the remaining-bytes bound, not try to resize.
  const uint64_t huge = ~uint64_t{0} / 2;
  std::memcpy(bytes.data(), &huge, sizeof(huge));
  size_t off = 0;
  std::vector<double> out;
  EXPECT_FALSE(
      ReadEncodedPayload(bytes.data(), bytes.size(), &off, WireCodec::kInt8,
                         &out));
}

}  // namespace
}  // namespace fexiot
