#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fexiot {

/// \brief Wire payload encodings for federated model updates/broadcasts.
///
/// The runtime ships flat fp64 parameter vectors; a codec decides how the
/// lanes are packed on the wire. `kFp64` is the bit-exact passthrough and
/// stays the default: its messages are framed as `FEXMSG01`, byte-identical
/// to the pre-codec wire format, so every existing trace, golden and priced
/// transfer reproduces exactly. The lossy codecs frame as `FEXMSG02` with an
/// explicit encoding field (runtime/message.h) and trade precision for a
/// 2-8x smaller payload:
///
///   codec  | lanes       | per-element error bound (finite inputs)
///   -------|-------------|------------------------------------------------
///   kFp64  | 8 B raw f64 | none (bit-exact)
///   kFp32  | 4 B f32     | relative <= 2^-24 (round-to-nearest halves ULP)
///   kBf16  | 2 B bf16    | relative <= 2^-8 (8 explicit mantissa bits)
///   kInt8  | 1 B u8      | absolute <= scale/2 + f32 rounding of the
///          | + 2x f32    |   endpoints, scale = (max-min)/255 per tensor
///
/// Quantization is per-tensor affine for kInt8: the record stores an fp32
/// scale and zero-point (the value of lane 0) and packs one u8 per element,
/// q = clamp(round((x - zero_point) / scale), 0, 255), dequantized as
/// x' = zero_point + scale * q. Every codec is a *pure deterministic
/// function of the payload* — no rng draws — so quantized runs stay
/// bit-identical across thread counts and reruns (DESIGN.md 5.13).
///
/// Non-finite handling: kFp32/kBf16 preserve +-inf and NaN-ness (NaNs stay
/// NaN, never collapse to inf). kInt8 cannot represent non-finite lanes:
/// the scale/zero-point come from the finite elements only, +inf clamps to
/// the top code (255), -inf and NaN clamp to the bottom code (0) — a
/// deterministic, documented degradation for tensors that should never
/// contain non-finite weights in the first place.
enum class WireCodec : uint8_t {
  kFp64 = 0,  ///< bit-exact passthrough (default; FEXMSG01 framing)
  kFp32 = 1,  ///< IEEE binary32 lanes
  kBf16 = 2,  ///< bfloat16 lanes (truncated f32, round-to-nearest-even)
  kInt8 = 3,  ///< per-tensor affine u8 lanes + fp32 scale/zero-point
};

/// Number of distinct codecs (validation / sweep loops).
constexpr int kNumWireCodecs = 4;

const char* WireCodecName(WireCodec codec);

/// True for the four defined encodings; false for any other bit pattern
/// (e.g. an unknown encoding id read off the wire).
bool IsValidWireCodec(uint32_t raw);

/// \brief Exact byte size of the encoded payload record for \p n elements
/// under \p codec (the u64 element count prefix plus the packed lanes and,
/// for kInt8, the fp32 scale/zero-point header). Matches what
/// AppendEncodedPayload emits, byte for byte.
size_t EncodedPayloadBytes(size_t n, WireCodec codec);

/// \brief Appends the encoded payload record (u64 count + codec lanes) for
/// \p values to \p out. kFp64 emits the legacy layer record of
/// gnn/serialization (u64 count + raw doubles), byte-identical to
/// wire::AppendLayerRecord.
void AppendEncodedPayload(std::vector<uint8_t>* out,
                          const std::vector<double>& values, WireCodec codec);

/// \brief Parses a record written by AppendEncodedPayload, dequantizing the
/// lanes back to fp64 into \p values. Advances \p *off on success; returns
/// false on any overrun (truncated record) without touching out-of-range
/// memory.
bool ReadEncodedPayload(const uint8_t* data, size_t size, size_t* off,
                        WireCodec codec, std::vector<double>* values);

/// \brief Quantize-dequantize round trip: what the receiver observes after
/// \p values crossed the wire under \p codec. kFp64 returns the input
/// unchanged (bit-exact, no copy of the lanes is altered). Equivalent to
/// ReadEncodedPayload(AppendEncodedPayload(values)) minus the framing, and
/// asserted so in test_codec.
void CodecRoundTrip(WireCodec codec, std::vector<double>* values);

/// Convenience copy form of CodecRoundTrip.
std::vector<double> CodecRoundTripped(WireCodec codec,
                                      std::vector<double> values);

// Scalar conversion helpers, exposed for the property tests.

/// double -> f32 with explicit out-of-range clamping to +-inf (avoids the
/// formally undefined out-of-range floating conversion).
float DoubleToFloat(double x);
/// f32 -> bf16 with round-to-nearest-even; NaNs quieten instead of
/// rounding up into inf.
uint16_t FloatToBf16(float x);
float Bf16ToFloat(uint16_t b);

}  // namespace fexiot
