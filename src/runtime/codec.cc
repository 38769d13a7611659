#include "runtime/codec.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "gnn/serialization.h"

namespace fexiot {

const char* WireCodecName(WireCodec codec) {
  switch (codec) {
    case WireCodec::kFp64:
      return "fp64";
    case WireCodec::kFp32:
      return "fp32";
    case WireCodec::kBf16:
      return "bf16";
    case WireCodec::kInt8:
      return "int8";
  }
  return "?";
}

bool IsValidWireCodec(uint32_t raw) {
  return raw < static_cast<uint32_t>(kNumWireCodecs);
}

float DoubleToFloat(double x) {
  // Out-of-range floating conversions are formally undefined; clamp
  // explicitly so huge doubles become +-inf on every toolchain. NaN and
  // inf pass through the cast unchanged.
  if (std::isfinite(x)) {
    constexpr double kMaxF32 = static_cast<double>(
        std::numeric_limits<float>::max());
    if (x > kMaxF32) return std::numeric_limits<float>::infinity();
    if (x < -kMaxF32) return -std::numeric_limits<float>::infinity();
  }
  return static_cast<float>(x);
}

uint16_t FloatToBf16(float x) {
  uint32_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  if (std::isnan(x)) {
    // Truncate but force a non-zero mantissa so the NaN never collapses
    // into an infinity encoding.
    return static_cast<uint16_t>((bits >> 16) | 0x0040u);
  }
  // Round to nearest even on the dropped 16 bits (the standard bf16
  // conversion); infinities have an all-zero tail and pass unchanged.
  const uint32_t rounding = 0x7FFFu + ((bits >> 16) & 1u);
  return static_cast<uint16_t>((bits + rounding) >> 16);
}

float Bf16ToFloat(uint16_t b) {
  const uint32_t bits = static_cast<uint32_t>(b) << 16;
  float x = 0.0f;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

namespace {

/// Per-tensor affine int8 parameters: x' = zero_point + scale * q.
struct Int8Params {
  float zero_point = 0.0f;
  float scale = 0.0f;  ///< 0 when the tensor is constant (all q = 0)
};

/// Pure function of the payload: scan the finite range, derive the fp32
/// affine parameters. Tensors with no finite element (or a degenerate
/// range) quantize to a constant.
Int8Params ComputeInt8Params(const std::vector<double>& values) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double v : values) {
    if (!std::isfinite(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  Int8Params p;
  if (!(lo <= hi)) return p;  // no finite element: zero_point 0, scale 0
  p.zero_point = DoubleToFloat(lo);
  p.scale =
      DoubleToFloat((hi - static_cast<double>(p.zero_point)) / 255.0);
  if (!std::isfinite(p.scale) || p.scale < 0.0f) p.scale = 0.0f;
  return p;
}

uint8_t QuantizeInt8(double x, const Int8Params& p) {
  if (!std::isfinite(x)) {
    // +inf saturates the top code; -inf and NaN the bottom one.
    return x > 0.0 ? 255u : 0u;
  }
  if (p.scale == 0.0f) return 0u;
  const double q = std::nearbyint(
      (x - static_cast<double>(p.zero_point)) / static_cast<double>(p.scale));
  if (q <= 0.0) return 0u;
  if (q >= 255.0) return 255u;
  return static_cast<uint8_t>(q);
}

double DequantizeInt8(uint8_t q, const Int8Params& p) {
  return static_cast<double>(p.zero_point) +
         static_cast<double>(p.scale) * static_cast<double>(q);
}

}  // namespace

size_t EncodedPayloadBytes(size_t n, WireCodec codec) {
  switch (codec) {
    case WireCodec::kFp64:
      return sizeof(uint64_t) + n * sizeof(double);
    case WireCodec::kFp32:
      return sizeof(uint64_t) + n * sizeof(float);
    case WireCodec::kBf16:
      return sizeof(uint64_t) + n * sizeof(uint16_t);
    case WireCodec::kInt8:
      return sizeof(uint64_t) + 2 * sizeof(float) + n;
  }
  return 0;
}

void AppendEncodedPayload(std::vector<uint8_t>* out,
                          const std::vector<double>& values, WireCodec codec) {
  switch (codec) {
    case WireCodec::kFp64:
      wire::AppendLayerRecord(out, values);
      return;
    case WireCodec::kFp32: {
      wire::AppendU64(out, values.size());
      for (double v : values) wire::AppendF32(out, DoubleToFloat(v));
      return;
    }
    case WireCodec::kBf16: {
      wire::AppendU64(out, values.size());
      for (double v : values) {
        wire::AppendU16(out, FloatToBf16(DoubleToFloat(v)));
      }
      return;
    }
    case WireCodec::kInt8: {
      const Int8Params p = ComputeInt8Params(values);
      wire::AppendU64(out, values.size());
      wire::AppendF32(out, p.scale);
      wire::AppendF32(out, p.zero_point);
      const size_t off = out->size();
      out->resize(off + values.size());
      for (size_t i = 0; i < values.size(); ++i) {
        (*out)[off + i] = QuantizeInt8(values[i], p);
      }
      return;
    }
  }
}

bool ReadEncodedPayload(const uint8_t* data, size_t size, size_t* off,
                        WireCodec codec, std::vector<double>* values) {
  if (codec == WireCodec::kFp64) {
    return wire::ReadLayerRecord(data, size, off, values);
  }
  uint64_t n = 0;
  if (!wire::ReadU64(data, size, off, &n)) return false;
  // Reject counts the remaining buffer cannot hold before allocating
  // (same discipline as ReadLayerRecord: a corrupted length must not
  // request petabytes).
  const size_t lane =
      codec == WireCodec::kFp32 ? sizeof(float)
      : codec == WireCodec::kBf16 ? sizeof(uint16_t)
                                  : sizeof(uint8_t);
  const size_t header = codec == WireCodec::kInt8 ? 2 * sizeof(float) : 0;
  if (*off > size || header > size - *off ||
      n > (size - *off - header) / lane) {
    return false;
  }
  values->resize(static_cast<size_t>(n));
  switch (codec) {
    case WireCodec::kFp64:
      return false;  // handled above
    case WireCodec::kFp32: {
      for (auto& v : *values) {
        float f = 0.0f;
        if (!wire::ReadF32(data, size, off, &f)) return false;
        v = static_cast<double>(f);
      }
      return true;
    }
    case WireCodec::kBf16: {
      for (auto& v : *values) {
        uint16_t b = 0;
        if (!wire::ReadU16(data, size, off, &b)) return false;
        v = static_cast<double>(Bf16ToFloat(b));
      }
      return true;
    }
    case WireCodec::kInt8: {
      Int8Params p;
      if (!wire::ReadF32(data, size, off, &p.scale) ||
          !wire::ReadF32(data, size, off, &p.zero_point)) {
        return false;
      }
      for (auto& v : *values) {
        v = DequantizeInt8(data[*off], p);
        ++*off;
      }
      return true;
    }
  }
  return false;
}

void CodecRoundTrip(WireCodec codec, std::vector<double>* values) {
  switch (codec) {
    case WireCodec::kFp64:
      return;  // bit-exact passthrough
    case WireCodec::kFp32: {
      for (auto& v : *values) {
        v = static_cast<double>(DoubleToFloat(v));
      }
      return;
    }
    case WireCodec::kBf16: {
      for (auto& v : *values) {
        v = static_cast<double>(Bf16ToFloat(FloatToBf16(DoubleToFloat(v))));
      }
      return;
    }
    case WireCodec::kInt8: {
      const Int8Params p = ComputeInt8Params(*values);
      for (auto& v : *values) {
        v = DequantizeInt8(QuantizeInt8(v, p), p);
      }
      return;
    }
  }
}

std::vector<double> CodecRoundTripped(WireCodec codec,
                                      std::vector<double> values) {
  CodecRoundTrip(codec, &values);
  return values;
}

}  // namespace fexiot
