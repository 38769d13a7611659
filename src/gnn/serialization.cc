#include "gnn/serialization.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>

#include "common/crc32.h"

namespace fexiot {

namespace wire {

void AppendU16(std::vector<uint8_t>* out, uint16_t v) {
  const size_t off = out->size();
  out->resize(off + sizeof(v));
  std::memcpy(out->data() + off, &v, sizeof(v));
}

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t off = out->size();
  out->resize(off + sizeof(v));
  std::memcpy(out->data() + off, &v, sizeof(v));
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  const size_t off = out->size();
  out->resize(off + sizeof(v));
  std::memcpy(out->data() + off, &v, sizeof(v));
}

void AppendDoubles(std::vector<uint8_t>* out, const double* p, size_t n) {
  const size_t off = out->size();
  out->resize(off + n * sizeof(double));
  if (n > 0) std::memcpy(out->data() + off, p, n * sizeof(double));
}

void AppendF32(std::vector<uint8_t>* out, float v) {
  const size_t off = out->size();
  out->resize(off + sizeof(v));
  std::memcpy(out->data() + off, &v, sizeof(v));
}

bool ReadU16(const uint8_t* data, size_t size, size_t* off, uint16_t* v) {
  if (*off + sizeof(*v) > size) return false;
  std::memcpy(v, data + *off, sizeof(*v));
  *off += sizeof(*v);
  return true;
}

bool ReadU32(const uint8_t* data, size_t size, size_t* off, uint32_t* v) {
  if (*off + sizeof(*v) > size) return false;
  std::memcpy(v, data + *off, sizeof(*v));
  *off += sizeof(*v);
  return true;
}

bool ReadU64(const uint8_t* data, size_t size, size_t* off, uint64_t* v) {
  if (*off + sizeof(*v) > size) return false;
  std::memcpy(v, data + *off, sizeof(*v));
  *off += sizeof(*v);
  return true;
}

bool ReadF32(const uint8_t* data, size_t size, size_t* off, float* v) {
  if (*off + sizeof(*v) > size) return false;
  std::memcpy(v, data + *off, sizeof(*v));
  *off += sizeof(*v);
  return true;
}

bool ReadDoubles(const uint8_t* data, size_t size, size_t* off, double* p,
                 size_t n) {
  if (*off > size || n > (size - *off) / sizeof(double)) return false;
  if (n > 0) std::memcpy(p, data + *off, n * sizeof(double));
  *off += n * sizeof(double);
  return true;
}

void AppendLayerRecord(std::vector<uint8_t>* out,
                       const std::vector<double>& flat) {
  AppendU64(out, flat.size());
  AppendDoubles(out, flat.data(), flat.size());
}

bool ReadLayerRecord(const uint8_t* data, size_t size, size_t* off,
                     std::vector<double>* flat) {
  uint64_t n = 0;
  if (!ReadU64(data, size, off, &n)) return false;
  // Reject record lengths the remaining buffer cannot possibly hold before
  // allocating (a corrupted length would otherwise request petabytes).
  if (*off > size || n > (size - *off) / sizeof(double)) return false;
  flat->resize(static_cast<size_t>(n));
  return ReadDoubles(data, size, off, flat->data(), flat->size());
}

}  // namespace wire

namespace {

// "FEXGNN" + 2-digit format version. v02 appended a CRC-32 footer over
// everything after the magic so payload corruption is detected instead of
// silently loading garbage weights.
constexpr char kMagicPrefix[6] = {'F', 'E', 'X', 'G', 'N', 'N'};
constexpr char kMagic[8] = {'F', 'E', 'X', 'G', 'N', 'N', '0', '2'};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// 8-byte values a model under \p c encodes: every parameter plus each
/// layer record's u64 length. Computed in 128 bits — dimensions up to
/// INT_MAX cannot overflow it (the largest term is below 2^94).
unsigned __int128 EncodedValues(const GnnConfig& c) {
  using U = unsigned __int128;
  const U in = static_cast<U>(c.input_dim);
  const U hin = static_cast<U>(c.hetero_input_dim);
  const U h = static_cast<U>(c.hidden_dim);
  const U e = static_cast<U>(c.embedding_dim);
  const U mp = static_cast<U>(c.num_layers);
  const U readout = 2 * h * e + e;
  if (c.type == GnnType::kMagnn) {
    // Dual input projection, num_layers h x h layers, readout.
    return (in * h + h + hin * h + h) + mp * (h * h + h) + readout + mp + 2;
  }
  // in x h first layer, num_layers - 1 h x h layers, readout.
  return (in * h + h) + (mp - 1) * (h * h + h) + readout + mp + 1;
}

}  // namespace

std::vector<uint8_t> SerializeGnnModel(const GnnModel& model) {
  std::vector<uint8_t> out;
  out.insert(out.end(), kMagic, kMagic + sizeof(kMagic));
  const GnnConfig& c = model.config();
  const uint64_t header[] = {
      static_cast<uint64_t>(c.type),
      static_cast<uint64_t>(c.input_dim),
      static_cast<uint64_t>(c.hetero_input_dim),
      static_cast<uint64_t>(c.hidden_dim),
      static_cast<uint64_t>(c.num_layers),
      static_cast<uint64_t>(c.embedding_dim),
      c.seed,
      static_cast<uint64_t>(model.num_layers()),
  };
  for (uint64_t v : header) wire::AppendU64(&out, v);
  for (int l = 0; l < model.num_layers(); ++l) {
    wire::AppendLayerRecord(&out, model.GetLayerFlat(l));
  }
  wire::AppendU32(&out, Crc32(out.data() + sizeof(kMagic),
                              out.size() - sizeof(kMagic)));
  return out;
}

Result<GnnModel> DeserializeGnnModel(const uint8_t* data, size_t size) {
  if (size < sizeof(kMagic) ||
      std::memcmp(data, kMagicPrefix, sizeof(kMagicPrefix)) != 0) {
    return Status::InvalidArgument("not a FexIoT GNN model encoding");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        "unsupported FexIoT GNN model format version (expected FEXGNN02)");
  }
  if (size < sizeof(kMagic) + sizeof(uint32_t)) {
    return Status::IOError("truncated GNN model encoding");
  }
  // Verify the CRC footer before interpreting any field.
  size_t off = size - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  (void)wire::ReadU32(data, size, &off, &stored_crc);
  const uint32_t actual_crc =
      Crc32(data + sizeof(kMagic), size - sizeof(kMagic) - sizeof(uint32_t));
  if (stored_crc != actual_crc) {
    return Status::InvalidArgument("GNN model payload corrupted (CRC mismatch)");
  }
  const size_t body_end = size - sizeof(uint32_t);

  off = sizeof(kMagic);
  uint64_t header[8];
  for (auto& v : header) {
    if (!wire::ReadU64(data, body_end, &off, &v)) {
      return Status::IOError("truncated GNN model encoding");
    }
  }
  // Check the header against itself and the body before the model is
  // built from it: the CRC is no defence, anyone can recompute it, and a
  // forged dimension would otherwise allocate without bound.
  GnnConfig c;
  if (header[0] > static_cast<uint64_t>(GnnType::kMagnn)) {
    return Status::InvalidArgument("unknown model type in GNN model encoding");
  }
  for (size_t i = 1; i <= 5; ++i) {
    if (header[i] > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
      return Status::InvalidArgument(
          "dimension out of range in GNN model encoding");
    }
  }
  c.type = static_cast<GnnType>(header[0]);
  c.input_dim = static_cast<int>(header[1]);
  c.hetero_input_dim = static_cast<int>(header[2]);
  c.hidden_dim = static_cast<int>(header[3]);
  c.num_layers = static_cast<int>(header[4]);
  c.embedding_dim = static_cast<int>(header[5]);
  c.seed = header[6];
  FEXIOT_RETURN_NOT_OK(ValidateGnnConfig(c));
  const bool magnn = c.type == GnnType::kMagnn;
  const uint64_t layers = static_cast<uint64_t>(c.num_layers) + (magnn ? 2 : 1);
  if (header[7] != layers) {
    return Status::InvalidArgument("layer count mismatch in GNN model encoding");
  }
  if (EncodedValues(c) > (body_end - off) / sizeof(double)) {
    return Status::InvalidArgument(
        "GNN model header implies more parameters than the body holds");
  }
  GnnModel model(c);
  for (int l = 0; l < model.num_layers(); ++l) {
    std::vector<double> flat;
    if (!wire::ReadLayerRecord(data, body_end, &off, &flat)) {
      return Status::IOError("truncated GNN model encoding");
    }
    if (flat.size() != model.LayerSize(l)) {
      return Status::InvalidArgument("layer size mismatch in GNN model encoding");
    }
    model.SetLayerFlat(l, flat);
  }
  return model;
}

Status SaveGnnModel(const GnnModel& model, const std::string& path) {
  const std::vector<uint8_t> bytes = SerializeGnnModel(model);
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IOError("cannot open for writing: " + path);
  if (std::fwrite(bytes.data(), 1, bytes.size(), f.get()) != bytes.size()) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Result<GnnModel> LoadGnnModel(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open: " + path);
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  if (std::ferror(f.get())) return Status::IOError("read failed: " + path);
  Result<GnnModel> r = DeserializeGnnModel(bytes.data(), bytes.size());
  if (!r.ok()) {
    return Status(r.status().code(), r.status().message() + ": " + path);
  }
  return r;
}

}  // namespace fexiot
