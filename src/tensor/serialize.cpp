#include "tensor/serialize.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace axsnn {

namespace {

constexpr std::uint32_t kTensorMagic = 0x41585342;  // "AXSB"
constexpr std::uint32_t kMapMagic = 0x4158534D;     // "AXSM"
constexpr std::uint32_t kMaxRank = 16;
constexpr std::uint32_t kMaxMapEntries = 1u << 20;
constexpr std::uint32_t kMaxNameLength = 1u << 16;
/// Per-tensor element cap: rejects the absurd allocations a few flipped
/// header bytes would otherwise request (2^40 floats = 4 TiB).
constexpr std::uint64_t kMaxElements = 1ull << 40;
/// Payload read granularity when the stream cannot report its length: the
/// buffer grows only as bytes arrive, so a lying header costs one chunk.
constexpr std::uint64_t kChunkElements = 1ull << 20;

void WriteU32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void WriteI64(std::ostream& os, std::int64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void WriteString(std::ostream& os, const std::string& s) {
  WriteU32(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Offset-tracking reader (mirrors data/event_io.cpp): every primitive read
/// knows what field it is deserializing, so truncation and malformed-value
/// errors name the field and the byte offset where the stream went wrong.
class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is) {}

  std::uint64_t offset() const { return offset_; }

  [[noreturn]] void FailTruncated(const char* what) const {
    std::ostringstream os;
    os << "axsnn: truncated tensor stream: " << what << " at byte offset "
       << offset_;
    throw std::runtime_error(os.str());
  }

  [[noreturn]] void FailMalformed(const std::string& detail) const {
    std::ostringstream os;
    os << "axsnn: malformed tensor stream at byte offset " << offset_ << ": "
       << detail;
    throw std::runtime_error(os.str());
  }

  std::uint32_t ReadU32(const char* what) {
    std::uint32_t v = 0;
    ReadRaw(&v, sizeof v, what);
    return v;
  }

  std::int64_t ReadI64(const char* what) {
    std::int64_t v = 0;
    ReadRaw(&v, sizeof v, what);
    return v;
  }

  std::optional<std::uint64_t> BytesLeft() const {
    return axsnn::BytesLeft(is_);
  }

  void ReadRaw(void* dst, std::size_t size, const char* what) {
    is_.read(static_cast<char*>(dst), static_cast<std::streamsize>(size));
    if (!is_) FailTruncated(what);
    offset_ += size;
  }

 private:
  std::istream& is_;
  std::uint64_t offset_ = 0;
};

Tensor ReadTensorRecord(Reader& reader) {
  const std::uint32_t magic = reader.ReadU32("tensor magic");
  if (magic != kTensorMagic) {
    std::ostringstream os;
    os << "bad tensor magic 0x" << std::hex << magic;
    reader.FailMalformed(os.str());
  }
  const std::uint32_t version = reader.ReadU32("tensor version");
  if (version != kSerializeVersion) {
    std::ostringstream os;
    os << "unsupported tensor format version " << version << " (expected "
       << kSerializeVersion << ")";
    reader.FailMalformed(os.str());
  }
  const std::uint32_t rank = reader.ReadU32("tensor rank");
  if (rank > kMaxRank) {
    std::ostringstream os;
    os << "implausible tensor rank " << rank << " (max " << kMaxRank << ")";
    reader.FailMalformed(os.str());
  }
  Shape shape(rank);
  std::uint64_t numel = 1;
  for (std::uint32_t d = 0; d < rank; ++d) {
    const std::int64_t dim = reader.ReadI64("tensor dim");
    if (dim < 0) {
      std::ostringstream os;
      os << "negative tensor dim " << dim;
      reader.FailMalformed(os.str());
    }
    shape[d] = static_cast<long>(dim);
    numel *= static_cast<std::uint64_t>(dim);
    if (numel > kMaxElements) {
      std::ostringstream os;
      os << "implausible tensor size (> " << kMaxElements << " elements)";
      reader.FailMalformed(os.str());
    }
  }
  // Size the payload from the bytes actually present, never from the
  // header alone: a few flipped dim bytes must not allocate terabytes.
  const std::optional<std::uint64_t> left = reader.BytesLeft();
  if (left.has_value()) {
    if (*left < numel * sizeof(float)) reader.FailTruncated("tensor payload");
    Tensor t(shape);
    if (numel > 0)
      reader.ReadRaw(t.data(), numel * sizeof(float), "tensor payload");
    return t;
  }
  std::vector<float> data;
  while (data.size() < numel) {
    const std::size_t have = data.size();
    const std::size_t chunk = std::min(numel - have, kChunkElements);
    data.resize(have + chunk);
    reader.ReadRaw(data.data() + have, chunk * sizeof(float),
                   "tensor payload");
  }
  return Tensor(std::move(shape), std::move(data));
}

}  // namespace

std::optional<std::uint64_t> BytesLeft(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return std::nullopt;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.clear();
  is.seekg(here);
  if (end == std::istream::pos_type(-1) || end < here) return std::nullopt;
  return static_cast<std::uint64_t>(end - here);
}

void WriteTensor(std::ostream& os, const Tensor& t) {
  WriteU32(os, kTensorMagic);
  WriteU32(os, kSerializeVersion);
  WriteU32(os, static_cast<std::uint32_t>(t.rank()));
  for (std::size_t d = 0; d < t.rank(); ++d) WriteI64(os, t.dim(d));
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.numel() * sizeof(float)));
}

Tensor ReadTensor(std::istream& is) {
  Reader reader(is);
  return ReadTensorRecord(reader);
}

void WriteTensorMap(std::ostream& os, const std::map<std::string, Tensor>& m) {
  WriteU32(os, kMapMagic);
  WriteU32(os, kSerializeVersion);
  WriteU32(os, static_cast<std::uint32_t>(m.size()));
  for (const auto& [name, tensor] : m) {
    WriteString(os, name);
    WriteTensor(os, tensor);
  }
}

std::map<std::string, Tensor> ReadTensorMap(std::istream& is) {
  Reader reader(is);
  const std::uint32_t magic = reader.ReadU32("tensor-map magic");
  if (magic != kMapMagic) {
    std::ostringstream os;
    os << "bad tensor-map magic 0x" << std::hex << magic;
    reader.FailMalformed(os.str());
  }
  const std::uint32_t version = reader.ReadU32("tensor-map version");
  if (version != kSerializeVersion) {
    std::ostringstream os;
    os << "unsupported tensor-map format version " << version << " (expected "
       << kSerializeVersion << ")";
    reader.FailMalformed(os.str());
  }
  const std::uint32_t count = reader.ReadU32("tensor-map entry count");
  if (count > kMaxMapEntries) {
    std::ostringstream os;
    os << "implausible tensor-map entry count " << count;
    reader.FailMalformed(os.str());
  }
  std::map<std::string, Tensor> m;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t name_len = reader.ReadU32("tensor-map name length");
    if (name_len > kMaxNameLength) {
      std::ostringstream os;
      os << "implausible tensor-map name length " << name_len;
      reader.FailMalformed(os.str());
    }
    std::string name(name_len, '\0');
    if (name_len > 0) reader.ReadRaw(name.data(), name_len, "tensor-map name");
    m.emplace(std::move(name), ReadTensorRecord(reader));
  }
  return m;
}

void SaveTensorMap(const std::string& path,
                   const std::map<std::string, Tensor>& m) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("axsnn: cannot open for write: " + path);
  WriteTensorMap(os, m);
}

std::map<std::string, Tensor> LoadTensorMap(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("axsnn: cannot open for read: " + path);
  return ReadTensorMap(is);
}

}  // namespace axsnn
