#include "data/event_io.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "tensor/serialize.hpp"

namespace axsnn::data {

namespace {

constexpr std::uint32_t kStreamMagic = 0x41584556;   // "AXEV"
constexpr std::uint32_t kDatasetMagic = 0x41584544;  // "AXED"
constexpr std::uint32_t kVersion = 1;
// Coordinates are int16 on disk, so a sane sensor never exceeds this.
constexpr long kMaxSensorDim = 32768;
// On-disk event record: x, y (int16), polarity (int8), timestamp (float).
constexpr std::uint64_t kEventRecordBytes =
    2 * sizeof(std::int16_t) + sizeof(std::int8_t) + sizeof(float);

template <typename T>
void WritePod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Byte-offset-tracking reader: every failure names the field being read
/// and the absolute file offset where the record starts going wrong, so a
/// corrupted multi-gigabyte capture is debuggable without a hex dump.
class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is) {
    const auto pos = is.tellg();
    base_ = pos == std::istream::pos_type(-1)
                ? -1
                : static_cast<std::int64_t>(pos);
  }

  /// Offset of the next unread byte: absolute when the stream is seekable,
  /// else relative to where this reader started.
  std::int64_t offset() const { return base_ < 0 ? read_ : base_ + read_; }

  template <typename T>
  T Read(const char* what) {
    T v{};
    is_.read(reinterpret_cast<char*>(&v), sizeof v);
    if (!is_) FailTruncated(what);
    read_ += static_cast<std::int64_t>(sizeof v);
    return v;
  }

  /// Bytes left in the stream, when it can tell (see BytesLeft).
  std::optional<std::uint64_t> BytesLeft() const {
    return axsnn::BytesLeft(is_);
  }

  [[noreturn]] void FailTruncated(const char* what) const {
    std::ostringstream msg;
    msg << "axsnn: truncated event stream data: " << what
        << " at byte offset " << offset();
    throw std::runtime_error(msg.str());
  }

  [[noreturn]] void Fail(std::int64_t record_offset,
                         const std::string& detail) const {
    std::ostringstream msg;
    msg << "axsnn: malformed event stream data at byte offset "
        << record_offset << ": " << detail;
    throw std::runtime_error(msg.str());
  }

 private:
  std::istream& is_;
  std::int64_t base_ = -1;
  std::int64_t read_ = 0;
};

/// Rejects a sensor geometry outside (0, kMaxSensorDim]; `what` names the
/// record ("sensor", "dataset").
void CheckGeometry(const Reader& r, std::int64_t record_offset,
                   const char* what, long width, long height) {
  if (width <= 0 || width > kMaxSensorDim || height <= 0 ||
      height > kMaxSensorDim) {
    std::ostringstream d;
    d << what << " geometry " << width << "x" << height << " outside (0, "
      << kMaxSensorDim << "]";
    r.Fail(record_offset, d.str());
  }
}

EventStream ReadEventStreamTracked(Reader& r) {
  const std::int64_t header_off = r.offset();
  if (r.Read<std::uint32_t>("stream magic") != kStreamMagic)
    throw std::runtime_error("axsnn: bad event-stream magic");
  if (r.Read<std::uint32_t>("stream version") != kVersion)
    throw std::runtime_error("axsnn: unsupported event-stream version");
  EventStream s;
  s.width = static_cast<long>(r.Read<std::int64_t>("sensor width"));
  s.height = static_cast<long>(r.Read<std::int64_t>("sensor height"));
  s.duration_ms = r.Read<float>("stream duration");
  CheckGeometry(r, header_off, "sensor", s.width, s.height);
  if (!(s.duration_ms > 0.0f) || !std::isfinite(s.duration_ms)) {
    std::ostringstream d;
    d << "stream duration " << s.duration_ms << " not positive and finite";
    r.Fail(header_off, d.str());
  }
  const std::int64_t count = r.Read<std::int64_t>("event count");
  if (count < 0 || count > (1LL << 32))
    throw std::runtime_error("axsnn: implausible event count");
  // Reserve only what the stream holds; a stream that cannot report its
  // length grows the buffer as records arrive.
  if (const std::optional<std::uint64_t> left = r.BytesLeft()) {
    if (*left < static_cast<std::uint64_t>(count) * kEventRecordBytes)
      r.FailTruncated("event records");
    s.events.reserve(static_cast<std::size_t>(count));
  }
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t record_off = r.offset();
    Event e;
    e.x = r.Read<std::int16_t>("event x");
    e.y = r.Read<std::int16_t>("event y");
    e.polarity = r.Read<std::int8_t>("event polarity");
    e.t = r.Read<float>("event timestamp");
    std::ostringstream d;
    if (e.x < 0 || e.x >= s.width || e.y < 0 || e.y >= s.height) {
      d << "event " << i << " coordinates (" << e.x << ", " << e.y
        << ") outside sensor " << s.width << "x" << s.height;
      r.Fail(record_off, d.str());
    }
    if (e.polarity != 1 && e.polarity != -1) {
      d << "event " << i << " polarity " << static_cast<int>(e.polarity)
        << " not +1/-1";
      r.Fail(record_off, d.str());
    }
    if (!(e.t >= 0.0f && e.t <= s.duration_ms)) {  // also rejects NaN
      d << "event " << i << " timestamp " << e.t << " outside [0, "
        << s.duration_ms << "]";
      r.Fail(record_off, d.str());
    }
    s.events.push_back(e);
  }
  return s;
}

}  // namespace

void WriteEventStream(std::ostream& os, const EventStream& stream) {
  WritePod(os, kStreamMagic);
  WritePod(os, kVersion);
  WritePod(os, static_cast<std::int64_t>(stream.width));
  WritePod(os, static_cast<std::int64_t>(stream.height));
  WritePod(os, stream.duration_ms);
  WritePod(os, static_cast<std::int64_t>(stream.events.size()));
  for (const Event& e : stream.events) {
    WritePod(os, e.x);
    WritePod(os, e.y);
    WritePod(os, e.polarity);
    WritePod(os, e.t);
  }
}

EventStream ReadEventStream(std::istream& is) {
  Reader r(is);
  return ReadEventStreamTracked(r);
}

void WriteEventDataset(std::ostream& os, const EventDataset& dataset) {
  WritePod(os, kDatasetMagic);
  WritePod(os, kVersion);
  WritePod(os, static_cast<std::int64_t>(dataset.width));
  WritePod(os, static_cast<std::int64_t>(dataset.height));
  WritePod(os, dataset.duration_ms);
  WritePod(os, static_cast<std::int32_t>(dataset.num_classes));
  WritePod(os, static_cast<std::int64_t>(dataset.streams.size()));
  for (std::size_t i = 0; i < dataset.streams.size(); ++i) {
    WritePod(os, static_cast<std::int32_t>(dataset.labels.at(i)));
    WriteEventStream(os, dataset.streams[i]);
  }
}

EventDataset ReadEventDataset(std::istream& is) {
  Reader r(is);
  if (r.Read<std::uint32_t>("dataset magic") != kDatasetMagic)
    throw std::runtime_error("axsnn: bad event-dataset magic");
  if (r.Read<std::uint32_t>("dataset version") != kVersion)
    throw std::runtime_error("axsnn: unsupported event-dataset version");
  EventDataset ds;
  const std::int64_t geometry_off = r.offset();
  ds.width = static_cast<long>(r.Read<std::int64_t>("dataset width"));
  ds.height = static_cast<long>(r.Read<std::int64_t>("dataset height"));
  CheckGeometry(r, geometry_off, "dataset", ds.width, ds.height);
  ds.duration_ms = r.Read<float>("dataset duration");
  const std::int64_t classes_off = r.offset();
  ds.num_classes = r.Read<std::int32_t>("class count");
  if (ds.num_classes <= 0)
    r.Fail(classes_off, "dataset class count must be positive");
  const std::int64_t count = r.Read<std::int64_t>("stream count");
  if (count < 0 || count > (1LL << 24))
    throw std::runtime_error("axsnn: implausible stream count");
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t label_off = r.offset();
    const std::int32_t label = r.Read<std::int32_t>("stream label");
    if (label < 0 || label >= ds.num_classes) {
      std::ostringstream d;
      d << "stream " << i << " label " << label << " outside [0, "
        << ds.num_classes << ")";
      r.Fail(label_off, d.str());
    }
    const std::int64_t stream_off = r.offset();
    EventStream s = ReadEventStreamTracked(r);
    if (s.width != ds.width || s.height != ds.height) {
      std::ostringstream d;
      d << "stream " << i << " geometry " << s.width << "x" << s.height
        << " differs from the dataset's " << ds.width << "x" << ds.height;
      r.Fail(stream_off, d.str());
    }
    ds.labels.push_back(static_cast<int>(label));
    ds.streams.push_back(std::move(s));
  }
  return ds;
}

void SaveEventDataset(const std::string& path, const EventDataset& dataset) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("axsnn: cannot open for write: " + path);
  WriteEventDataset(os, dataset);
}

EventDataset LoadEventDataset(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("axsnn: cannot open for read: " + path);
  return ReadEventDataset(is);
}

}  // namespace axsnn::data
