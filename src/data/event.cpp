#include "data/event.hpp"

#include <algorithm>

#include "runtime/parallel_for.hpp"
#include "tensor/check.hpp"

namespace axsnn::data {

namespace {

/// Maps an event to its (time bin, offset within the [2, H, W] sample
/// plane). Returns false for events the binning ignores — off-sensor or
/// outside [0, duration_ms) — which keeps the binning tolerant of attacked
/// streams that push events out of range.
inline bool BinIndex(const Event& e, long width, long height,
                     float duration_ms, float bin_ms, long time_bins,
                     long& bin, long& offset) {
  if (e.x < 0 || e.x >= width || e.y < 0 || e.y >= height) return false;
  if (e.t < 0.0f || e.t >= duration_ms) return false;
  bin = std::min<long>(static_cast<long>(e.t / bin_ms), time_bins - 1);
  const long channel = e.polarity > 0 ? 1 : 0;
  offset = (channel * height + e.y) * width + e.x;
  return true;
}

void CheckBinArgs(const EventStream& stream, long time_bins) {
  AXSNN_CHECK(time_bins > 0, "time_bins must be positive");
  AXSNN_CHECK(stream.width > 0 && stream.height > 0,
              "stream has no sensor geometry");
  AXSNN_CHECK(stream.duration_ms > 0.0f, "stream duration must be positive");
}

/// Sets the occupied cells of `frames` ([T, 2, H, W] in the stream's own
/// geometry, zero-filled by the caller) to 1.0f.
void BinStreamInto(const EventStream& stream, long time_bins, float* frames) {
  const long plane = 2 * stream.height * stream.width;
  const float bin_ms = stream.duration_ms / static_cast<float>(time_bins);
  for (const Event& e : stream.events) {
    long bin = 0, offset = 0;
    if (!BinIndex(e, stream.width, stream.height, stream.duration_ms, bin_ms,
                  time_bins, bin, offset))
      continue;
    frames[bin * plane + offset] = 1.0f;
  }
}

}  // namespace

Tensor BinEvents(const EventStream& stream, long time_bins) {
  CheckBinArgs(stream, time_bins);
  Tensor frames({time_bins, 2, stream.height, stream.width});
  BinStreamInto(stream, time_bins, frames.data());
  return frames;
}

Tensor BinDataset(const EventDataset& dataset, long time_bins) {
  AXSNN_CHECK(!dataset.streams.empty(), "empty event dataset");
  // Every stream is binned straight into its row of `out`, so each must
  // have exactly the dataset's geometry, checked before any row is
  // written: a smaller or larger stream would run past its row.
  for (const EventStream& stream : dataset.streams) {
    CheckBinArgs(stream, time_bins);
    AXSNN_CHECK(stream.width == dataset.width &&
                    stream.height == dataset.height,
                "stream geometry " << stream.width << "x" << stream.height
                                   << " differs from the dataset's "
                                   << dataset.width << "x" << dataset.height);
  }
  const long n = dataset.size();
  Tensor out({n, time_bins, 2, dataset.height, dataset.width});
  const long per_sample = out.numel() / n;
  runtime::ParallelFor(0, n, [&](long i) {
    BinStreamInto(dataset.streams[static_cast<std::size_t>(i)], time_bins,
                  out.data() + i * per_sample);
  });
  return out;
}

}  // namespace axsnn::data
