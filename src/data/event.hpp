// Event-camera (DVS) data structures.
//
// A dynamic vision sensor emits an asynchronous stream of events
// (x, y, p, t): pixel coordinates, polarity (brightness increase/decrease)
// and timestamp. This mirrors the representation in the paper's Algorithm 2,
// which filters exactly these tuples. Timestamps are float milliseconds from
// stream start.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace axsnn::data {

/// One DVS event. Polarity is +1 (ON, brightness increase) or -1 (OFF).
struct Event {
  std::int16_t x = 0;
  std::int16_t y = 0;
  std::int8_t polarity = 1;
  float t = 0.0f;  ///< milliseconds since stream start

  friend bool operator==(const Event&, const Event&) = default;
};

/// A recorded event stream with its sensor geometry.
struct EventStream {
  long width = 0;
  long height = 0;
  float duration_ms = 0.0f;
  std::vector<Event> events;  ///< sorted by timestamp (generators guarantee it)

  long size() const { return static_cast<long>(events.size()); }
};

/// A labelled set of event streams (all sharing one sensor geometry).
struct EventDataset {
  std::vector<EventStream> streams;
  std::vector<int> labels;
  long width = 0;
  long height = 0;
  float duration_ms = 0.0f;
  int num_classes = 0;

  long size() const { return static_cast<long>(streams.size()); }
};

/// Bins one stream into `time_bins` binary occupancy frames
/// [T, 2, H, W] — channel 0 holds OFF events, channel 1 ON events. Events
/// outside [0, duration_ms) or off-sensor are ignored (robust to attacked
/// streams that push events out of range).
Tensor BinEvents(const EventStream& stream, long time_bins);

/// Bins a whole dataset into [N, T, 2, H, W] frames. Throws
/// std::invalid_argument when the dataset is empty, when a stream fails
/// BinEvents' checks, or when a stream's width or height differs from the
/// dataset's.
Tensor BinDataset(const EventDataset& dataset, long time_bins);

}  // namespace axsnn::data
