// Tests for the synthetic datasets: digit generator, DVS gesture simulator,
// event binning, event stream IO hardening.
#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "data/dvs_gesture.hpp"
#include "data/event.hpp"
#include "data/event_io.hpp"
#include "data/synthetic_mnist.hpp"

namespace axsnn::data {
namespace {

TEST(SyntheticMnist, ShapesAndRanges) {
  SyntheticMnistOptions opts;
  opts.count = 50;
  StaticDataset ds = MakeSyntheticMnist(opts);
  EXPECT_EQ(ds.size(), 50);
  EXPECT_EQ(ds.images.shape(), (Shape{50, 1, 16, 16}));
  EXPECT_GE(ds.images.Min(), 0.0f);
  EXPECT_LE(ds.images.Max(), 1.0f);
  EXPECT_EQ(ds.labels.size(), 50u);
}

TEST(SyntheticMnist, BalancedClasses) {
  SyntheticMnistOptions opts;
  opts.count = 100;
  StaticDataset ds = MakeSyntheticMnist(opts);
  long counts[10] = {};
  for (int l : ds.labels) {
    ASSERT_GE(l, 0);
    ASSERT_LT(l, 10);
    ++counts[l];
  }
  for (long c : counts) EXPECT_EQ(c, 10);
}

TEST(SyntheticMnist, DeterministicInSeed) {
  SyntheticMnistOptions opts;
  opts.count = 20;
  opts.seed = 42;
  StaticDataset a = MakeSyntheticMnist(opts);
  StaticDataset b = MakeSyntheticMnist(opts);
  EXPECT_TRUE(a.images.AllClose(b.images, 0.0f));
  EXPECT_EQ(a.labels, b.labels);
  opts.seed = 43;
  StaticDataset c = MakeSyntheticMnist(opts);
  EXPECT_FALSE(a.images.AllClose(c.images, 1e-3f));
}

TEST(SyntheticMnist, DigitsHaveInk) {
  SyntheticMnistOptions opts;
  opts.noise = 0.0f;
  Rng rng(1);
  for (int digit = 0; digit < 10; ++digit) {
    Tensor img = RenderDigit(digit, opts, rng);
    EXPECT_GT(img.Sum(), 5.0f) << "digit " << digit << " rendered empty";
    EXPECT_LE(img.Max(), 1.0f);
  }
  EXPECT_THROW(RenderDigit(10, opts, rng), std::invalid_argument);
}

TEST(SyntheticMnist, ClassesAreVisuallyDistinct) {
  // Mean images of different classes should differ substantially more than
  // same-class pairs — the property that makes the dataset learnable.
  SyntheticMnistOptions opts;
  opts.count = 400;
  opts.seed = 7;
  StaticDataset ds = MakeSyntheticMnist(opts);
  const long px = 16 * 16;
  std::vector<Tensor> means(10, Tensor({px}));
  std::vector<long> counts(10, 0);
  for (long i = 0; i < ds.size(); ++i) {
    const int l = ds.labels[static_cast<std::size_t>(i)];
    for (long p = 0; p < px; ++p) means[l][p] += ds.images[i * px + p];
    ++counts[l];
  }
  for (int k = 0; k < 10; ++k) means[k].Scale(1.0f / counts[k]);
  double min_cross = 1e9;
  for (int a = 0; a < 10; ++a)
    for (int b = a + 1; b < 10; ++b) {
      double dist = 0.0;
      for (long p = 0; p < px; ++p) {
        const double d = means[a][p] - means[b][p];
        dist += d * d;
      }
      min_cross = std::min(min_cross, dist);
    }
  EXPECT_GT(min_cross, 0.3) << "two class means are nearly identical";
}

TEST(GestureName, AllClassesNamed) {
  std::set<std::string> names;
  for (int c = 0; c < kGestureClasses; ++c) names.insert(GestureName(c));
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kGestureClasses));
  EXPECT_THROW(GestureName(kGestureClasses), std::invalid_argument);
  EXPECT_THROW(GestureName(-1), std::invalid_argument);
}

TEST(SimulateGesture, ProducesSortedInRangeEvents) {
  DvsGestureOptions opts;
  Rng rng(2);
  for (int cls : {0, 4, 8, 10}) {
    EventStream s = SimulateGesture(cls, opts, rng);
    EXPECT_GT(s.size(), 100) << "class " << cls << " nearly eventless";
    float last_t = -1.0f;
    for (const Event& e : s.events) {
      EXPECT_GE(e.x, 0);
      EXPECT_LT(e.x, opts.width);
      EXPECT_GE(e.y, 0);
      EXPECT_LT(e.y, opts.height);
      EXPECT_TRUE(e.polarity == 1 || e.polarity == -1);
      EXPECT_GE(e.t, last_t);
      last_t = e.t;
    }
    EXPECT_LE(last_t, opts.duration_ms);
  }
}

TEST(SimulateGesture, BothPolaritiesPresent) {
  DvsGestureOptions opts;
  Rng rng(3);
  EventStream s = SimulateGesture(0, opts, rng);
  long on = 0, off = 0;
  for (const Event& e : s.events) (e.polarity > 0 ? on : off)++;
  EXPECT_GT(on, 50);
  EXPECT_GT(off, 50);
}

TEST(SimulateGesture, NoiseRateControlsNoise) {
  DvsGestureOptions quiet;
  quiet.noise_rate_hz = 0.0f;
  DvsGestureOptions noisy;
  noisy.noise_rate_hz = 20.0f;
  Rng rng_a(4), rng_b(4);
  EventStream a = SimulateGesture(2, quiet, rng_a);
  EventStream b = SimulateGesture(2, noisy, rng_b);
  EXPECT_GT(b.size(), a.size() + 500);
}

TEST(MakeSyntheticDvsGesture, BalancedAndDeterministic) {
  DvsGestureOptions opts;
  opts.count = 44;
  opts.seed = 9;
  EventDataset a = MakeSyntheticDvsGesture(opts);
  EXPECT_EQ(a.size(), 44);
  long counts[kGestureClasses] = {};
  for (int l : a.labels) ++counts[l];
  for (long c : counts) EXPECT_EQ(c, 4);
  EventDataset b = MakeSyntheticDvsGesture(opts);
  ASSERT_EQ(a.size(), b.size());
  for (long i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.streams[i].size(), b.streams[i].size());
    EXPECT_EQ(a.labels[i], b.labels[i]);
  }
}

TEST(BinEvents, PlacesEventsInCorrectBins) {
  EventStream s;
  s.width = 4;
  s.height = 4;
  s.duration_ms = 100.0f;
  s.events = {{0, 0, 1, 5.0f},     // bin 0, ON
              {1, 2, -1, 55.0f},   // bin 2, OFF
              {3, 3, 1, 99.9f}};   // bin 3 (last), ON
  Tensor frames = BinEvents(s, 4);
  EXPECT_EQ(frames.shape(), (Shape{4, 2, 4, 4}));
  EXPECT_FLOAT_EQ(frames(0, 1, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(frames(2, 0, 2, 1), 1.0f);
  EXPECT_FLOAT_EQ(frames(3, 1, 3, 3), 1.0f);
  EXPECT_FLOAT_EQ(frames.Sum(), 3.0f);
}

TEST(BinEvents, IgnoresOutOfRangeEvents) {
  EventStream s;
  s.width = 2;
  s.height = 2;
  s.duration_ms = 10.0f;
  s.events = {{5, 0, 1, 1.0f},     // off sensor
              {0, 0, 1, 20.0f},    // after end
              {0, 0, 1, -1.0f},    // before start
              {1, 1, 1, 5.0f}};    // valid
  Tensor frames = BinEvents(s, 2);
  EXPECT_FLOAT_EQ(frames.Sum(), 1.0f);
}

TEST(BinEvents, BinaryOccupancyClampsDuplicates) {
  EventStream s;
  s.width = 2;
  s.height = 2;
  s.duration_ms = 10.0f;
  for (int i = 0; i < 5; ++i) s.events.push_back({0, 0, 1, 1.0f});
  Tensor frames = BinEvents(s, 1);
  EXPECT_FLOAT_EQ(frames.Sum(), 1.0f);
}

TEST(BinDataset, StacksPerStream) {
  DvsGestureOptions opts;
  opts.count = 6;
  EventDataset ds = MakeSyntheticDvsGesture(opts);
  Tensor frames = BinDataset(ds, 8);
  EXPECT_EQ(frames.shape(), (Shape{6, 8, 2, 32, 32}));
  EXPECT_GT(frames.Sum(), 0.0f);
}

TEST(BinDataset, RejectsStreamGeometryMismatch) {
  // Each stream bins straight into its [T, 2, H, W] row of the dataset's
  // geometry, so a smaller or a larger stream would run past that row.
  // Both must throw before any binning.
  EventStream small;
  small.width = 2;
  small.height = 2;
  small.duration_ms = 10.0f;
  small.events = {{1, 1, 1, 5.0f}};
  EventDataset ds;
  ds.width = 32;
  ds.height = 32;
  ds.duration_ms = 10.0f;
  ds.num_classes = 1;
  ds.streams = {small};
  ds.labels = {0};
  EXPECT_THROW(BinDataset(ds, 4), std::invalid_argument);
  ds.width = 1;
  ds.height = 1;
  EXPECT_THROW(BinDataset(ds, 4), std::invalid_argument);
  ds.width = 2;
  ds.height = 2;
  EXPECT_FLOAT_EQ(BinDataset(ds, 4).Sum(), 1.0f);
  ds.width = 0;
  ds.height = 0;
  ds.streams[0].width = 0;
  ds.streams[0].height = 0;
  EXPECT_THROW(BinDataset(ds, 4), std::invalid_argument);
}

TEST(BinEvents, RejectsBadInputs) {
  EventStream s;
  s.width = 0;
  s.height = 2;
  s.duration_ms = 10.0f;
  EXPECT_THROW(BinEvents(s, 4), std::invalid_argument);
  s.width = 2;
  EXPECT_THROW(BinEvents(s, 0), std::invalid_argument);
  s.duration_ms = 0.0f;
  EXPECT_THROW(BinEvents(s, 4), std::invalid_argument);
}

// --- Event IO hardening: malformed streams fail with offset context ---------

std::string SerializeStream(const EventStream& s) {
  std::ostringstream os;
  WriteEventStream(os, s);
  return os.str();
}

/// Reads the bytes back and returns the error message ("" when the read
/// unexpectedly succeeds).
std::string ReadStreamError(const std::string& bytes) {
  std::istringstream is(bytes);
  try {
    ReadEventStream(is);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

EventStream SmallValidStream() {
  EventStream s;
  s.width = 4;
  s.height = 4;
  s.duration_ms = 10.0f;
  s.events = {{0, 0, 1, 1.0f}, {3, 2, -1, 9.5f}};
  return s;
}

TEST(EventIo, RoundTripsValidStream) {
  EventStream s = SmallValidStream();
  std::istringstream is(SerializeStream(s));
  EventStream r = ReadEventStream(is);
  EXPECT_EQ(r.width, s.width);
  EXPECT_EQ(r.height, s.height);
  EXPECT_FLOAT_EQ(r.duration_ms, s.duration_ms);
  EXPECT_EQ(r.events, s.events);
}

TEST(EventIo, RejectsOffSensorCoordinates) {
  EventStream s = SmallValidStream();
  s.events[1].x = 9;  // width is 4
  const std::string err = ReadStreamError(SerializeStream(s));
  EXPECT_NE(err.find("malformed"), std::string::npos) << err;
  EXPECT_NE(err.find("byte offset"), std::string::npos) << err;
}

TEST(EventIo, RejectsBadPolarity) {
  EventStream s = SmallValidStream();
  s.events[0].polarity = 0;
  const std::string err = ReadStreamError(SerializeStream(s));
  EXPECT_NE(err.find("malformed"), std::string::npos) << err;
  EXPECT_NE(err.find("byte offset"), std::string::npos) << err;
}

TEST(EventIo, RejectsOutOfRangeTimestamps) {
  for (float bad_t : {-1.0f, 11.0f, std::numeric_limits<float>::quiet_NaN()}) {
    EventStream s = SmallValidStream();
    s.events[0].t = bad_t;
    const std::string err = ReadStreamError(SerializeStream(s));
    EXPECT_NE(err.find("malformed"), std::string::npos)
        << "t=" << bad_t << ": " << err;
    EXPECT_NE(err.find("byte offset"), std::string::npos) << err;
  }
}

TEST(EventIo, RejectsBadGeometry) {
  EventStream s = SmallValidStream();
  s.width = 0;
  const std::string err = ReadStreamError(SerializeStream(s));
  EXPECT_NE(err.find("malformed"), std::string::npos) << err;
  EXPECT_NE(err.find("byte offset"), std::string::npos) << err;
}

TEST(EventIo, RejectsTruncatedRecords) {
  const std::string bytes = SerializeStream(SmallValidStream());
  // Chop mid-event and mid-header: both must say what was being read and
  // where, not return a partial stream.
  for (std::size_t keep : {bytes.size() - 3, std::size_t{10}}) {
    const std::string err = ReadStreamError(bytes.substr(0, keep));
    EXPECT_NE(err.find("truncated"), std::string::npos)
        << "keep=" << keep << ": " << err;
    EXPECT_NE(err.find("byte offset"), std::string::npos) << err;
  }
}

TEST(EventIo, DatasetRejectsBadLabel) {
  EventDataset ds;
  ds.width = 4;
  ds.height = 4;
  ds.duration_ms = 10.0f;
  ds.num_classes = 2;
  ds.streams = {SmallValidStream(), SmallValidStream()};
  ds.labels = {0, 5};  // 5 >= num_classes
  std::ostringstream os;
  WriteEventDataset(os, ds);
  std::istringstream is(os.str());
  try {
    ReadEventDataset(is);
    FAIL() << "expected malformed-label throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("malformed"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos)
        << e.what();
  }
}

/// Serializes `ds` and returns ReadEventDataset's error ("" on success).
std::string ReadDatasetError(const EventDataset& ds) {
  std::ostringstream os;
  WriteEventDataset(os, ds);
  std::istringstream is(os.str());
  try {
    ReadEventDataset(is);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(EventIo, DatasetRejectsStreamGeometryMismatch) {
  // A 32x32 dataset holding a 4x4 stream would make BinDataset read past
  // the stream's frames; the reader must refuse the file instead.
  EventDataset ds;
  ds.width = 32;
  ds.height = 32;
  ds.duration_ms = 10.0f;
  ds.num_classes = 2;
  ds.streams = {SmallValidStream(), SmallValidStream()};
  ds.labels = {0, 1};
  const std::string err = ReadDatasetError(ds);
  EXPECT_NE(err.find("malformed"), std::string::npos) << err;
  EXPECT_NE(err.find("differs from the dataset"), std::string::npos) << err;
  EXPECT_NE(err.find("byte offset"), std::string::npos) << err;
  ds.width = 4;
  ds.height = 4;
  EXPECT_EQ(ReadDatasetError(ds), "");
}

TEST(EventIo, DatasetRejectsBadGeometry) {
  EventDataset ds;
  ds.duration_ms = 10.0f;
  ds.num_classes = 2;
  ds.streams = {SmallValidStream()};
  ds.labels = {0};
  for (long bad : {0L, -4L, 32769L}) {
    ds.width = bad;
    ds.height = 4;
    const std::string err = ReadDatasetError(ds);
    EXPECT_NE(err.find("dataset geometry"), std::string::npos)
        << "width=" << bad << ": " << err;
    EXPECT_NE(err.find("byte offset"), std::string::npos) << err;
  }
}

TEST(EventIo, DatasetClassCountErrorNamesItsOffset) {
  // Written after a 10-byte prefix and read from there: the class count
  // sits at 10 + magic, version (4 + 4), width, height (8 + 8) and
  // duration (4) = byte 38, and the error must say so.
  EventDataset ds;
  ds.width = 4;
  ds.height = 4;
  ds.duration_ms = 10.0f;
  ds.num_classes = 0;
  std::ostringstream os;
  os << "0123456789";
  WriteEventDataset(os, ds);
  std::istringstream is(os.str());
  is.seekg(10);
  try {
    ReadEventDataset(is);
    FAIL() << "expected a non-positive class count to throw";
  } catch (const std::runtime_error& e) {
    const std::string err = e.what();
    EXPECT_NE(err.find("class count"), std::string::npos) << err;
    EXPECT_NE(err.find("byte offset 38"), std::string::npos) << err;
  }
}

TEST(EventIo, DatasetRejectsTruncation) {
  EventDataset ds;
  ds.width = 4;
  ds.height = 4;
  ds.duration_ms = 10.0f;
  ds.num_classes = 2;
  ds.streams = {SmallValidStream(), SmallValidStream()};
  ds.labels = {0, 1};
  std::ostringstream os;
  WriteEventDataset(os, ds);
  const std::string bytes = os.str();
  std::istringstream is(bytes.substr(0, bytes.size() - 2));
  try {
    ReadEventDataset(is);
    FAIL() << "expected truncation throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos)
        << e.what();
  }
}

// --- Parameterized sweep: every gesture class simulates sanely -------------

class GestureClassTest : public ::testing::TestWithParam<int> {};

TEST_P(GestureClassTest, EventCloudIsSpatiallySpread) {
  DvsGestureOptions opts;
  opts.noise_rate_hz = 0.0f;
  Rng rng(100 + GetParam());
  EventStream s = SimulateGesture(GetParam(), opts, rng);
  ASSERT_GT(s.size(), 50);
  // A moving blob's events must not collapse to one point.
  double mx = 0.0, my = 0.0;
  for (const Event& e : s.events) {
    mx += e.x;
    my += e.y;
  }
  mx /= s.size();
  my /= s.size();
  double var = 0.0;
  for (const Event& e : s.events)
    var += (e.x - mx) * (e.x - mx) + (e.y - my) * (e.y - my);
  var /= s.size();
  EXPECT_GT(var, 4.0) << "gesture " << GestureName(GetParam())
                      << " is too localized";
}

INSTANTIATE_TEST_SUITE_P(AllClasses, GestureClassTest,
                         ::testing::Range(0, kGestureClasses));

}  // namespace
}  // namespace axsnn::data
