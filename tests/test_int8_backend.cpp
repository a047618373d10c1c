// Tests for the INT8 execution backend: QuantizedTensor storage, the
// power-of-two activation scale, the integer conv/dense kernels, and the
// determinism contract — int8-backend logits pinned against the float
// fake-quantization reference within one output quantization step on the
// tier-1 networks.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "approx/approximation.hpp"
#include "approx/int8_backend.hpp"
#include "approx/precision.hpp"
#include "snn/conv2d.hpp"
#include "snn/dense.hpp"
#include "snn/encoding.hpp"
#include "snn/inference.hpp"
#include "snn/models.hpp"
#include "tensor/quantized.hpp"

namespace axsnn::approx {
namespace {

// --- QuantizedTensor --------------------------------------------------------

TEST(QuantizedTensor, RowwiseScalesAndErrorBound) {
  Rng rng(1);
  Tensor t = Tensor::Normal({4, 32}, 0.0f, 1.0f, rng);
  QuantizedTensor q = QuantizedTensor::QuantizeRowwise(t);
  ASSERT_EQ(q.rows(), 4);
  ASSERT_EQ(q.row_size(), 32);
  Tensor back = q.Dequantized();
  for (long r = 0; r < 4; ++r) {
    float row_max = 0.0f;
    for (long i = 0; i < 32; ++i)
      row_max = std::max(row_max, std::fabs(t[r * 32 + i]));
    EXPECT_FLOAT_EQ(q.scale(r), row_max / 127.0f);
    // Symmetric rounding: reconstruction error is at most half a step.
    for (long i = 0; i < 32; ++i)
      EXPECT_LE(std::fabs(back[r * 32 + i] - t[r * 32 + i]),
                q.scale(r) * 0.5f + 1e-7f);
  }
}

TEST(QuantizedTensor, RowwiseNoCoarserThanPerTensor) {
  // Per-row scales are at most the per-tensor scale, so rowwise total error
  // can only shrink — the point of the per-output-channel layout.
  Rng rng(2);
  Tensor t = Tensor::Normal({8, 64}, 0.0f, 0.5f, rng);
  t[0] = 4.0f;  // one dominant row stretches the per-tensor scale
  float max_abs = 0.0f;
  for (float v : t.flat()) max_abs = std::max(max_abs, std::fabs(v));
  const float tensor_scale = max_abs / 127.0f;
  QuantizedTensor q = QuantizedTensor::QuantizeRowwise(t);
  for (long r = 0; r < q.rows(); ++r)
    EXPECT_LE(q.scale(r), tensor_scale + 1e-7f);
  Tensor rowwise = q.Dequantized();
  Tensor per_tensor = Quantized(t, Precision::kInt8);
  double err_row = 0.0, err_tensor = 0.0;
  for (long i = 0; i < t.numel(); ++i) {
    err_row += std::fabs(rowwise[i] - t[i]);
    err_tensor += std::fabs(per_tensor[i] - t[i]);
  }
  EXPECT_LE(err_row, err_tensor + 1e-6);
}

TEST(QuantizedTensor, LatticeScalesAreExact) {
  // Values already on a per-tensor int8 lattice re-quantize exactly when the
  // lattice scale is passed for every row — the Algorithm-1 integration.
  Rng rng(3);
  Tensor t = Tensor::Normal({6, 50}, 0.0f, 1.0f, rng);
  const float scale = QuantizeTensor(t, Precision::kInt8);
  QuantizedTensor q = QuantizedTensor::QuantizeWithScales(
      t, std::vector<float>(6, scale));
  Tensor back = q.Dequantized();
  EXPECT_TRUE(back.AllClose(t, 0.0f));
}

TEST(QuantizedTensor, ZeroRowGetsUnitScale) {
  Tensor t({2, 3}, {0.0f, 0.0f, 0.0f, 1.0f, -2.0f, 0.5f});
  QuantizedTensor q = QuantizedTensor::QuantizeRowwise(t);
  EXPECT_FLOAT_EQ(q.scale(0), 1.0f);
  Tensor back = q.Dequantized();
  for (long i = 0; i < 3; ++i) EXPECT_EQ(back[i], 0.0f);
}

TEST(QuantizedTensor, ValidatesInputs) {
  Tensor t({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_THROW(QuantizedTensor::QuantizeWithScales(t, {1.0f}),
               std::invalid_argument);
  EXPECT_THROW(QuantizedTensor::QuantizeWithScales(t, {1.0f, 0.0f}),
               std::invalid_argument);
  EXPECT_THROW(QuantizedTensor::QuantizeRowwise(Tensor()),
               std::invalid_argument);
}

// --- activation quantization ------------------------------------------------

TEST(Int8ActivationScale, PowerOfTwoHeadroom) {
  EXPECT_FLOAT_EQ(Int8ActivationScale(1.0f), 1.0f / 64.0f);
  EXPECT_FLOAT_EQ(Int8ActivationScale(0.75f), 1.0f / 64.0f);
  EXPECT_FLOAT_EQ(Int8ActivationScale(0.5f), 1.0f / 128.0f);
  EXPECT_FLOAT_EQ(Int8ActivationScale(2.0f), 1.0f / 32.0f);
  EXPECT_FLOAT_EQ(Int8ActivationScale(3.0f), 1.0f / 16.0f);
  EXPECT_FLOAT_EQ(Int8ActivationScale(0.0f), 1.0f / 64.0f);
}

TEST(Int8ActivationScale, ExactForSpikeRates) {
  // Spike-derived activations are dyadic rationals (binary spikes averaged
  // by 2^k pooling windows); the power-of-two scale represents them exactly.
  std::vector<std::int8_t> qact;
  Tensor x({9}, {0.0f, 0.25f, 0.5f, 0.75f, 1.0f, 0.125f, 0.375f, 0.625f,
                 0.875f});
  const float scale = Int8QuantizeActivations(x, qact);
  for (long i = 0; i < x.numel(); ++i)
    EXPECT_EQ(static_cast<float>(qact[static_cast<std::size_t>(i)]) * scale,
              x[i]);
}

// --- integer kernels vs their float semantics -------------------------------

/// Max-abs elementwise difference.
float MaxDiff(const Tensor& a, const Tensor& b) {
  float m = 0.0f;
  for (long i = 0; i < a.numel(); ++i)
    m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

/// Bit-pattern equality (float == would equate +0 with −0 and never a NaN
/// with itself).
bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Random binary spike tensor.
Tensor SpikeTensor(Shape shape, Rng& rng, float density = 0.3f) {
  Tensor x(std::move(shape));
  for (float& v : x.flat()) v = rng.Uniform(0.0, 1.0) < density ? 1.0f : 0.0f;
  return x;
}

TEST(Int8Conv2dForward, MatchesFloatReferenceOnLatticeWeights) {
  Rng rng(7);
  snn::Conv2d conv("c", 3, 5, 3, 1, rng);
  const float scale = QuantizeTensor(conv.weight(), Precision::kInt8);
  // Prune a few connections: zeros must stay zero through the int8 path.
  for (long i = 0; i < conv.weight().numel(); i += 7) conv.weight()[i] = 0.0f;
  Tensor x = SpikeTensor({4, 2, 3, 8, 8}, rng);
  Tensor reference = conv.Forward(x, false);

  conv.EnableInt8Kernel(std::vector<float>(5, scale));
  EXPECT_TRUE(conv.int8_kernel());
  Tensor int8_out = conv.Forward(x, false);
  ASSERT_EQ(int8_out.shape(), reference.shape());
  // Spike inputs and lattice weights are exact in int8, so the two paths
  // differ only by float accumulation rounding.
  EXPECT_LE(MaxDiff(int8_out, reference), 1e-4f);

  conv.DisableInt8Kernel();
  Tensor float_again = conv.Forward(x, false);
  EXPECT_TRUE(BitIdentical(float_again, reference));
}

TEST(Int8DenseForward, MatchesFloatReferenceOnLatticeWeights) {
  Rng rng(8);
  snn::Dense fc("fc", 48, 10, rng);
  const float scale = QuantizeTensor(fc.weight(), Precision::kInt8);
  Tensor x = SpikeTensor({6, 4, 48}, rng);
  Tensor reference = fc.Forward(x, false);

  fc.EnableInt8Kernel(std::vector<float>(10, scale));
  Tensor int8_out = fc.Forward(x, false);
  ASSERT_EQ(int8_out.shape(), reference.shape());
  EXPECT_LE(MaxDiff(int8_out, reference), 1e-4f);
}

TEST(Int8Conv2dForward, RowwiseScalesMatchDequantizedWeights) {
  // With true per-channel scales the int8 path must agree with the float
  // kernel run on the dequantized weights (its own float semantics).
  Rng rng(9);
  snn::Conv2d conv("c", 2, 4, 3, 1, rng);
  snn::Conv2d ref = conv;
  conv.EnableInt8Kernel();  // rowwise scales from raw float weights
  ref.weight() = conv.quantized_weight().Dequantized();
  Tensor x = SpikeTensor({3, 2, 2, 6, 6}, rng);
  Tensor int8_out = conv.Forward(x, false);
  Tensor reference = ref.Forward(x, false);
  EXPECT_LE(MaxDiff(int8_out, reference), 1e-4f);
}

TEST(Int8DenseForward, FractionalActivationsWithinOneStep) {
  // Quarter-integer activations (avg-pooled spikes) are exact too; the
  // result still matches the float reference to accumulation rounding.
  Rng rng(10);
  snn::Dense fc("fc", 32, 6, rng);
  const float scale = QuantizeTensor(fc.weight(), Precision::kInt8);
  Tensor x({2, 3, 32});
  for (float& v : x.flat())
    v = static_cast<float>(rng.UniformInt(5)) * 0.25f;
  Tensor reference = fc.Forward(x, false);
  fc.EnableInt8Kernel(std::vector<float>(6, scale));
  Tensor int8_out = fc.Forward(x, false);
  EXPECT_LE(MaxDiff(int8_out, reference), 1e-4f);
}

TEST(Int8Kernels, LoadStateDictDropsStaleSnapshot) {
  // Restoring weights in bulk must not leave ForwardInto running on the old
  // int8 snapshot: LoadStateDict drops it back to the float path.
  Rng rng(12);
  snn::Network net;
  net.Emplace<snn::Dense>("fc", 16, 4, rng);
  auto& fc = dynamic_cast<snn::Dense&>(net.layer(0));
  auto checkpoint = net.StateDict();
  fc.EnableInt8Kernel();
  EXPECT_TRUE(fc.int8_kernel());
  net.LoadStateDict(checkpoint);
  EXPECT_FALSE(fc.int8_kernel());
}

TEST(Int8Kernels, CloneKeepsBackendEnabled) {
  Rng rng(11);
  snn::Dense fc("fc", 16, 4, rng);
  fc.EnableInt8Kernel();
  auto copy = fc.Clone();
  auto* dense_copy = dynamic_cast<snn::Dense*>(copy.get());
  ASSERT_NE(dense_copy, nullptr);
  EXPECT_TRUE(dense_copy->int8_kernel());
  Tensor x = SpikeTensor({2, 2, 16}, rng);
  EXPECT_TRUE(BitIdentical(dense_copy->Forward(x, false),
                           fc.Forward(x, false)));
}

// --- whole-network determinism (acceptance criterion) -----------------------

/// Builds a tier-1 net, calibrates it, and returns int8-backend and float
/// fake-quantization variants of the same approximate configuration.
struct VariantPair {
  snn::Network int8_net;
  snn::Network reference_net;
};

VariantPair MakeVariants(const snn::Network& net, const Tensor& calib_input,
                         double level) {
  snn::Network calib_net = net.Clone();
  CalibrationStats stats = Calibrate(calib_net, calib_input);
  ApproxConfig cfg;
  cfg.level = level;
  cfg.precision = Precision::kInt8;
  cfg.time_steps = calib_input.dim(0);
  cfg.int8_kernels = true;
  auto [int8_net, int8_report] = MakeApproximate(net, cfg, stats);
  cfg.int8_kernels = false;
  auto [ref_net, ref_report] = MakeApproximate(net, cfg, stats);
  EXPECT_EQ(int8_report.pruned_fraction, ref_report.pruned_fraction);
  return {std::move(int8_net), std::move(ref_net)};
}

/// One output-quantization step of the network's readout layer: the
/// activation scale of its spike input times its weight scale. This is the
/// determinism budget the int8 backend must stay within.
float ReadoutQuantStep(snn::Network& net) {
  const snn::Dense* readout = nullptr;
  for (std::size_t i = 0; i < net.size(); ++i)
    if (auto* d = dynamic_cast<snn::Dense*>(&net.layer(i))) readout = d;
  EXPECT_NE(readout, nullptr);
  EXPECT_TRUE(readout->int8_kernel());
  float max_scale = 0.0f;
  for (float s : readout->quantized_weight().scales())
    max_scale = std::max(max_scale, s);
  return Int8ActivationScale(1.0f) * max_scale;
}

TEST(Int8Backend, StaticNetLogitsWithinOneQuantStep) {
  snn::StaticNetOptions opts;
  snn::Network net = snn::BuildStaticNet(opts);
  Rng rng(21);
  Tensor calib = snn::EncodeRate(
      Tensor::Uniform({4, 1, 16, 16}, 0.0f, 1.0f, rng), 8, rng);
  VariantPair pair = MakeVariants(net, calib, 0.01);

  Tensor x = snn::EncodeRate(Tensor::Uniform({6, 1, 16, 16}, 0.0f, 1.0f, rng),
                             8, rng);
  Tensor int8_logits = pair.int8_net.Forward(x, false);
  Tensor ref_logits = pair.reference_net.Forward(x, false);
  ASSERT_EQ(int8_logits.shape(), ref_logits.shape());
  const float step = ReadoutQuantStep(pair.int8_net);
  EXPECT_GT(step, 0.0f);
  EXPECT_LE(MaxDiff(int8_logits, ref_logits), step)
      << "int8 backend drifted beyond one readout quantization step";
}

TEST(Int8Backend, DvsNetLogitsWithinOneQuantStep) {
  snn::DvsNetOptions opts;
  opts.height = 16;
  opts.width = 16;
  snn::Network net = snn::BuildDvsNet(opts);
  Rng rng(22);
  // Binary event frames [T, B, 2, H, W], like data::BinEvents produces.
  Tensor calib = SpikeTensor({6, 2, 2, 16, 16}, rng, 0.2f);
  VariantPair pair = MakeVariants(net, calib, 0.01);

  Tensor x = SpikeTensor({6, 3, 2, 16, 16}, rng, 0.2f);
  Tensor int8_logits = pair.int8_net.Forward(x, false);
  Tensor ref_logits = pair.reference_net.Forward(x, false);
  ASSERT_EQ(int8_logits.shape(), ref_logits.shape());
  const float step = ReadoutQuantStep(pair.int8_net);
  EXPECT_LE(MaxDiff(int8_logits, ref_logits), step);
}

TEST(Int8Backend, PredictionsIdenticalToReference) {
  // Deployment equivalence: on the static tier-1 network the integer
  // backend must predict exactly the classes the reference emulation does.
  snn::StaticNetOptions opts;
  snn::Network net = snn::BuildStaticNet(opts);
  Rng rng(23);
  Tensor calib = snn::EncodeRate(
      Tensor::Uniform({4, 1, 16, 16}, 0.0f, 1.0f, rng), 8, rng);
  VariantPair pair = MakeVariants(net, calib, 0.001);
  Tensor images = Tensor::Uniform({16, 1, 16, 16}, 0.0f, 1.0f, rng);
  const std::vector<int> int8_pred = snn::PredictStatic(
      pair.int8_net, images, 8, snn::Encoding::kRate, 99);
  const std::vector<int> ref_pred = snn::PredictStatic(
      pair.reference_net, images, 8, snn::Encoding::kRate, 99);
  EXPECT_EQ(int8_pred, ref_pred);
}

}  // namespace
}  // namespace axsnn::approx
