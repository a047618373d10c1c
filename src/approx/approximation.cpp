#include "approx/approximation.hpp"

#include <algorithm>
#include <cmath>

#include "snn/conv2d.hpp"
#include "snn/dense.hpp"
#include "snn/lif_layer.hpp"
#include "tensor/check.hpp"

namespace axsnn::approx {

CalibrationStats Calibrate(snn::Network& net, const Tensor& input_tb) {
  AXSNN_CHECK(input_tb.rank() >= 2, "calibration input must be [T, B, ...]");
  net.Forward(input_tb, /*train=*/false);
  CalibrationStats stats;
  for (const snn::LifLayer* lif : net.LifLayers()) {
    LayerCalibration c;
    c.lif_name = lif->Name();
    c.mean_rate = lif->last_mean_rate();
    c.mean_membrane = lif->last_mean_membrane();
    c.mean_drive = lif->last_mean_drive();
    c.v_threshold = lif->params().v_threshold;
    stats.lif.push_back(c);
  }
  return stats;
}

namespace {

/// Weight layer metadata the pruning pass needs.
struct WeightLayerRef {
  Tensor* weight = nullptr;
  Tensor* bias = nullptr;
  std::string name;
  long fan_in = 0;           // c in Eq. (1)
  int following_lif = -1;    // index into CalibrationStats::lif
  int preceding_lif = -1;
  snn::Conv2d* conv = nullptr;   // exactly one of conv/dense is set,
  snn::Dense* dense = nullptr;   // for int8-backend activation
};

/// Walks the network and pairs every Conv2d/Dense with the LIF layer whose
/// activity drives its Eq. (1) threshold (the LIF it feeds; for the readout
/// layer, the LIF feeding it).
std::vector<WeightLayerRef> CollectWeightLayers(snn::Network& net) {
  std::vector<WeightLayerRef> out;
  int lif_seen = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    snn::Layer& layer = net.layer(i);
    if (auto* conv = dynamic_cast<snn::Conv2d*>(&layer)) {
      WeightLayerRef ref;
      ref.weight = &conv->weight();
      ref.bias = &conv->bias();
      ref.name = conv->Name();
      ref.fan_in = conv->in_channels() * conv->kernel() * conv->kernel();
      ref.preceding_lif = lif_seen - 1;
      ref.conv = conv;
      out.push_back(ref);
    } else if (auto* dense = dynamic_cast<snn::Dense*>(&layer)) {
      WeightLayerRef ref;
      ref.weight = &dense->weight();
      ref.bias = &dense->bias();
      ref.name = dense->Name();
      ref.fan_in = dense->in_features();
      ref.preceding_lif = lif_seen - 1;
      ref.dense = dense;
      out.push_back(ref);
    } else if (dynamic_cast<snn::LifLayer*>(&layer) != nullptr) {
      // The most recent weight layer without a LIF yet feeds this one.
      for (auto it = out.rbegin(); it != out.rend(); ++it) {
        if (it->following_lif >= 0) break;
        it->following_lif = lif_seen;
      }
      ++lif_seen;
    }
  }
  return out;
}

}  // namespace

ApproxReport ApplyApproximation(snn::Network& net, const ApproxConfig& cfg,
                                const CalibrationStats& calibration) {
  AXSNN_CHECK(cfg.level >= 0.0, "approximation level must be non-negative");
  AXSNN_CHECK(cfg.time_steps > 0, "time_steps must be positive");
  AXSNN_CHECK(cfg.threshold_gain > 0.0, "threshold_gain must be positive");

  ApproxReport report;
  long pruned_total = 0;
  long conn_total = 0;

  for (WeightLayerRef& ref : CollectWeightLayers(net)) {
    // Kernel-path knob: applies to fp32 and int8 execution alike.
    if (ref.conv != nullptr) ref.conv->set_kernel_mode(cfg.kernel_mode);
    if (ref.dense != nullptr) ref.dense->set_kernel_mode(cfg.kernel_mode);

    // Precision scaling always applies (it is the wp in Eq. (1)).
    const float weight_scale = QuantizeTensor(*ref.weight, cfg.precision);
    QuantizeTensor(*ref.bias, cfg.precision);

    LayerApproxReport lr;
    lr.layer = ref.name;
    lr.total = ref.weight->numel();
    conn_total += lr.total;

    if (cfg.level > 0.0) {
      // Pick the LIF whose activity gauges this layer's significance.
      const int lif_idx =
          ref.following_lif >= 0 ? ref.following_lif : ref.preceding_lif;
      AXSNN_CHECK(lif_idx >= 0 &&
                      lif_idx < static_cast<int>(calibration.lif.size()),
                  "no calibration stats for layer " << ref.name);
      const LayerCalibration& cal =
          calibration.lif[static_cast<std::size_t>(lif_idx)];

      // Eq. (1): ath = (Ns/T) * min(1, Vm/Vth) * mean_o|Σ_i wp_oi|.
      // mean_rate already is Ns / (T * neurons). The spike-probability term
      // uses the rectified membrane mean (excitatory drive): the signed mean
      // is typically negative in trained networks, which would degenerate
      // min(1, Vm/Vth) to zero for every layer. The weight term is the
      // Algorithm 1 line 9 connection sum per output neuron (see header for
      // why the fan-in enters through it rather than as a second factor).
      const float spike_prob =
          std::min(1.0f, cal.mean_drive / cal.v_threshold);
      const long outputs = ref.weight->numel() / ref.fan_in;
      double sum_of_abs_rowsums = 0.0;
      for (long o = 0; o < outputs; ++o) {
        double row = 0.0;
        for (long i = 0; i < ref.fan_in; ++i)
          row += (*ref.weight)[o * ref.fan_in + i];
        sum_of_abs_rowsums += std::fabs(row);
      }
      const float mean_connection_sum =
          static_cast<float>(sum_of_abs_rowsums / std::max(1L, outputs));
      const float ath_base = cal.mean_rate * spike_prob * mean_connection_sum;
      lr.ath = static_cast<float>(cfg.level * cfg.threshold_gain) * ath_base;

      for (float& w : ref.weight->flat()) {
        if (std::fabs(w) < lr.ath && w != 0.0f) {
          w = 0.0f;
          ++lr.pruned;
        }
      }
      pruned_total += lr.pruned;
    }

    // kInt8 deployment path: hand the layer its weights as real int8 after
    // the last weight edit (pruned zeros quantize to zero). The per-row
    // scales are all the per-tensor lattice scale, so the int8 codes are
    // exactly the fake-quantization integers and the integer forward pass
    // reproduces the reference emulation to accumulation rounding. True
    // rowwise scales (EnableInt8Kernel with no argument) trade that
    // bit-alignment for finer per-channel resolution on raw float weights.
    if (cfg.precision == Precision::kInt8 && cfg.int8_kernels) {
      const std::vector<float> lattice(
          static_cast<std::size_t>(ref.weight->dim(0)), weight_scale);
      if (ref.conv != nullptr) ref.conv->EnableInt8Kernel(lattice);
      if (ref.dense != nullptr) ref.dense->EnableInt8Kernel(lattice);
    } else {
      // Float emulation path (and stale-backend guard when re-approximating
      // a network that previously ran int8).
      if (ref.conv != nullptr) ref.conv->DisableInt8Kernel();
      if (ref.dense != nullptr) ref.dense->DisableInt8Kernel();
    }
    report.layers.push_back(lr);
  }

  report.pruned_fraction =
      conn_total == 0
          ? 0.0
          : static_cast<double>(pruned_total) / static_cast<double>(conn_total);
  return report;
}

std::pair<snn::Network, ApproxReport> MakeApproximate(
    const snn::Network& net, const ApproxConfig& cfg,
    const CalibrationStats& calibration) {
  snn::Network copy = net.Clone();
  ApproxReport report = ApplyApproximation(copy, cfg, calibration);
  return {std::move(copy), std::move(report)};
}

}  // namespace axsnn::approx
