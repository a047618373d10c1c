// Fully-connected layer over the trailing feature axis.
//
// Input [*, F_in] -> output [*, F_out], where * is the flattened [T, B]
// prefix. Like Conv2d, the same synaptic weights are applied at every time
// step; Backward sums parameter gradients over time.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kernels/dispatch.hpp"
#include "runtime/workspace.hpp"
#include "snn/layer.hpp"
#include "tensor/quantized.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::snn {

/// Fully-connected (linear) layer. Weights are [F_out, F_in].
class Dense final : public Layer {
 public:
  /// Creates a dense layer with Kaiming-uniform initialized weights.
  Dense(std::string name, long in_features, long out_features, Rng& rng);

  Shape OutputShape(const Shape& in) const override;
  void ForwardInto(const Tensor& x, Tensor& out, bool train) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Tensor*> Params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> Grads() override { return {&dweight_, &dbias_}; }
  std::string Name() const override { return name_; }
  std::unique_ptr<Layer> Clone() const override;

  long in_features() const { return in_features_; }
  long out_features() const { return out_features_; }

  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }

  /// Switches ForwardInto to the integer backend; same contract as
  /// Conv2d::EnableInt8Kernel (snapshot current weights, per-output-channel
  /// scales, int32 accumulation; Backward keeps using the float weights).
  void EnableInt8Kernel(std::span<const float> row_scales = {});
  /// Returns to the float forward path.
  void DisableInt8Kernel() { qweight_ = QuantizedTensor(); }
  bool int8_kernel() const { return !qweight_.empty(); }
  const QuantizedTensor& quantized_weight() const { return qweight_; }
  /// Mutable snapshot access for the fault injector (src/faults/); same
  /// contract as Conv2d::quantized_weight().
  QuantizedTensor& quantized_weight() { return qweight_; }

  /// Bulk weight reload: the int8 snapshot no longer matches — drop it
  /// (callers re-enable if they still want integer execution).
  void OnWeightsChanged() override { DisableInt8Kernel(); }

  /// Kernel-implementation knob (src/kernels/); same contract as
  /// Conv2d::set_kernel_mode.
  void set_kernel_mode(kernels::KernelMode mode) { kernel_mode_ = mode; }
  kernels::KernelMode kernel_mode() const { return kernel_mode_; }

 private:
  std::string name_;
  long in_features_ = 0;
  long out_features_ = 0;
  Tensor weight_;   // [F_out, F_in]
  Tensor bias_;     // [F_out]
  Tensor dweight_;
  Tensor dbias_;
  Tensor cached_input_;
  QuantizedTensor qweight_;  // int8 backend weights (empty = off)
  kernels::KernelMode kernel_mode_ = kernels::KernelMode::kAuto;
  runtime::LocalScratch scratch_;  // kernel packing/code buffers (not copied)
};

}  // namespace axsnn::snn
