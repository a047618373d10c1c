// 2-D convolution layer (stride 1, symmetric zero padding).
//
// Spiking networks apply the same synaptic weights at every time step, so the
// convolution treats the leading [T, B] axes of a time-major activation as
// one large batch. Backward accumulates weight/bias gradients summed over
// time and returns the input gradient, enabling both training (BPTT) and
// input-space adversarial attacks. Both directions run in the kernel
// dispatcher (kernels/conv2d_kernels.hpp): the backward takes the exact
// simd path unless the layer's kernel mode resolves to naive, the SIMD tier
// is off, or a weight, the cached input or the incoming gradient holds a
// non-finite value — results are bit-identical either way.
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

/// Convolution over [*, C_in, H, W] -> [*, C_out, H_out, W_out] where * is
/// the flattened [T, B] prefix. Weights are [C_out, C_in, K, K].
class Conv2d final : public Layer {
 public:
  /// Creates a convolution with Kaiming-uniform initialized weights.
  /// `pad` is symmetric zero padding (K=3, pad=1 keeps H, W unchanged).
  Conv2d(std::string name, long in_channels, long out_channels, long kernel,
         long pad, Rng& rng);

  Shape OutputShape(const Shape& in) const override;
  void ForwardInto(const Tensor& x, Tensor& out, bool train) override;
  /// `grad_out` must have exactly OutputShape(input of the last cached
  /// forward); any other shape throws.
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Tensor*> Params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> Grads() override { return {&dweight_, &dbias_}; }
  std::string Name() const override { return name_; }
  std::unique_ptr<Layer> Clone() const override;

  long in_channels() const { return in_channels_; }
  long out_channels() const { return out_channels_; }
  long kernel() const { return kernel_; }

  /// Direct weight access for quantization / approximation passes.
  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }

  /// Switches ForwardInto to the integer backend (approx/int8_backend.*):
  /// snapshots the *current* weights as int8 with per-output-channel scales
  /// (`row_scales`; empty derives them rowwise as max|row| / 127) and runs
  /// int32-accumulating kernels from then on. Call after the last weight
  /// edit — later mutations of weight() are not re-quantized. Backward still
  /// differentiates the float weights (attacks are crafted on the accurate
  /// model, so the int8 path only ever runs forward).
  void EnableInt8Kernel(std::span<const float> row_scales = {});
  /// Returns to the float forward path.
  void DisableInt8Kernel() { qweight_ = QuantizedTensor(); }
  bool int8_kernel() const { return !qweight_.empty(); }
  const QuantizedTensor& quantized_weight() const { return qweight_; }
  /// Mutable snapshot access for the fault injector (src/faults/), which
  /// flips bits of the stored int8 codes / scale words in place. The next
  /// forward reads the corrupted snapshot directly.
  QuantizedTensor& quantized_weight() { return qweight_; }

  /// Bulk weight reload: the int8 snapshot no longer matches — drop it
  /// (callers re-enable if they still want integer execution).
  void OnWeightsChanged() override { DisableInt8Kernel(); }

  /// Kernel-implementation knob (src/kernels/): kAuto probes activation
  /// density per call, the other values pin one path. A non-auto global
  /// mode (AXSNN_KERNEL_MODE) overrides this — see kernels/dispatch.hpp.
  void set_kernel_mode(kernels::KernelMode mode) { kernel_mode_ = mode; }
  kernels::KernelMode kernel_mode() const { return kernel_mode_; }

 private:
  std::string name_;
  long in_channels_ = 0;
  long out_channels_ = 0;
  long kernel_ = 0;
  long pad_ = 0;
  Tensor weight_;   // [C_out, C_in, K, K]
  Tensor bias_;     // [C_out]
  Tensor dweight_;
  Tensor dbias_;
  Tensor cached_input_;  // saved activation for Backward
  QuantizedTensor qweight_;  // int8 backend weights (empty = off)
  kernels::KernelMode kernel_mode_ = kernels::KernelMode::kAuto;
  runtime::LocalScratch scratch_;  // kernel packing/code buffers (not copied)
};

}  // namespace axsnn::snn
