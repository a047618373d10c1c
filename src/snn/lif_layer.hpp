// Leaky-integrate-and-fire activation layer with surrogate-gradient BPTT.
//
// This is the only stateful-in-time layer: it runs the membrane recursion
//   u[t] = beta * u[t-1] * (1 - s[t-1]) + x[t],   s[t] = H(u[t] - Vth)
// across the leading time axis of a [T, B, F...] activation, and its
// Backward implements full backpropagation-through-time using the
// fast-sigmoid surrogate for dH/du. It also records the spike statistics
// (mean firing rate, mean membrane potential) that the Eq. (1)
// approximation-threshold rule consumes.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "snn/layer.hpp"
#include "snn/lif.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::snn {

/// LIF spiking nonlinearity over time-major activations [T, B, F...].
class LifLayer final : public Layer {
 public:
  LifLayer(std::string name, LifParams params);

  Shape OutputShape(const Shape& in) const override;
  void ForwardInto(const Tensor& x, Tensor& out, bool train) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::string Name() const override { return name_; }
  std::unique_ptr<Layer> Clone() const override;

  const LifParams& params() const { return params_; }

  /// Replaces the neuron parameters (e.g. when sweeping Vth). Clears caches.
  void set_params(LifParams params);

  /// Fault-injection entry (src/faults/): replaces the neuron parameters
  /// WITHOUT range validation — a hardware bit-flip does not respect
  /// software invariants, and a corrupted Vth/leak must flow through the
  /// recursion as-is (every downstream op is well-defined float
  /// arithmetic, including NaN/inf). Clears caches like set_params.
  void set_params_raw(LifParams params);

  /// Mean spikes emitted per neuron per time step in the last Forward
  /// (Ns/T in Eq. (1) terms).
  float last_mean_rate() const { return last_mean_rate_; }

  /// Mean membrane potential observed in the last Forward (signed).
  float last_mean_membrane() const { return last_mean_membrane_; }

  /// Mean rectified membrane potential, mean(max(0, u)) — the excitatory
  /// drive. This is the Vm a spike-probability reading of Eq. (1) needs:
  /// trained networks often have negative *signed* mean membrane (strong
  /// inhibition), which would zero the min(1, Vm/Vth) term.
  float last_mean_drive() const { return last_mean_drive_; }

  /// Total spikes emitted in the last Forward (Ns summed over neurons).
  double last_total_spikes() const { return last_total_spikes_; }

 private:
  std::string name_;
  LifParams params_;
  Tensor cached_membrane_;  // u[t] before reset, same shape as input
  Tensor cached_spikes_;    // s[t]
  // Per-chunk (spikes, membrane, drive) partial sums, reused across passes
  // so the steady-state forward path performs no allocation.
  std::vector<std::array<double, 3>> stat_partials_;
  float last_mean_rate_ = 0.0f;
  float last_mean_membrane_ = 0.0f;
  float last_mean_drive_ = 0.0f;
  double last_total_spikes_ = 0.0;
};

}  // namespace axsnn::snn
