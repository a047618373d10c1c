// Layer abstraction for time-major spiking networks.
//
// All layers consume and produce *time-major* activations shaped
// [T, B, ...feature dims...]; stateless layers (conv, dense, pool) treat
// T*B as one large batch, while the LIF layer runs its membrane recursion
// across the leading time axis. Each layer caches what it needs during
// ForwardInto so that a subsequent Backward can run full
// backpropagation-through-time, including the gradient with respect to the
// *input* — which is what the gradient-based adversarial attacks consume.
//
// The forward path is allocation-free in steady state: ForwardInto writes
// into a caller-provided output tensor (resized in place, which reuses its
// heap block once capacities have warmed up), and Network::ForwardShared
// ping-pongs activations between two runtime::Workspace slots. The
// allocating Tensor Forward(x, train) remains as a convenience wrapper.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace axsnn::snn {

/// Abstract base class of all network layers.
///
/// Contract: Backward(g) must be called at most once after each forward pass
/// and receives dL/d(output); it accumulates parameter gradients internally
/// and returns dL/d(input) of the same shape as the forward input.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer() = default;
  Layer(const Layer&) = default;
  Layer& operator=(const Layer&) = default;

  /// Output shape produced for an input of shape `in`. Throws when `in` is
  /// not a shape this layer accepts.
  virtual Shape OutputShape(const Shape& in) const = 0;

  /// Runs the layer on a time-major activation, writing the result into
  /// `out` (resized by the implementation; contents fully overwritten).
  /// `out` must not alias `x`. `train` enables stochastic behaviour
  /// (dropout) and input caching for Backward. Inference passes
  /// (train == false) skip — and invalidate — the input-activation cache
  /// unless grad_cache() is set, so Backward after an uncached pass throws
  /// rather than differentiating a stale input; callers that backpropagate
  /// through inference-mode forwards (the gradient-based attacks) enable
  /// caching first via Network::SetGradCache / snn::GradCacheScope.
  virtual void ForwardInto(const Tensor& x, Tensor& out, bool train) = 0;

  /// Allocating convenience wrapper around ForwardInto.
  Tensor Forward(const Tensor& x, bool train) {
    Tensor out;
    ForwardInto(x, out, train);
    return out;
  }

  /// Backpropagates through the cached forward pass; returns dL/d(input).
  virtual Tensor Backward(const Tensor& grad_out) = 0;

  /// Trainable parameter tensors (may be empty). Order is stable and matches
  /// Grads().
  virtual std::vector<Tensor*> Params() { return {}; }

  /// Accumulated parameter gradients, aligned with Params().
  virtual std::vector<Tensor*> Grads() { return {}; }

  /// Clears accumulated parameter gradients.
  void ZeroGrad() {
    for (Tensor* g : Grads()) g->Zero();
  }

  /// Called after the layer's parameter tensors were overwritten in bulk
  /// (Network::LoadStateDict). Layers holding state *derived* from their
  /// parameters — e.g. the int8 weight snapshot of Conv2d/Dense — must
  /// invalidate it here; executing on a stale snapshot would silently
  /// ignore the new weights. Direct mutation through weight()/Params()
  /// accessors does not trigger this hook; such callers re-derive manually
  /// (as ApplyApproximation does by enabling int8 after its last edit).
  virtual void OnWeightsChanged() {}

  /// Gradient-cache switch for inference-mode passes: when set, layers keep
  /// their Backward caches on train == false forwards too (the attacks'
  /// threat model — craft on the accurate model in eval mode). Default off:
  /// pure inference (AccuracyStatic, sweeps) skips the per-layer input
  /// copies. Training passes (train == true) always cache.
  void set_grad_cache(bool on) { grad_cache_ = on; }
  bool grad_cache() const { return grad_cache_; }

  /// Short identifier used in diagnostics and state dicts, e.g. "conv1".
  virtual std::string Name() const = 0;

  /// Deep copy, preserving weights but not cached activations. Approximation
  /// experiments clone a trained network once per (precision, level) variant.
  virtual std::unique_ptr<Layer> Clone() const = 0;

 protected:
  /// Resizes `out` to OutputShape(x.shape()), memoizing the (input, output)
  /// shape pair so steady-state passes (same input shape every call) perform
  /// no shape computation and no allocation. ForwardInto implementations
  /// call this first.
  void SizeOutput(const Tensor& x, Tensor& out) {
    if (x.shape() != last_in_shape_) {
      last_out_shape_ = OutputShape(x.shape());
      last_in_shape_ = x.shape();  // copy-assign: reuses capacity
    }
    out.ResizeTo(last_out_shape_);
  }

 private:
  Shape last_in_shape_;   // memoized SizeOutput key
  Shape last_out_shape_;  // memoized SizeOutput value
  bool grad_cache_ = false;  // cache inputs on inference passes too
};

}  // namespace axsnn::snn
