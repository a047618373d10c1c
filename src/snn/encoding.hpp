// Input encoders: static images -> time-major spike/current tensors.
//
// The paper's static-dataset pipeline uses rate encoding ("activation
// activity corresponds to the mean firing rates of spikes over certain time
// steps", Section II). For the gradient-based attacks we additionally expose
// direct (constant-current) encoding: the analog image is injected at every
// time step, which makes the network a deterministic, differentiable
// function of the image — the expectation of the rate-encoded network — so
// PGD/BIM gradients are well defined. Evaluation can use either mode.
#pragma once

#include <vector>

#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::snn {

/// How static images become time-major network inputs.
enum class Encoding {
  kRate,    ///< Bernoulli spikes, P(spike at t) = pixel intensity.
  kDirect,  ///< The analog image injected identically at every time step.
  kTtfs,    ///< Time-to-first-spike: one spike per pixel, earlier = brighter.
};

/// Rate-encodes images [B, C, H, W] with values in [0, 1] into spikes
/// [T, B, C, H, W]. Each (t, pixel) draw is an independent Bernoulli with
/// the pixel intensity as probability; `rng` determines the draw.
Tensor EncodeRate(const Tensor& images, long time_steps, Rng& rng);

/// Replicates images [B, C, H, W] across time -> [T, B, C, H, W].
Tensor EncodeDirect(const Tensor& images, long time_steps);

/// Time-to-first-spike (latency) encoding: each pixel emits exactly one
/// spike at t = round((1 - intensity) * (T - 1)); black pixels (0) emit
/// nothing. This is the encoding studied by the paper's related work [5]
/// (Nomura et al., TCAS-II 2022) and is provided as an extension for
/// robustness studies across encodings.
Tensor EncodeTtfs(const Tensor& images, long time_steps);

/// Dispatches on `mode`.
Tensor Encode(const Tensor& images, long time_steps, Encoding mode, Rng& rng);

/// Allocation-free variant of Encode: writes the time-major encoding into
/// `out` (resized in place, reusing its storage across calls). `out` must
/// not alias `images`.
void EncodeInto(const Tensor& images, long time_steps, Encoding mode, Rng& rng,
                Tensor& out);

/// Reduces an input-space gradient [T, B, ...] (as returned by
/// Network::Backward) to an image-space gradient [B, ...] by summing over
/// time — the adjoint of EncodeDirect.
Tensor CollapseTimeGradient(const Tensor& grad_tbx);

/// Transposes per-sample frame stacks [B, T, C, H, W] (how event datasets
/// store them) into the time-major layout [T, B, C, H, W] the network wants.
Tensor TimeMajor(const Tensor& frames_btx);

/// Allocation-free variant of TimeMajor. `out` must not alias `frames_btx`
/// (checked — aliasing storage throws, as do degenerate [B, T] dims).
void TimeMajorInto(const Tensor& frames_btx, Tensor& out);

}  // namespace axsnn::snn
