// Per-layer probes for traced runs. Each probe drives public layer and
// kernel entry points (Layer::ForwardInto / Backward, kernels::
// Conv2dForward / DenseForward under ScopedKernelMode) on activations the
// workload itself produced, and writes its rows into a Result.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"
#include "snn/network.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Median-of-`reps` forward time of every layer of `net` on `input`
/// ([T, B, ...], inference mode), reported as `<prefix>.<layer>.<suffix>`
/// in ms. When `captured` is non-null it receives each layer's input.
void ProbeForward(axsnn::snn::Network& net, const axsnn::Tensor& input, int reps,
                  const std::string& prefix, const std::string& suffix,
                  Result& result, std::vector<axsnn::Tensor>* captured = nullptr);

/// Median-of-`reps` Backward time of every layer after a training-mode
/// forward on `input`, reported as `<prefix>.<layer>.bwd_ms`.
void ProbeBackward(axsnn::snn::Network& net, const axsnn::Tensor& input, int reps,
                   const std::string& prefix, Result& result);

/// Kernel-dispatch audit on captured layer inputs (ProbeForward's
/// `captured`): for each Conv2d/Dense layer the input density and the
/// kernel time under naive/sparse/simd. With `densities_only`, just
/// the density rows. Otherwise also sets the computed dense and nonzero MAC
/// counts of those layers (kernels.macs / kernels.nnz_macs).
void ProbeKernels(axsnn::snn::Network& net, const std::vector<axsnn::Tensor>& captured,
                  int reps, const std::string& prefix, bool densities_only,
                  Result& result);

/// Steady-state heap allocations of one ForwardShared on `input`.
double AllocsPerForward(axsnn::snn::Network& net, const axsnn::Tensor& input);

/// Serving probe (serve_probe.cpp): open-loop single-sample traffic to an
/// InferenceServer serving `model`, with requests rate-encoded from
/// `images` ([N, C, H, W]) over `time_steps`. Reports the serve.* rows;
/// every reply must be bit-identical to its B=1 reference.
void ProbeServing(const axsnn::snn::Network& model, const axsnn::Tensor& images,
                  long time_steps, std::uint64_t seed, bool reduced,
                  Result& result);

/// Rows [0, count) of a [N, ...] tensor.
axsnn::Tensor Head(const axsnn::Tensor& t, long count);

}  // namespace perfbench
