// Convolution kernels (stride 1, symmetric zero padding) behind the
// sparsity-aware dispatcher — fp32 and int8, each in three flavours
// (naive / sparse / simd; see kernels/dispatch.hpp for the taxonomy).
//
// Equivalence contract: for every mode the per-output-element accumulation
// runs bias-first, then the (ci, ky, kx) contributions in the naive loop
// order (naive and simd skip pruned weights) — the simd tiles walk the
// im2col k axis in exactly that order, and the sparse scatter visits
// nonzeros in (ci, iy, ix) scan order, which for any fixed output element
// is the same (ci, ky, kx) order. fp32 results are therefore bit-identical
// across modes: the terms simd adds for padding, the terms sparse skips
// for zero activations and the pruned-weight terms the sparse scatter
// keeps for finite activations are exact ±0 no-ops whenever
// ZeroTermsAreNoOps holds; the dispatcher runs naive when it does not, or
// when a sparse call meets an inf/NaN activation. int8 results are
// identical outright (int32 accumulation is exact). The differential suite
// in tests/test_kernels.cpp pins this bit for bit.
//
// The fp32 backward keeps the same contract against its naive loops. Its
// simd path runs both gradients through the forward's simd::ConvGemmF32
// tile, every accumulator starting at +0: the input gradient per sample as
// (W^T [ci][(co, ky, kx)]) x (a grad_out pack, +0 outside the output
// plane), each lane summing (co, ky, kx) in the naive order with pruned
// weights skipped; the weight gradient per sample as (grad_out [co][p]) x
// (transposed im2col [p][k]), each lane summing p in the naive (oy, ox)
// order with zero gradients skipped, added into dweight in ascending
// sample order. The skipped terms and the +0 padding terms are ±0 no-ops
// exactly when the weights, grad_out and the input are all finite, so the
// dispatcher runs the naive loops otherwise.
#pragma once

#include <cstdint>

#include "kernels/dispatch.hpp"
#include "runtime/workspace.hpp"
#include "tensor/quantized.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::kernels {

/// Conv2d geometry (stride 1, symmetric zero padding — mirrors snn::Conv2d).
struct Conv2dGeom {
  long in_channels = 0;
  long out_channels = 0;
  long kernel = 0;
  long pad = 0;
};

/// fp32 convolution forward over [*, C_in, H, W] -> [*, C_out, H', W'].
/// `weight` is [C_out, C_in, K, K], `bias` [C_out]; `out` must already be
/// sized. `mode` selects the implementation after the global-override and
/// density-probe rules of kernels/dispatch.hpp; `scratch` owns the packing
/// buffers and gather lists (allocation-free in steady state).
void Conv2dForward(const Tensor& weight, const Tensor& bias, const Tensor& x,
                   Tensor& out, const Conv2dGeom& geom, KernelMode mode,
                   runtime::Workspace& scratch);

/// fp32 convolution backward for Conv2dForward's input `x`: writes the
/// input gradient into `grad_in` (sized like `x`, overwritten) and adds
/// the weight and bias gradients into `dweight` ([C_out, C_in, K, K]) and
/// `dbias` ([C_out]). `grad_out` must have the forward output's element
/// count. Runs the simd path unless `mode` resolves to naive, the SIMD
/// tier is scalar, or a weight, an input or a grad_out element is not
/// finite — then the naive loops. Results do not depend on the path or the
/// pool size.
void Conv2dBackward(const Tensor& weight, const Tensor& x,
                    const Tensor& grad_out, Tensor& grad_in, Tensor& dweight,
                    Tensor& dbias, const Conv2dGeom& geom, KernelMode mode,
                    runtime::Workspace& scratch);

/// int8 convolution forward. `qact` holds the activation codes (int8 values
/// staged in int32 lanes, length n * C_in * h * w) already quantized by the
/// caller at `act_scale` — typically living in `scratch` slot
/// slots::kQAct, which the kernels below never touch. Accumulates in int32
/// and requantizes with act_scale * weight.scale(channel) + bias.
void Int8Conv2dForward(const QuantizedTensor& weight, const Tensor& bias,
                       const std::int32_t* qact, float act_scale, long n,
                       long h, long w, Tensor& out, const Conv2dGeom& geom,
                       KernelMode mode, runtime::Workspace& scratch);

}  // namespace axsnn::kernels
