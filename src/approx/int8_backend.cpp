#include "approx/int8_backend.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "kernels/dispatch.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/check.hpp"

namespace axsnn::approx {

float Int8ActivationScale(float max_abs) {
  if (max_abs <= 0.0f) return 1.0f / 64.0f;
  int e = 0;
  const float m = std::frexp(max_abs, &e);  // max_abs = m * 2^e, m in [0.5, 1)
  if (m == 0.5f) --e;                       // exactly a power of two
  return std::ldexp(1.0f, e - 6);           // 2^ceil(log2(max_abs)) / 64
}

namespace {

/// Parallel max|x| with the fixed-chunk reduction shape: per-chunk partial
/// maxima combined in chunk order (max is order-independent anyway, but the
/// shape keeps the runtime's determinism contract self-evident).
float MaxAbs(const Tensor& x) {
  const long n = x.numel();
  const float* xd = x.data();
  const long grain = runtime::DefaultGrain(n);
  // Default-grained loops produce at most kMaxChunks chunks, so the partials
  // fit a stack array and the reduction stays allocation-free.
  std::array<float, runtime::kMaxChunks> partials{};
  const long chunks = runtime::NumChunks(n, grain);
  runtime::ParallelForChunks(
      0, n,
      [&](long chunk, long lo, long hi) {
        float m = 0.0f;
        for (long i = lo; i < hi; ++i) m = std::max(m, std::fabs(xd[i]));
        partials[static_cast<std::size_t>(chunk)] = m;
      },
      grain);
  float max_abs = 0.0f;
  for (long c = 0; c < chunks; ++c)
    max_abs = std::max(max_abs, partials[static_cast<std::size_t>(c)]);
  return max_abs;
}

}  // namespace

namespace detail {

namespace {

template <typename CodeT>
float QuantizeInto(const Tensor& x, CodeT* qd) {
  const long n = x.numel();
  const float* xd = x.data();
  const float scale = Int8ActivationScale(MaxAbs(x));
  const float inv = 1.0f / scale;
  runtime::ParallelFor(0, n, [&](long i) {
    const float q = std::nearbyint(xd[i] * inv);
    qd[i] = static_cast<CodeT>(std::clamp(q, -127.0f, 127.0f));
  });
  return scale;
}

}  // namespace

float Int8QuantizeInto(const Tensor& x, std::int8_t* qd) {
  return QuantizeInto(x, qd);
}
float Int8QuantizeInto(const Tensor& x, std::int32_t* qd) {
  return QuantizeInto(x, qd);
}

}  // namespace detail

void Int8Conv2dForward(const QuantizedTensor& weight, const Tensor& bias,
                       const Tensor& x, Tensor& out, const Conv2dGeom& geom,
                       kernels::KernelMode mode, runtime::Workspace& scratch) {
  const std::size_t r = x.rank();
  AXSNN_CHECK(r >= 3, "Int8Conv2dForward expects [*, C, H, W]");
  const long c_in = x.dim(r - 3);
  const long h = x.dim(r - 2);
  const long w = x.dim(r - 1);
  const long n = x.numel() / (c_in * h * w);
  AXSNN_CHECK(c_in == geom.in_channels && weight.rows() == geom.out_channels,
              "Int8Conv2dForward geometry mismatch");

  // Activation codes live in the scratch workspace (slots::kQAct, which the
  // kernels never touch) so the layer carries no typed members of its own.
  auto& qact = scratch.AcquireI32(kernels::slots::kQAct,
                                  static_cast<std::size_t>(x.numel()));
  const float act_scale = Int8QuantizeActivations(x, qact);
  kernels::Int8Conv2dForward(weight, bias, qact.data(), act_scale, n, h, w,
                             out, geom, mode, scratch);
}

void Int8DenseForward(const QuantizedTensor& weight, const Tensor& bias,
                      const Tensor& x, Tensor& out, kernels::KernelMode mode,
                      runtime::Workspace& scratch) {
  const long f_in = weight.row_size();
  AXSNN_CHECK(x.numel() % f_in == 0, "Int8DenseForward feature mismatch");
  const long n = x.numel() / f_in;

  auto& qact = scratch.AcquireI8(kernels::slots::kQActI8,
                                 static_cast<std::size_t>(x.numel()));
  const float act_scale = Int8QuantizeActivations(x, qact);
  kernels::Int8DenseForward(weight, bias, qact.data(), act_scale, n, out,
                            mode, scratch);
}

}  // namespace axsnn::approx
