// Differential kernel-equivalence suite for the sparsity-aware dispatch
// engine (src/kernels/): every kernel flavour (naive / sparse / simd) must
// produce the *same* result for the same inputs, bit for bit — fp32
// included (identical per-element accumulation order, no FMA; see
// kernels/*.hpp) and every int8 flavour (integer accumulation is exact and
// the requantize rounds identically — kernels/simd_kernels.hpp). "Same"
// means the same bit pattern: +0 and −0 differ, and a NaN must meet a NaN
// (its payload is not compared — see Bits).
//
// The suite sweeps shapes (1x1 kernels, pad 0 and kernel-1, H=W=1, single
// channels, odd sizes), spike densities 0 / 1% / 50% / 100%, and pool sizes
// 1 and 4; a special-value case adds +inf (an activation bit flip of a
// 1.0f spike), NaN, −0 inputs, −0 biases and non-finite weights. The conv
// backward's simd path is pinned against its naive loops the same way
// (grad_in, dweight and dbias, special values included). A golden
// determinism test then pins the end-to-end guarantee: a fig2-style mini
// sweep whose report is byte-identical across every kernel mode and pool
// size, so Algorithm-1 search results can never depend on the dispatch
// decision.
//
// Modes are forced through SetGlobalKernelMode (precedence rule 1), so the
// comparisons stay meaningful even when CI exports AXSNN_KERNEL_MODE.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "approx/approximation.hpp"
#include "approx/int8_backend.hpp"
#include "core/workbench.hpp"
#include "data/synthetic_mnist.hpp"
#include "eval/report.hpp"
#include "kernels/conv2d_kernels.hpp"
#include "kernels/cpu_features.hpp"
#include "kernels/dense_kernels.hpp"
#include "kernels/dispatch.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/workspace.hpp"
#include "snn/conv2d.hpp"
#include "snn/dense.hpp"
#include "snn/models.hpp"
#include "tensor/quantized.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

namespace axsnn {
namespace {

using kernels::KernelMode;
// Forces one kernel path globally for a scope (and shields the test from
// any AXSNN_KERNEL_MODE the environment exports).
using kernels::ScopedKernelMode;

/// Pool-size override for a scope; restores the default on exit.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) { runtime::SetGlobalThreads(threads); }
  ~ScopedThreads() { runtime::SetGlobalThreads(0); }
};

/// Spike-like activation tensor: each element is nonzero with probability
/// `density`, drawn from [0.25, 1) so values are representative of rate
/// coding (and never denormal).
Tensor MakeSpikes(Shape shape, float density, Rng& rng) {
  Tensor gate = Tensor::Uniform(shape, 0.0f, 1.0f, rng);
  Tensor vals = Tensor::Uniform(shape, 0.25f, 1.0f, rng);
  Tensor x(std::move(shape));
  for (long i = 0; i < x.numel(); ++i)
    x[i] = gate[i] < density ? vals[i] : 0.0f;
  return x;
}

/// Weights with ~25% exact zeros, mimicking Eq.-(1) pruning.
Tensor MakePrunedWeights(Shape shape, Rng& rng) {
  Tensor gate = Tensor::Uniform(shape, 0.0f, 1.0f, rng);
  Tensor w = Tensor::Normal(std::move(shape), 0.0f, 0.5f, rng);
  for (long i = 0; i < w.numel(); ++i)
    if (gate[i] < 0.25f) w[i] = 0.0f;
  return w;
}

/// A float's bit pattern, with every NaN mapped to one quiet NaN. IEEE 754
/// leaves unspecified which NaN an add of two NaNs returns, and the
/// compiler may commute any add — the naive reference's own unrolled loops
/// alternate acc + p and p + acc — so a NaN's sign and payload are a
/// code-generation artifact that no kernel can promise to reproduce.
/// Everything else compares exactly: ±0, the sign of inf, NaN versus a
/// number, every finite value.
std::uint32_t Bits(float v) {
  return std::isnan(v) ? 0x7fc00000u : std::bit_cast<std::uint32_t>(v);
}

/// Bit-pattern equality (see Bits): unlike float ==, tells +0 from −0 and
/// matches a NaN with a NaN.
void ExpectBitIdentical(const Tensor& got, const Tensor& want,
                        const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (long i = 0; i < got.numel(); ++i)
    ASSERT_EQ(Bits(got[i]), Bits(want[i]))
        << what << " diverges at flat index " << i << ": " << got[i]
        << " vs " << want[i];
}

/// True when the machine + build can run the AVX2 tier at all; the simd
/// sweeps additionally pin the scalar degrade with ScopedSimdTier.
bool SimdTierAvailable() {
  return kernels::ActiveSimdTier() != kernels::SimdTier::kScalar;
}

// --- conv2d differential sweep ----------------------------------------------

struct ConvCase {
  long n, c_in, c_out, h, w, k, pad;
};

const ConvCase kConvCases[] = {
    {2, 3, 4, 5, 7, 3, 1},  // odd spatial sizes, typical pad
    {1, 1, 2, 4, 4, 1, 0},  // 1x1 kernel, single input channel
    {2, 2, 3, 6, 5, 3, 0},  // pad 0
    {1, 2, 2, 5, 5, 3, 2},  // pad = kernel-1 (full padding)
    {3, 4, 3, 1, 1, 1, 0},  // H = W = 1
    {1, 1, 1, 3, 3, 3, 2},  // single in/out channel, pad = kernel-1
};

const float kDensities[] = {0.0f, 0.01f, 0.5f, 1.0f};

Tensor RunConv(const ConvCase& c, const Tensor& w, const Tensor& b,
               const Tensor& x, KernelMode mode) {
  ScopedKernelMode force(mode);
  runtime::Workspace scratch;
  const long h_out = c.h + 2 * c.pad - c.k + 1;
  const long w_out = c.w + 2 * c.pad - c.k + 1;
  Tensor out({c.n, c.c_out, h_out, w_out});
  const kernels::Conv2dGeom geom{c.c_in, c.c_out, c.k, c.pad};
  kernels::Conv2dForward(w, b, x, out, geom, mode, scratch);
  return out;
}

TEST(KernelEquivalence, Conv2dFp32BitIdenticalAcrossModes) {
  Rng rng(40);
  for (int threads : {1, 4}) {
    ScopedThreads pool(threads);
    for (const ConvCase& c : kConvCases) {
      Tensor w = MakePrunedWeights({c.c_out, c.c_in, c.k, c.k}, rng);
      Tensor b = Tensor::Normal({c.c_out}, 0.0f, 0.1f, rng);
      for (float density : kDensities) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " c_in=" << c.c_in
                     << " c_out=" << c.c_out << " h=" << c.h << " w=" << c.w
                     << " k=" << c.k << " pad=" << c.pad
                     << " density=" << density);
        Tensor x = MakeSpikes({c.n, c.c_in, c.h, c.w}, density, rng);
        Tensor naive = RunConv(c, w, b, x, KernelMode::kNaive);
        ExpectBitIdentical(RunConv(c, w, b, x, KernelMode::kSparse), naive,
                           "conv2d sparse");
        ExpectBitIdentical(RunConv(c, w, b, x, KernelMode::kAuto), naive,
                           "conv2d auto");
        if (SimdTierAvailable())
          ExpectBitIdentical(RunConv(c, w, b, x, KernelMode::kSimd), naive,
                             "conv2d simd");
        {
          // Forced-ISA-off: simd must degrade to the scalar reference.
          kernels::ScopedSimdTier scalar(kernels::SimdTier::kScalar);
          ExpectBitIdentical(RunConv(c, w, b, x, KernelMode::kSimd), naive,
                             "conv2d simd (scalar degrade)");
        }
      }
    }
  }
}

Tensor RunConvInt8(const ConvCase& c, const QuantizedTensor& qw,
                   const Tensor& b, const Tensor& x, KernelMode mode) {
  ScopedKernelMode force(mode);
  runtime::Workspace scratch;
  std::vector<std::int32_t> qact;
  const float act_scale = approx::Int8QuantizeActivations(x, qact);
  const long h_out = c.h + 2 * c.pad - c.k + 1;
  const long w_out = c.w + 2 * c.pad - c.k + 1;
  Tensor out({c.n, c.c_out, h_out, w_out});
  const kernels::Conv2dGeom geom{c.c_in, c.c_out, c.k, c.pad};
  kernels::Int8Conv2dForward(qw, b, qact.data(), act_scale, c.n, c.h, c.w,
                             out, geom, mode, scratch);
  return out;
}

TEST(KernelEquivalence, Conv2dInt8BitIdenticalAcrossModes) {
  Rng rng(41);
  for (int threads : {1, 4}) {
    ScopedThreads pool(threads);
    for (const ConvCase& c : kConvCases) {
      Tensor w = MakePrunedWeights({c.c_out, c.c_in, c.k, c.k}, rng);
      QuantizedTensor qw = QuantizedTensor::QuantizeRowwise(w);
      Tensor b = Tensor::Normal({c.c_out}, 0.0f, 0.1f, rng);
      for (float density : kDensities) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " c_in=" << c.c_in
                     << " c_out=" << c.c_out << " h=" << c.h << " w=" << c.w
                     << " k=" << c.k << " pad=" << c.pad
                     << " density=" << density);
        Tensor x = MakeSpikes({c.n, c.c_in, c.h, c.w}, density, rng);
        Tensor naive = RunConvInt8(c, qw, b, x, KernelMode::kNaive);
        ExpectBitIdentical(RunConvInt8(c, qw, b, x, KernelMode::kSparse),
                           naive, "int8 conv2d sparse");
        ExpectBitIdentical(RunConvInt8(c, qw, b, x, KernelMode::kAuto),
                           naive, "int8 conv2d auto");
        // int8 simd is bit-exact at every tier, including the vnni->avx2
        // mask and the forced-ISA-off scalar degrade.
        for (kernels::SimdTier cap :
             {kernels::SimdTier::kVnni, kernels::SimdTier::kAvx2,
              kernels::SimdTier::kScalar}) {
          kernels::ScopedSimdTier scoped(cap);
          ExpectBitIdentical(RunConvInt8(c, qw, b, x, KernelMode::kSimd),
                             naive, "int8 conv2d simd");
        }
      }
    }
  }
}

// --- dense differential sweep ------------------------------------------------

struct DenseCase {
  long n, f_in, f_out;
};

const DenseCase kDenseCases[] = {
    {1, 1, 1},    // degenerate single MAC
    {4, 7, 5},    // odd sizes below one register tile
    {9, 16, 3},   // ragged sample block (9 % 8 != 0)
    {5, 33, 9},   // 9 % 8 != 0: one 8-feature block plus a 1-feature tail
    {8, 64, 16},  // exact blocks
};

Tensor RunDense(const DenseCase& c, const Tensor& w, const Tensor& b,
                const Tensor& x, KernelMode mode) {
  ScopedKernelMode force(mode);
  runtime::Workspace scratch;
  Tensor out({c.n, c.f_out});
  kernels::DenseForward(w, b, x, out, mode, scratch);
  return out;
}

TEST(KernelEquivalence, DenseFp32BitIdenticalAcrossModes) {
  Rng rng(42);
  for (int threads : {1, 4}) {
    ScopedThreads pool(threads);
    for (const DenseCase& c : kDenseCases) {
      Tensor w = MakePrunedWeights({c.f_out, c.f_in}, rng);
      Tensor b = Tensor::Normal({c.f_out}, 0.0f, 0.1f, rng);
      for (float density : kDensities) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " n=" << c.n
                     << " f_in=" << c.f_in << " f_out=" << c.f_out
                     << " density=" << density);
        Tensor x = MakeSpikes({c.n, c.f_in}, density, rng);
        Tensor naive = RunDense(c, w, b, x, KernelMode::kNaive);
        ExpectBitIdentical(RunDense(c, w, b, x, KernelMode::kSparse), naive,
                           "dense sparse");
        ExpectBitIdentical(RunDense(c, w, b, x, KernelMode::kAuto), naive,
                           "dense auto");
        if (SimdTierAvailable())
          ExpectBitIdentical(RunDense(c, w, b, x, KernelMode::kSimd), naive,
                             "dense simd");
        {
          kernels::ScopedSimdTier scalar(kernels::SimdTier::kScalar);
          ExpectBitIdentical(RunDense(c, w, b, x, KernelMode::kSimd), naive,
                             "dense simd (scalar degrade)");
        }
      }
    }
  }
}

Tensor RunDenseInt8(const DenseCase& c, const QuantizedTensor& qw,
                    const Tensor& b, const Tensor& x, KernelMode mode) {
  ScopedKernelMode force(mode);
  runtime::Workspace scratch;
  std::vector<std::int8_t> qact;
  const float act_scale = approx::Int8QuantizeActivations(x, qact);
  Tensor out({c.n, c.f_out});
  kernels::Int8DenseForward(qw, b, qact.data(), act_scale, c.n, out, mode,
                            scratch);
  return out;
}

TEST(KernelEquivalence, DenseInt8BitIdenticalAcrossModes) {
  Rng rng(43);
  for (int threads : {1, 4}) {
    ScopedThreads pool(threads);
    for (const DenseCase& c : kDenseCases) {
      Tensor w = MakePrunedWeights({c.f_out, c.f_in}, rng);
      QuantizedTensor qw = QuantizedTensor::QuantizeRowwise(w);
      Tensor b = Tensor::Normal({c.f_out}, 0.0f, 0.1f, rng);
      for (float density : kDensities) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " n=" << c.n
                     << " f_in=" << c.f_in << " f_out=" << c.f_out
                     << " density=" << density);
        Tensor x = MakeSpikes({c.n, c.f_in}, density, rng);
        Tensor naive = RunDenseInt8(c, qw, b, x, KernelMode::kNaive);
        ExpectBitIdentical(RunDenseInt8(c, qw, b, x, KernelMode::kSparse),
                           naive, "int8 dense sparse");
        ExpectBitIdentical(RunDenseInt8(c, qw, b, x, KernelMode::kAuto),
                           naive, "int8 dense auto");
        for (kernels::SimdTier cap :
             {kernels::SimdTier::kVnni, kernels::SimdTier::kAvx2,
              kernels::SimdTier::kScalar}) {
          kernels::ScopedSimdTier scoped(cap);
          ExpectBitIdentical(RunDenseInt8(c, qw, b, x, KernelMode::kSimd),
                             naive, "int8 dense simd");
        }
      }
    }
  }
}

// --- special values ----------------------------------------------------------

/// Seeds a spike tensor with the values the exact paths must carry exactly
/// like naive: +inf (what flipping bit 30 of a 1.0f spike makes), NaN, and
/// −0 in place of some zeros.
Tensor WithSpecialValues(Tensor x, Rng& rng) {
  for (long i = 0; i < x.numel(); ++i) {
    const long r = static_cast<long>(rng.UniformInt(40));
    if (r == 0)
      x[i] = std::numeric_limits<float>::infinity();
    else if (r == 1)
      x[i] = std::numeric_limits<float>::quiet_NaN();
    else if (r < 10 && x[i] == 0.0f)
      x[i] = -0.0f;
  }
  return x;
}

/// Three bias/weight variants per layer: plain finite values; a −0 bias on
/// a row pruned to −0 weights (naive yields −0 there for +0 inputs) and on
/// a live row (naive adds w * ±0 terms to it); and one +inf weight. The
/// last two break ZeroTermsAreNoOps, so the dispatcher must fall back to
/// naive for them.
struct SpecialParams {
  Tensor w;
  Tensor b;
  const char* what;
};

std::vector<SpecialParams> MakeSpecialParams(const Shape& w_shape, long rows,
                                             Rng& rng) {
  Tensor w = MakePrunedWeights(w_shape, rng);
  const long row = w.numel() / rows;
  for (long i = 0; i < row; ++i) w[i] = -0.0f;  // row 0 fully pruned
  Tensor b = Tensor::Normal({rows}, 0.0f, 0.1f, rng);
  b[rows - 1] = 0.0f;  // +0 bias: a zero accumulator that must stay +0
  Tensor neg_b = b;
  neg_b[0] = -0.0f;
  neg_b[1] = -0.0f;
  Tensor inf_w = w;
  inf_w[row + 1] = std::numeric_limits<float>::infinity();
  return {{w, b, "finite"}, {w, neg_b, "-0 bias"}, {inf_w, b, "inf weight"}};
}

/// Tallies the special outputs a naive result holds, so the special-value
/// tests can show they compared more than ordinary numbers.
struct SpecialSeen {
  long nan = 0, inf = 0, neg_zero = 0;
  void Add(const Tensor& t) {
    for (float v : t.flat()) {
      nan += std::isnan(v) ? 1 : 0;
      inf += std::isinf(v) ? 1 : 0;
      neg_zero += (v == 0.0f && std::signbit(v)) ? 1 : 0;
    }
  }
  void ExpectAll() const {
    EXPECT_GT(nan, 0);
    EXPECT_GT(inf, 0);
    EXPECT_GT(neg_zero, 0);
  }
};

/// Every mode auto can select — sparse, simd, naive — and auto itself must
/// match naive bit for bit on special values, in both densities auto
/// splits on and at both pool sizes. A 7x7 plane (o_plane 49: one 32-pixel
/// block, then a masked tail whose last tile has one live pixel) and a
/// pad-2 border exercise the tile tails and the padded taps.
TEST(KernelEquivalence, Conv2dFp32SpecialValuesBitIdentical) {
  Rng rng(46);
  const ConvCase cases[] = {{3, 3, 5, 7, 7, 3, 1}, {2, 2, 3, 6, 5, 3, 2}};
  SpecialSeen seen;
  for (int threads : {1, 4}) {
    ScopedThreads pool(threads);
    for (const ConvCase& c : cases) {
      for (const SpecialParams& p :
           MakeSpecialParams({c.c_out, c.c_in, c.k, c.k}, c.c_out, rng)) {
        for (float density : {0.05f, 0.6f}) {
          SCOPED_TRACE(::testing::Message()
                       << "threads=" << threads << " h=" << c.h
                       << " w=" << c.w << " pad=" << c.pad << " params="
                       << p.what << " density=" << density);
          Tensor x = WithSpecialValues(
              MakeSpikes({c.n, c.c_in, c.h, c.w}, density, rng), rng);
          Tensor naive = RunConv(c, p.w, p.b, x, KernelMode::kNaive);
          seen.Add(naive);
          for (KernelMode mode :
               {KernelMode::kSparse, KernelMode::kSimd, KernelMode::kAuto})
            ExpectBitIdentical(RunConv(c, p.w, p.b, x, mode), naive,
                               kernels::KernelModeName(mode));
        }
      }
    }
  }
  seen.ExpectAll();
}

/// Dense sibling: an 11-sample batch leaves a 3-sample simd block tail,
/// and 10 outputs leave a 2-feature tail after one 8-wide block. Naive
/// dense skips nothing, so 0 * inf is NaN there and must be NaN in every
/// mode. Sample 0 is silent (all +0): with a −0 bias naive turns it +0
/// where skipping its zero terms would leave −0.
TEST(KernelEquivalence, DenseFp32SpecialValuesBitIdentical) {
  Rng rng(47);
  const DenseCase c{11, 37, 10};
  SpecialSeen seen;
  for (int threads : {1, 4}) {
    ScopedThreads pool(threads);
    for (const SpecialParams& p :
         MakeSpecialParams({c.f_out, c.f_in}, c.f_out, rng)) {
      for (float density : {0.05f, 0.6f}) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " params=" << p.what
                     << " density=" << density);
        Tensor x =
            WithSpecialValues(MakeSpikes({c.n, c.f_in}, density, rng), rng);
        for (long i = 0; i < c.f_in; ++i) x[i] = 0.0f;
        Tensor naive = RunDense(c, p.w, p.b, x, KernelMode::kNaive);
        seen.Add(naive);
        for (KernelMode mode :
             {KernelMode::kSparse, KernelMode::kSimd, KernelMode::kAuto})
          ExpectBitIdentical(RunDense(c, p.w, p.b, x, mode), naive,
                             kernels::KernelModeName(mode));
      }
    }
  }
  seen.ExpectAll();
}

// --- conv2d backward ---------------------------------------------------------

struct ConvGrads {
  Tensor grad_in, dweight, dbias;
};

/// Runs one forward and then one accumulating Conv2d::Backward per entry
/// of `grads`, with `mode` forced globally; returns the last input
/// gradient and the accumulated parameter gradients.
ConvGrads RunConvBackward(const ConvCase& c, const Tensor& w, const Tensor& x,
                          const std::vector<Tensor>& grads, KernelMode mode) {
  ScopedKernelMode force(mode);
  Rng init(0);
  snn::Conv2d conv("c", c.c_in, c.c_out, c.k, c.pad, init);
  conv.weight() = w;
  Tensor out;
  conv.ForwardInto(x, out, /*train=*/true);
  ConvGrads r;
  for (const Tensor& g : grads) r.grad_in = conv.Backward(g);
  r.dweight = *conv.Grads()[0];
  r.dbias = *conv.Grads()[1];
  return r;
}

/// An output gradient with the sign mix BPTT produces: normal values, a
/// quarter exact +0 and a quarter −0.
Tensor MakeGrad(Shape shape, Rng& rng) {
  Tensor g = Tensor::Normal(std::move(shape), 0.0f, 1.0f, rng);
  for (long i = 0; i < g.numel(); ++i) {
    const long r = static_cast<long>(rng.UniformInt(4));
    if (r == 0) g[i] = 0.0f;
    if (r == 1) g[i] = -0.0f;
  }
  return g;
}

/// The simd conv backward against the naive loops, bit for bit: grad_in,
/// and dweight / dbias accumulated over two Backward calls. The shapes
/// cover one input channel, C_out 8 / 12 / 24 (a whole lane tile, and
/// masked tails in both the weight-gradient tile, whose lanes are output
/// channels, and the input-gradient tile, whose lanes are pixels of 4x4,
/// 7x7 and 16x16 planes), K 3 and 5, pad 0 / 1 / 2. Weights are pruned
/// (±0 weights skipped), sample 0 is silent, and the gradients carry −0
/// and +0 (skipped zero gradients). The special variants — inf/NaN
/// activations, +inf or NaN in grad_out, one +inf weight — must reach the
/// same bits through the naive fallback.
TEST(KernelEquivalence, Conv2dBackwardBitIdentical) {
  Rng rng(48);
  const ConvCase cases[] = {
      {3, 1, 8, 16, 16, 3, 1},  {2, 2, 12, 7, 7, 5, 2},
      {2, 12, 24, 4, 4, 3, 0},  {3, 2, 24, 7, 7, 3, 1},
      {2, 12, 8, 16, 16, 5, 1}, {2, 1, 12, 7, 7, 5, 0},
      {2, 12, 12, 4, 4, 5, 2},
  };
  const char* const variants[] = {"finite", "inf/NaN x", "inf grad",
                                  "NaN grad", "inf weight"};
  for (int threads : {1, 4}) {
    ScopedThreads pool(threads);
    for (const ConvCase& c : cases) {
      const long h_out = c.h + 2 * c.pad - c.k + 1;
      const long w_out = c.w + 2 * c.pad - c.k + 1;
      for (const char* variant : variants) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " c_in=" << c.c_in
                     << " c_out=" << c.c_out << " h=" << c.h << " k=" << c.k
                     << " pad=" << c.pad << " variant=" << variant);
        const std::string v = variant;
        Tensor w = MakePrunedWeights({c.c_out, c.c_in, c.k, c.k}, rng);
        Tensor x = MakeSpikes({c.n, c.c_in, c.h, c.w}, 0.3f, rng);
        for (long i = 0; i < c.c_in * c.h * c.w; ++i) x[i] = 0.0f;
        if (v == "inf/NaN x") x = WithSpecialValues(std::move(x), rng);
        std::vector<Tensor> grads;
        for (int call = 0; call < 2; ++call)
          grads.push_back(MakeGrad({c.n, c.c_out, h_out, w_out}, rng));
        if (v == "inf grad")
          grads[1][grads[1].numel() / 2] =
              std::numeric_limits<float>::infinity();
        if (v == "NaN grad")
          grads[0][1] = std::numeric_limits<float>::quiet_NaN();
        if (v == "inf weight")
          w[w.numel() - 1] = std::numeric_limits<float>::infinity();

        const ConvGrads naive =
            RunConvBackward(c, w, x, grads, KernelMode::kNaive);
        std::vector<KernelMode> modes = {KernelMode::kAuto};
        if (SimdTierAvailable()) modes.push_back(KernelMode::kSimd);
        for (KernelMode mode : modes) {
          const ConvGrads got = RunConvBackward(c, w, x, grads, mode);
          ExpectBitIdentical(got.grad_in, naive.grad_in, "grad_in");
          ExpectBitIdentical(got.dweight, naive.dweight, "dweight");
          ExpectBitIdentical(got.dbias, naive.dbias, "dbias");
        }
      }
    }
  }
}

// --- dispatch unit tests -----------------------------------------------------

TEST(KernelDispatch, ModeNamesRoundTrip) {
  for (KernelMode m : {KernelMode::kAuto, KernelMode::kNaive,
                       KernelMode::kSparse, KernelMode::kSimd})
    EXPECT_EQ(kernels::ParseKernelMode(kernels::KernelModeName(m)), m);
  EXPECT_FALSE(kernels::ParseKernelMode("fast").has_value());
  EXPECT_FALSE(kernels::ParseKernelMode("gemm").has_value());  // removed
  EXPECT_FALSE(kernels::ParseKernelMode("").has_value());
}

TEST(KernelDispatch, EnvModeRejectsUnknownValues) {
  const char* saved = std::getenv("AXSNN_KERNEL_MODE");
  const std::string saved_value = saved ? saved : "";

  for (const char* bad : {"gemm", "fast", "SIMD", ""}) {
    ::setenv("AXSNN_KERNEL_MODE", bad, 1);
    try {
      kernels::KernelModeFromEnv();
      ADD_FAILURE() << "AXSNN_KERNEL_MODE=\"" << bad << "\" was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("\"") + bad + "\""),
                std::string::npos)
          << "error does not name the value: " << e.what();
    }
  }
  ::setenv("AXSNN_KERNEL_MODE", "sparse", 1);
  EXPECT_EQ(kernels::KernelModeFromEnv(), KernelMode::kSparse);
  ::unsetenv("AXSNN_KERNEL_MODE");
  EXPECT_EQ(kernels::KernelModeFromEnv(), KernelMode::kAuto);

  if (saved) ::setenv("AXSNN_KERNEL_MODE", saved_value.c_str(), 1);
}

TEST(KernelDispatch, DensityCountsNonzerosExactly) {
  const float x[] = {0.0f, 1.0f, 0.0f, -2.0f};
  EXPECT_FLOAT_EQ(kernels::Density(x, 4), 0.5f);
  EXPECT_FLOAT_EQ(kernels::Density(x, 0), 0.0f);
  const std::int8_t q[] = {0, 0, 0, 5};
  EXPECT_FLOAT_EQ(kernels::Density(q, 4), 0.25f);
}

TEST(KernelDispatch, ChooseByDensityProbesOnlyAuto) {
  using kernels::ChooseByDensity;
  const float max = kernels::kConvSparseDensityMax;
  EXPECT_EQ(ChooseByDensity(KernelMode::kAuto, max, max),
            KernelMode::kSparse);  // at the threshold: sparse
  EXPECT_EQ(ChooseByDensity(KernelMode::kAuto, 0.0f, max),
            KernelMode::kSparse);
  // Above it: the dense fallback, simd exactly when the ISA tier is active.
  EXPECT_EQ(ChooseByDensity(KernelMode::kAuto, max + 0.01f, max),
            SimdTierAvailable() ? KernelMode::kSimd : KernelMode::kNaive);
  {
    kernels::ScopedSimdTier scalar(kernels::SimdTier::kScalar);
    EXPECT_EQ(ChooseByDensity(KernelMode::kAuto, max + 0.01f, max),
              KernelMode::kNaive);
  }
  // Pinned modes pass through regardless of density.
  EXPECT_EQ(ChooseByDensity(KernelMode::kNaive, 0.0f, max),
            KernelMode::kNaive);
  EXPECT_EQ(ChooseByDensity(KernelMode::kSimd, 0.0f, max), KernelMode::kSimd);
}

TEST(KernelDispatch, GlobalModeOverridesRequested) {
  {
    ScopedKernelMode force(KernelMode::kSimd);
    EXPECT_EQ(kernels::ResolveKernelMode(KernelMode::kSparse),
              KernelMode::kSimd);
    EXPECT_EQ(kernels::ResolveKernelMode(KernelMode::kAuto),
              KernelMode::kSimd);
  }
  ScopedKernelMode neutral(KernelMode::kAuto);
  EXPECT_EQ(kernels::ResolveKernelMode(KernelMode::kSparse),
            KernelMode::kSparse);
  EXPECT_EQ(kernels::ResolveKernelMode(KernelMode::kAuto), KernelMode::kAuto);
}

TEST(KernelDispatch, ApproxConfigKnobReachesLayers) {
  // ApplyApproximation plumbs cfg.kernel_mode to every weight layer, and the
  // resulting networks produce identical logits in every mode.
  ScopedKernelMode neutral(KernelMode::kAuto);
  snn::StaticNetOptions opts;
  opts.height = 16;
  opts.width = 16;
  opts.conv1_channels = 4;
  opts.conv2_channels = 8;
  opts.conv3_channels = 8;
  opts.hidden = 32;
  snn::Network net = snn::BuildStaticNet(opts);
  Rng rng(44);
  Tensor input = Tensor::Uniform({4, 2, 1, 16, 16}, 0.0f, 1.0f, rng);
  approx::CalibrationStats stats = approx::Calibrate(net, input);

  std::vector<Tensor> outs;
  for (KernelMode mode : {KernelMode::kNaive, KernelMode::kSparse,
                          KernelMode::kSimd, KernelMode::kAuto}) {
    approx::ApproxConfig cfg;
    cfg.precision = approx::Precision::kInt8;
    cfg.level = 0.01;
    cfg.kernel_mode = mode;
    auto [ax, report] = approx::MakeApproximate(net, cfg, stats);
    (void)report;
    outs.push_back(ax.Forward(input, false));
  }
  for (std::size_t i = 1; i < outs.size(); ++i)
    ExpectBitIdentical(outs[i], outs[0], "ApproxConfig kernel_mode logits");
}

TEST(KernelDispatch, LayerKnobDefaultsToAutoAndSticks) {
  Rng rng(45);
  snn::Dense fc("fc", 4, 2, rng);
  EXPECT_EQ(fc.kernel_mode(), KernelMode::kAuto);
  fc.set_kernel_mode(KernelMode::kSparse);
  EXPECT_EQ(fc.kernel_mode(), KernelMode::kSparse);
}

// --- golden determinism: fig2-style mini sweep -------------------------------

TEST(GoldenDeterminism, SweepReportByteIdenticalAcrossModesAndPools) {
  // A miniature Fig.-2 sweep (train -> craft PGD -> evaluate variants) whose
  // rendered report must be byte-identical for every kernel mode x pool
  // size, so an Algorithm-1 search outcome can never depend on the dispatch
  // decision or the thread count.
  core::StaticWorkbench::Options opts;
  opts.net.lif.v_threshold = 0.25f;
  opts.train.epochs = 2;
  opts.train.batch_size = 32;
  opts.train_time_steps_cap = 6;
  opts.attack_time_steps_cap = 6;
  opts.attack_steps = 3;
  opts.eval_batch = 64;

  data::SyntheticMnistOptions d;
  d.count = 192;
  d.seed = 51;
  data::StaticDataset train = data::MakeSyntheticMnist(d);
  d.count = 48;
  d.seed = 52;
  data::StaticDataset test = data::MakeSyntheticMnist(d);
  core::StaticWorkbench bench(std::move(train), std::move(test), opts);

  auto model = bench.Train(0.25f, 8);
  Tensor adversarial = bench.Craft(model, core::AttackKind::kPgd, 0.1f);
  const std::vector<core::VariantSpec> specs = {
      {approx::Precision::kFp32, 0.0},
      {approx::Precision::kFp32, 0.01},
      {approx::Precision::kInt8, 0.01},
  };

  std::string golden;
  for (KernelMode mode : {KernelMode::kNaive, KernelMode::kSparse,
                          KernelMode::kSimd, KernelMode::kAuto}) {
    for (int threads : {1, 4}) {
      ScopedThreads pool(threads);
      ScopedKernelMode force(mode);
      const std::vector<float> robustness =
          bench.EvaluateVariants(model, adversarial, specs);
      ASSERT_EQ(robustness.size(), specs.size());

      std::vector<eval::Series> series;
      for (std::size_t i = 0; i < specs.size(); ++i)
        series.push_back({"variant" + std::to_string(i),
                          {static_cast<double>(robustness[i])}});
      std::ostringstream os;
      eval::PrintSeriesTable(os, "golden mini sweep", "eps", {0.1}, series);

      if (golden.empty()) {
        golden = os.str();
      } else {
        EXPECT_EQ(golden, os.str())
            << "report changed under kernel mode "
            << kernels::KernelModeName(mode) << ", pool size " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace axsnn
