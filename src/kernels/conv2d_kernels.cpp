#include "kernels/conv2d_kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>

#include "kernels/cpu_features.hpp"
#include "kernels/simd_kernels.hpp"
#include "kernels/spike_words.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/check.hpp"

namespace axsnn::kernels {

namespace {

/// Derived sizes shared by every implementation.
struct Dims {
  long n = 0;      // flattened [T, B] prefix
  long c_in = 0;
  long h = 0;
  long w = 0;
  long c_out = 0;
  long kernel = 0;
  long pad = 0;
  long h_out = 0;
  long w_out = 0;
  long x_plane = 0;
  long x_sample = 0;
  long o_plane = 0;
  long o_sample = 0;
  long w_per_out = 0;  // im2col K axis: c_in * kernel * kernel
};

Dims MakeDims(long n, long h, long w, const Conv2dGeom& geom) {
  Dims d;
  d.c_in = geom.in_channels;
  d.h = h;
  d.w = w;
  d.n = n;
  d.c_out = geom.out_channels;
  d.kernel = geom.kernel;
  d.pad = geom.pad;
  d.h_out = d.h + 2 * d.pad - d.kernel + 1;
  d.w_out = d.w + 2 * d.pad - d.kernel + 1;
  d.x_plane = d.h * d.w;
  d.x_sample = d.c_in * d.x_plane;
  d.o_plane = d.h_out * d.w_out;
  d.o_sample = d.c_out * d.o_plane;
  d.w_per_out = d.c_in * d.kernel * d.kernel;
  AXSNN_CHECK(d.h_out > 0 && d.w_out > 0, "Conv2d kernel: empty output");
  return d;
}

/// Shape-tensor entry point: validates the trailing [C, H, W] dims against
/// the geometry, then delegates. The int8 dispatcher bypasses this (it is
/// handed bare extents — building a Shape would allocate on the hot path).
Dims MakeDims(long numel, const Shape& shape, const Conv2dGeom& geom) {
  const std::size_t r = shape.size();
  AXSNN_CHECK(r >= 3 && shape[r - 3] == geom.in_channels,
              "Conv2d kernel: channel mismatch");
  const long h = shape[r - 2];
  const long w = shape[r - 1];
  return MakeDims(numel / (geom.in_channels * h * w), h, w, geom);
}

// --- naive fp32 (reference; the seed repo's loops, retained verbatim) --------

/// Row-accumulation layout: the inner loop over ox is contiguous in both
/// input and output, so it auto-vectorizes. Border handling is hoisted into
/// the per-(ky, kx) column bounds. Parallelism runs over the flattened
/// (sample, out-channel) grid; each iteration owns one disjoint out plane.
void Conv2dNaive(const float* xd, const float* wd, const float* bd, float* od,
                 const Dims& d) {
  runtime::ParallelFor(0, d.n * d.c_out, [&](long idx) {
    const long s = idx / d.c_out;
    const long co = idx % d.c_out;
    const float* xs = xd + s * d.x_sample;
    const float* wf = wd + co * d.w_per_out;
    float* op = od + s * d.o_sample + co * d.o_plane;
    const float b = bd[co];
    for (long i = 0; i < d.o_plane; ++i) op[i] = b;
    for (long ci = 0; ci < d.c_in; ++ci) {
      const float* xp = xs + ci * d.x_plane;
      const float* wp = wf + ci * d.kernel * d.kernel;
      for (long ky = 0; ky < d.kernel; ++ky) {
        for (long kx = 0; kx < d.kernel; ++kx) {
          const float wv = wp[ky * d.kernel + kx];
          if (wv == 0.0f) continue;  // pruned connection: no work
          const long ox_lo = std::max(0L, d.pad - kx);
          const long ox_hi = std::min(d.w_out, d.w + d.pad - kx);
          for (long oy = 0; oy < d.h_out; ++oy) {
            const long iy = oy + ky - d.pad;
            if (iy < 0 || iy >= d.h) continue;
            const float* xrow = xp + iy * d.w + (kx - d.pad);
            float* orow = op + oy * d.w_out;
            for (long ox = ox_lo; ox < ox_hi; ++ox) orow[ox] += wv * xrow[ox];
          }
        }
      }
    }
  });
}

// --- im2col pack for the fp32 simd tiles ------------------------------------

/// Most im2col matrices one fp32 simd call keeps: each chunk rebuilds its
/// matrix per sample, so capping the chunk count bounds the scratch (a
/// default-grained loop would hold up to runtime::kMaxChunks of them per
/// layer — measurably more peak RSS for no speed on 4 cores). The cap also
/// caps parallelism: this loop never uses more than 4 pool workers, a cost
/// not measured on machines with more than 4 cores.
constexpr long kMaxConvPacks = 4;

/// Writes one sample's im2col matrix: col[k][o] with k walking (ci, ky, kx)
/// in the naive loop order and o = oy * w_out + ox. Padding / out-of-range
/// positions pack as +0, whose terms are exact no-ops under
/// ZeroTermsAreNoOps (kernels/dispatch.hpp).
void PackIm2col(const float* xs, float* col, const Dims& d) {
  long k = 0;
  for (long ci = 0; ci < d.c_in; ++ci) {
    const float* xp = xs + ci * d.x_plane;
    for (long ky = 0; ky < d.kernel; ++ky) {
      for (long kx = 0; kx < d.kernel; ++kx, ++k) {
        float* crow = col + k * d.o_plane;
        const long ox_lo = std::max(0L, d.pad - kx);
        const long ox_hi = std::min(d.w_out, d.w + d.pad - kx);
        const long x_off = kx - d.pad;
        for (long oy = 0; oy < d.h_out; ++oy) {
          const long iy = oy + ky - d.pad;
          float* dst = crow + oy * d.w_out;
          if (iy < 0 || iy >= d.h) {
            for (long ox = 0; ox < d.w_out; ++ox) dst[ox] = 0.0f;
            continue;
          }
          const float* xrow = xp + iy * d.w;
          for (long ox = 0; ox < ox_lo; ++ox) dst[ox] = 0.0f;
          for (long ox = ox_lo; ox < ox_hi; ++ox) dst[ox] = xrow[ox + x_off];
          for (long ox = ox_hi; ox < d.w_out; ++ox) dst[ox] = 0.0f;
        }
      }
    }
  }
}

// --- sparse-spike gather/scatter ---------------------------------------------

/// Gathers one sample's nonzeros from its bit-packed spike words
/// (spike_words.hpp): coordinates in rows/cols, values in vals, per-plane
/// boundaries in offs[0..c_in]. Returns the count. The ctz scan visits set
/// bits in ascending flat-index (row-major) order — exactly the old scalar
/// scan's order — so the scatter's per-output-element term order stays
/// equal to the naive (ci, ky, kx) order (header contract). An all-zero
/// 64-activation span now costs one 8-byte compare instead of 64 loads.
template <typename T>
long GatherNonzerosWords(const T* xs, const std::uint64_t* words,
                         const Dims& d, std::int32_t* offs,
                         std::int32_t* rows, std::int32_t* cols, T* vals) {
  long m = 0;
  long done = 0;  // planes whose end offset is already recorded
  offs[0] = 0;
  ForEachSetBit(words, SpikeWordCount(d.x_sample), [&](long i) {
    const long ci = i / d.x_plane;
    while (done < ci) {
      offs[done + 1] = static_cast<std::int32_t>(m);
      ++done;
    }
    const long rem = i - ci * d.x_plane;
    const long iy = rem / d.w;
    rows[m] = static_cast<std::int32_t>(iy);
    cols[m] = static_cast<std::int32_t>(rem - iy * d.w);
    vals[m] = xs[i];
    ++m;
  });
  while (done < d.c_in) {
    offs[done + 1] = static_cast<std::int32_t>(m);
    ++done;
  }
  return m;
}

/// Scatters one sample's nonzeros through one output channel's weight
/// block into `op` (already bias-initialized, o_plane floats). The (ky, kx)
/// bounds clamp the scatter to in-range output pixels, so no out-of-range
/// pointer is ever formed. Pruned (zero) weights are not skipped: for a
/// finite value their term is a ±0 no-op (ZeroTermsAreNoOps), and the
/// dispatcher runs naive for inputs holding inf/NaN, where 0 * inf is NaN.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
void ScatterChannelF32(const float* __restrict wf,
                       const std::int32_t* __restrict offs,
                       const std::int32_t* __restrict rows,
                       const std::int32_t* __restrict cols,
                       const float* __restrict vals, float* __restrict op,
                       const Dims& d) {
  for (long ci = 0; ci < d.c_in; ++ci) {
    const float* wp = wf + ci * d.kernel * d.kernel;
    for (long j = offs[ci]; j < offs[ci + 1]; ++j) {
      const long iy = rows[j];
      const long ix = cols[j];
      const float v = vals[j];
      const long ky_lo = std::max(0L, iy + d.pad - d.h_out + 1);
      const long ky_hi = std::min(d.kernel - 1, iy + d.pad);
      const long kx_lo = std::max(0L, ix + d.pad - d.w_out + 1);
      const long kx_hi = std::min(d.kernel - 1, ix + d.pad);
      for (long ky = ky_lo; ky <= ky_hi; ++ky) {
        float* orow = op + (iy + d.pad - ky) * d.w_out;
        const float* wrow = wp + ky * d.kernel;
        const long obase = ix + d.pad;
        for (long kx = kx_lo; kx <= kx_hi; ++kx)
          orow[obase - kx] += wrow[kx] * v;
      }
    }
  }
}

/// Int32 sibling of ScatterChannelF32, accumulating into an int32 plane.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
void ScatterChannelI32(const std::int8_t* __restrict wf,
                       const std::int32_t* __restrict offs,
                       const std::int32_t* __restrict rows,
                       const std::int32_t* __restrict cols,
                       const std::int32_t* __restrict vals,
                       std::int32_t* __restrict ap, const Dims& d) {
  for (long ci = 0; ci < d.c_in; ++ci) {
    const std::int8_t* wp = wf + ci * d.kernel * d.kernel;
    for (long j = offs[ci]; j < offs[ci + 1]; ++j) {
      const long iy = rows[j];
      const long ix = cols[j];
      const std::int32_t v = vals[j];
      const long ky_lo = std::max(0L, iy + d.pad - d.h_out + 1);
      const long ky_hi = std::min(d.kernel - 1, iy + d.pad);
      const long kx_lo = std::max(0L, ix + d.pad - d.w_out + 1);
      const long kx_hi = std::min(d.kernel - 1, ix + d.pad);
      for (long ky = ky_lo; ky <= ky_hi; ++ky) {
        std::int32_t* arow = ap + (iy + d.pad - ky) * d.w_out;
        const std::int8_t* wrow = wp + ky * d.kernel;
        const long obase = ix + d.pad;
        for (long kx = kx_lo; kx <= kx_hi; ++kx)
          arow[obase - kx] += static_cast<std::int32_t>(wrow[kx]) * v;
      }
    }
  }
}

// --- naive int8 (reference; moved verbatim from approx/int8_backend.cpp) -----

/// Raw-argument core of the int8 convolution: one (sample, out-channel)
/// output plane per `idx` in [idx_lo, idx_hi), accumulated in `plane` — a
/// single h_out*w_out int32 buffer owned by this chunk and reused across
/// its planes (only one plane is live at a time). The noinline raw-pointer
/// boundary and the __restrict qualifiers both matter: inlined into the
/// pool lambda (where every pointer derives from Tensor/vector members)
/// GCC 12 stops hoisting across the plane loops, and without __restrict it
/// guards the vectorized MAC loop with per-row overlap checks whose cost
/// rivals the 4-lane SSE body at these row lengths. Together they are worth
/// ~25% kernel throughput at -O3 without -march.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
void Conv2dPlanes(long idx_lo, long idx_hi,
                  const std::int32_t* __restrict xd,
                  const std::int8_t* __restrict wd,
                  const float* __restrict scales,
                  const float* __restrict bd, float act_scale,
                  std::int32_t* __restrict plane, float* __restrict od,
                  long c_in, long h, long w, long co_n,
                  long kernel, long pad) {
  const long h_out = h + 2 * pad - kernel + 1;
  const long w_out = w + 2 * pad - kernel + 1;
  const long x_plane = h * w;
  const long x_sample = c_in * x_plane;
  const long o_plane = h_out * w_out;
  const long o_sample = co_n * o_plane;
  const long w_per_out = c_in * kernel * kernel;
  for (long idx = idx_lo; idx < idx_hi; ++idx) {
    const long s = idx / co_n;
    const long co = idx % co_n;
    const std::int32_t* xs = xd + s * x_sample;
    const std::int8_t* wf = wd + co * w_per_out;
    std::int32_t* ap = plane;
    for (long i = 0; i < o_plane; ++i) ap[i] = 0;
    for (long ci = 0; ci < c_in; ++ci) {
      const std::int32_t* xp = xs + ci * x_plane;
      const std::int8_t* wp = wf + ci * kernel * kernel;
      for (long ky = 0; ky < kernel; ++ky) {
        for (long kx = 0; kx < kernel; ++kx) {
          const std::int32_t wv = wp[ky * kernel + kx];
          if (wv == 0) continue;  // pruned connection: no work
          const long ox_lo = std::max(0L, pad - kx);
          const long ox_hi = std::min(w_out, w + pad - kx);
          // Index as xrow[ox + kx - pad] instead of pre-offsetting xrow:
          // ox >= ox_lo keeps the index non-negative, and a pre-start
          // pointer must not even be formed ([expr.add]).
          const long x_off = kx - pad;
          for (long oy = 0; oy < h_out; ++oy) {
            const long iy = oy + ky - pad;
            if (iy < 0 || iy >= h) continue;
            const std::int32_t* xrow = xp + iy * w;
            std::int32_t* arow = ap + oy * w_out;
            for (long ox = ox_lo; ox < ox_hi; ++ox)
              arow[ox] += wv * xrow[ox + x_off];
          }
        }
      }
    }
    // Requantize: accumulator counts are exact, the output lives at
    // act_scale * weight_scale[co]; bias stays float.
    const float requant = act_scale * scales[co];
    const float b = bd[co];
    float* op = od + s * o_sample + co * o_plane;
    for (long i = 0; i < o_plane; ++i)
      op[i] = static_cast<float>(ap[i]) * requant + b;
  }
}

// --- fp32 backward -----------------------------------------------------------

/// Bias gradient, shared by both backward paths: one double sum per output
/// channel over samples, then pixels, in ascending order. Returns whether
/// every grad_out value is finite — a double sum of floats cannot
/// overflow, so it is finite exactly when all of its terms are.
bool BiasGradF32(const float* gd, float* gbd, const Dims& d) {
  std::atomic<bool> finite{true};
  runtime::ParallelFor(0, d.c_out, [&](long co) {
    double gb = 0.0;
    for (long s = 0; s < d.n; ++s) {
      const float* gp = gd + s * d.o_sample + co * d.o_plane;
      for (long i = 0; i < d.o_plane; ++i) gb += gp[i];
    }
    if (!std::isfinite(gb)) finite = false;
    gbd[co] += static_cast<float>(gb);
  });
  return finite;
}

/// True when every one of x's n values is finite (chunked over the pool).
bool AllFinite(const float* x, long n) {
  std::atomic<bool> finite{true};
  runtime::ParallelForChunks(0, n, [&](long, long lo, long hi) {
    bool ok = true;
    for (long i = lo; i < hi; ++i)
      ok &= std::fabs(x[i]) <= std::numeric_limits<float>::max();
    if (!ok) finite = false;
  });
  return finite;
}

/// Reference weight gradient (the seed repo's loop, retained verbatim apart
/// from the bias sum): parallel over output channels so each iteration
/// owns a disjoint slice of dweight (no atomics needed). The inner loop
/// over ox is a contiguous dot product between a gradient row and a
/// shifted input row.
void WeightGradNaive(const float* xd, const float* gd, float* gwd,
                     const Dims& d) {
  runtime::ParallelFor(0, d.c_out, [&](long co) {
    float* gw = gwd + co * d.w_per_out;
    for (long s = 0; s < d.n; ++s) {
      const float* xs = xd + s * d.x_sample;
      const float* gp = gd + s * d.o_sample + co * d.o_plane;
      for (long ci = 0; ci < d.c_in; ++ci) {
        const float* xp = xs + ci * d.x_plane;
        float* gwp = gw + ci * d.kernel * d.kernel;
        for (long ky = 0; ky < d.kernel; ++ky) {
          for (long kx = 0; kx < d.kernel; ++kx) {
            const long ox_lo = std::max(0L, d.pad - kx);
            const long ox_hi = std::min(d.w_out, d.w + d.pad - kx);
            float acc = 0.0f;
            for (long oy = 0; oy < d.h_out; ++oy) {
              const long iy = oy + ky - d.pad;
              if (iy < 0 || iy >= d.h) continue;
              const float* xrow = xp + iy * d.w + (kx - d.pad);
              const float* grow = gp + oy * d.w_out;
              for (long ox = ox_lo; ox < ox_hi; ++ox)
                acc += grow[ox] * xrow[ox];
            }
            gwp[ky * d.kernel + kx] += acc;
          }
        }
      }
    }
  });
}

/// Reference input gradient (the seed repo's loop, retained verbatim):
/// parallel over samples (disjoint grad_in slices); contiguous saxpy over
/// ox per (co, ci, ky, kx, oy). `gid` must hold zeros.
void InputGradNaive(const float* wd, const float* gd, float* gid,
                    const Dims& d) {
  runtime::ParallelFor(0, d.n, [&](long s) {
    const float* gs = gd + s * d.o_sample;
    float* gi = gid + s * d.x_sample;
    for (long co = 0; co < d.c_out; ++co) {
      const float* wf = wd + co * d.w_per_out;
      const float* gp = gs + co * d.o_plane;
      for (long ci = 0; ci < d.c_in; ++ci) {
        float* gip = gi + ci * d.x_plane;
        const float* wp = wf + ci * d.kernel * d.kernel;
        for (long ky = 0; ky < d.kernel; ++ky) {
          for (long kx = 0; kx < d.kernel; ++kx) {
            const float wv = wp[ky * d.kernel + kx];
            if (wv == 0.0f) continue;
            const long ox_lo = std::max(0L, d.pad - kx);
            const long ox_hi = std::min(d.w_out, d.w + d.pad - kx);
            for (long oy = 0; oy < d.h_out; ++oy) {
              const long iy = oy + ky - d.pad;
              if (iy < 0 || iy >= d.h) continue;
              float* grow_in = gip + iy * d.w + (kx - d.pad);
              const float* grow = gp + oy * d.w_out;
              for (long ox = ox_lo; ox < ox_hi; ++ox)
                grow_in[ox] += wv * grow[ox];
            }
          }
        }
      }
    }
  });
}

/// Copies one short row; a plain loop beats a library call per row at the
/// 4-64 float rows the backward packs copy.
inline void CopyRow(const float* src, long n, float* dst) {
  for (long i = 0; i < n; ++i) dst[i] = src[i];
}

/// Writes the output-gradient pack of grad_in rows [iy_lo, iy_hi) for the
/// input-gradient tile: row (co, ky, kx) in the naive loop order, column
/// (iy - iy_lo) * w + ix holding g[co][iy + pad - ky][ix + pad - kx], or +0
/// outside the output plane. `frame` holds each channel's gradient plane
/// inside a +0 border ((h + K - 1) x (w + K - 1) per channel), so every
/// pack row is a window of it: one contiguous copy per (row, iy).
void PackGradRows(const float* frame, float* pack, const Dims& d, long iy_lo,
                  long iy_hi) {
  const long fh = d.h + d.kernel - 1;
  const long fw = d.w + d.kernel - 1;
  const long band = (iy_hi - iy_lo) * d.w;
  float* prow = pack;
  for (long co = 0; co < d.c_out; ++co) {
    for (long ky = 0; ky < d.kernel; ++ky) {
      for (long kx = 0; kx < d.kernel; ++kx, prow += band) {
        const float* src =
            frame + (co * fh + d.kernel - 1 - ky) * fw + d.kernel - 1 - kx;
        for (long iy = iy_lo; iy < iy_hi; ++iy)
          CopyRow(src + iy * fw, d.w, prow + (iy - iy_lo) * d.w);
      }
    }
  }
}

/// grad_in rows one input-gradient tile call covers: bands of about this
/// many pixels (two 32-pixel tile blocks) keep the pack, C_out * K * K rows
/// of one band, cache-sized and independent of the plane size — it is held
/// per chunk by every layer that ran a backward.
constexpr long kGradBandPixels = 64;

/// Input gradient of samples [lo, hi) through simd::ConvGemmF32: per
/// sample and band of grad_in rows, W^T [ci][(co, ky, kx)] (`wt`) times the
/// PackGradRows pack, each lane one grad_in element summing (co, ky, kx) in
/// the naive order from +0, pruned weights skipped. `buf` holds the chunk's
/// grad_out frame, pack and output band (InputChunkLen floats).
void InputGradChunk(const float* wt, const float* zeros, const float* gd,
                    float* gid, float* buf, long lo, long hi, const Dims& d) {
  const long kk = d.c_out * d.kernel * d.kernel;
  const long fh = d.h + d.kernel - 1;
  const long fw = d.w + d.kernel - 1;
  const long edge = d.kernel - 1 - d.pad;  // frame border above / left of g
  const long band_rows = std::clamp(kGradBandPixels / d.w, 1L, d.h);
  float* frame = buf;
  float* pack = frame + d.c_out * fh * fw;
  float* out = pack + kk * band_rows * d.w;
  std::fill(frame, pack, 0.0f);
  for (long s = lo; s < hi; ++s) {
    const float* gs = gd + s * d.o_sample;
    for (long co = 0; co < d.c_out; ++co)
      for (long oy = 0; oy < d.h_out; ++oy)
        CopyRow(gs + co * d.o_plane + oy * d.w_out, d.w_out,
                frame + (co * fh + edge + oy) * fw + edge);
    float* gi = gid + s * d.x_sample;
    for (long iy = 0; iy < d.h; iy += band_rows) {
      const long iy_hi = std::min(d.h, iy + band_rows);
      const long pixels = (iy_hi - iy) * d.w;
      PackGradRows(frame, pack, d, iy, iy_hi);
      simd::ConvGemmF32(wt, zeros, pack, out, d.c_in, kk, pixels);
      for (long ci = 0; ci < d.c_in; ++ci)
        CopyRow(out + ci * pixels, pixels, gi + ci * d.x_plane + iy * d.w);
    }
  }
}

/// Floats InputGradChunk's `buf` holds.
long InputChunkLen(const Dims& d) {
  const long band = std::clamp(kGradBandPixels / d.w, 1L, d.h) * d.w;
  return d.c_out * (d.h + d.kernel - 1) * (d.w + d.kernel - 1) +
         (d.c_out * d.kernel * d.kernel + d.c_in) * band;
}

/// Writes im2col columns [k_lo, k_hi) of one sample transposed:
/// xt[o][k - k_lo] = x[ci][oy + ky - pad][ox + kx - pad] for o = oy * w_out
/// + ox and k = (ci, ky, kx), or +0 at padded taps. `frame` holds the
/// planes of the block's input channels inside a +0 border of `pad`
/// ((h + 2 pad) x (w + 2 pad) per channel, the border already zeroed);
/// `taps_off[j]` is column k_lo + j's offset into it at o = 0.
void PackIm2colT(const float* xs, float* frame, float* xt,
                 const std::int32_t* taps_off, const Dims& d, long k_lo,
                 long k_hi) {
  const long taps = d.kernel * d.kernel;
  const long ci_lo = k_lo / taps;
  const long ci_hi = (k_hi - 1) / taps + 1;
  const long fh = d.h + 2 * d.pad;
  const long fw = d.w + 2 * d.pad;
  for (long ci = ci_lo; ci < ci_hi; ++ci)
    for (long iy = 0; iy < d.h; ++iy)
      CopyRow(xs + ci * d.x_plane + iy * d.w, d.w,
              frame + ((ci - ci_lo) * fh + d.pad + iy) * fw + d.pad);
  const long lanes = k_hi - k_lo;
  float* dst = xt;
  for (long oy = 0; oy < d.h_out; ++oy) {
    for (long ox = 0; ox < d.w_out; ++ox, dst += lanes) {
      const float* src = frame + oy * fw + ox;
      for (long j = 0; j < lanes; ++j) dst[j] = src[taps_off[j]];
    }
  }
}

/// Weight gradient of im2col columns [k_lo, k_hi) through
/// simd::ConvGemmF32: per sample, grad_out [co][p] times the transposed
/// im2col [p][k], each lane one dweight element's per-sample sum over p in
/// the naive (oy, ox) order from +0, zero gradients skipped; the partials
/// are added into dweight in ascending sample order. `buf` holds the
/// block's input frame, transposed columns and partials (WeightBlockLen
/// floats), `taps_off` its columns' frame offsets.
void WeightGradBlock(const float* xd, const float* gd, const float* zeros,
                     float* gwd, float* buf, std::int32_t* taps_off,
                     long k_lo, long k_hi, const Dims& d) {
  const long taps = d.kernel * d.kernel;
  const long ci_lo = k_lo / taps;
  const long fh = d.h + 2 * d.pad;
  const long fw = d.w + 2 * d.pad;
  const long frame_len = ((k_hi - 1) / taps + 1 - ci_lo) * fh * fw;
  const long lanes = k_hi - k_lo;
  float* frame = buf;
  float* xt = frame + frame_len;
  float* part = xt + d.o_plane * lanes;
  std::fill(frame, xt, 0.0f);
  for (long k = k_lo; k < k_hi; ++k) {
    const long ci = k / taps - ci_lo;
    const long ky = k % taps / d.kernel;
    const long kx = k % d.kernel;
    taps_off[k - k_lo] = static_cast<std::int32_t>((ci * fh + ky) * fw + kx);
  }
  for (long s = 0; s < d.n; ++s) {
    PackIm2colT(xd + s * d.x_sample, frame, xt, taps_off, d, k_lo, k_hi);
    simd::ConvGemmF32(gd + s * d.o_sample, zeros, xt, part, d.c_out,
                      d.o_plane, lanes);
    for (long co = 0; co < d.c_out; ++co)
      for (long j = 0; j < lanes; ++j)
        gwd[co * d.w_per_out + k_lo + j] += part[co * lanes + j];
  }
}

/// Floats WeightGradBlock's `buf` holds for blocks of up to `lanes` columns.
long WeightBlockLen(const Dims& d, long lanes) {
  const long taps = d.kernel * d.kernel;
  // Input channels `lanes` consecutive columns can touch.
  const long channels = std::min(d.c_in, (lanes + 2 * taps - 2) / taps);
  return channels * (d.h + 2 * d.pad) * (d.w + 2 * d.pad) +
         (d.o_plane + d.c_out) * lanes;
}

/// simd backward (header contract). The input gradient is split over at
/// most kMaxConvPacks sample chunks; the weight gradient over at most
/// kMaxConvPacks blocks of im2col columns, each owning those dweight
/// columns and walking the samples in ascending order, so the split changes
/// no add. Blocks are whole 32-lane tile groups: the tile walks grad_out
/// once per group of up to 32 lanes, so narrower blocks would add passes.
/// Both sides write disjoint outputs and run as one task list, weight
/// blocks first — they are fewer and longer, so a pool starts them early
/// and fills in with sample chunks.
void Conv2dBackwardSimd(const float* xd, const float* wd, const float* gd,
                        float* gid, float* gwd, const Dims& d,
                        runtime::Workspace& scratch) {
  const long taps = d.kernel * d.kernel;
  const long kk = d.c_out * taps;
  const long n_grain = (d.n + kMaxConvPacks - 1) / kMaxConvPacks;
  const long in_chunks = runtime::NumChunks(d.n, n_grain);
  const long in_len = InputChunkLen(d);
  const long k_grain =
      ((d.w_per_out + kMaxConvPacks - 1) / kMaxConvPacks + 31) & ~31L;
  const long w_blocks = runtime::NumChunks(d.w_per_out, k_grain);
  const long w_len = WeightBlockLen(d, k_grain);

  // W^T [ci][(co, ky, kx)], a +0 bias row for both tiles, the chunk buffers.
  const long zeros_len = std::max(d.c_in, d.c_out);
  float* wt = scratch
                  .Acquire(slots::kBackInPack, d.c_in * kk + zeros_len +
                                                   in_chunks * in_len)
                  .data();
  float* zeros = wt + d.c_in * kk;
  float* in_bufs = zeros + zeros_len;
  for (long co = 0; co < d.c_out; ++co)
    for (long ci = 0; ci < d.c_in; ++ci)
      std::copy_n(wd + co * d.w_per_out + ci * taps, taps,
                  wt + ci * kk + co * taps);
  std::fill_n(zeros, zeros_len, 0.0f);
  float* w_bufs =
      scratch.Acquire(slots::kBackWPack, w_blocks * w_len).data();
  std::int32_t* offs =
      scratch.AcquireI32(slots::kOffsets, static_cast<std::size_t>(d.w_per_out))
          .data();

  runtime::ParallelFor(
      0, w_blocks + in_chunks,
      [&](long task) {
        if (task < w_blocks) {
          const long k_lo = task * k_grain;
          WeightGradBlock(xd, gd, zeros, gwd, w_bufs + task * w_len,
                          offs + k_lo, k_lo,
                          std::min(d.w_per_out, k_lo + k_grain), d);
          return;
        }
        const long chunk = task - w_blocks;
        const long lo = chunk * n_grain;
        InputGradChunk(wt, zeros, gd, gid, in_bufs + chunk * in_len, lo,
                       std::min(d.n, lo + n_grain), d);
      },
      /*grain=*/1);
}

}  // namespace

// --- fp32 dispatcher ---------------------------------------------------------

void Conv2dForward(const Tensor& weight, const Tensor& bias, const Tensor& x,
                   Tensor& out, const Conv2dGeom& geom, KernelMode mode,
                   runtime::Workspace& scratch) {
  AXSNN_CHECK(x.rank() >= 3, "Conv2dForward expects [*, C, H, W]");
  const Dims d = MakeDims(x.numel(), x.shape(), geom);
  AXSNN_CHECK(weight.numel() == d.c_out * d.w_per_out,
              "Conv2dForward weight shape mismatch");
  AXSNN_CHECK(out.numel() == d.n * d.o_sample, "Conv2dForward output not sized");

  const float* xd = x.data();
  const float* wd = weight.data();
  const float* bd = bias.data();
  float* od = out.data();

  mode = ResolveKernelMode(mode);
  const long wps = SpikeWordCount(d.x_sample);
  const std::uint64_t* words_d = nullptr;
  if (mode == KernelMode::kAuto || mode == KernelMode::kSparse) {
    // Spike words serve the density probe (popcount — the exact same count
    // as the old elementwise probe) and, below, the sparse gather.
    auto& words = scratch.AcquireU64(slots::kWords,
                                     static_cast<std::size_t>(d.n * wps));
    const long nonzero =
        ParallelPackSpikeWords(xd, d.n, d.x_sample, words.data());
    words_d = words.data();
    mode = ChooseByDensity(mode,
                           static_cast<float>(nonzero) /
                               static_cast<float>(x.numel()),
                           kConvSparseDensityMax);
  }
  if (mode == KernelMode::kSimd &&
      ActiveSimdTier() == SimdTier::kScalar)
    mode = KernelMode::kNaive;  // forced simd without the tier: scalar ref
  // simd's +0 padding terms and sparse's skipped zero activations are
  // exact no-ops only under ZeroTermsAreNoOps (a -0 bias or a non-finite
  // weight, e.g. after a weight bit flip, breaks it): naive then runs.
  if (mode != KernelMode::kNaive && !ZeroTermsAreNoOps(weight, bias))
    mode = KernelMode::kNaive;

  if (mode == KernelMode::kNaive) {
    Conv2dNaive(xd, wd, bd, od, d);
    return;
  }

  if (mode == KernelMode::kSimd) {
    const long grain = (d.n + kMaxConvPacks - 1) / kMaxConvPacks;
    const long pack_size = d.w_per_out * d.o_plane;
    Tensor& pack = scratch.Acquire(
        slots::kPack, runtime::NumChunks(d.n, grain) * pack_size);
    float* pd = pack.data();
    runtime::ParallelForChunks(
        0, d.n,
        [&](long chunk, long lo, long hi) {
          float* col = pd + chunk * pack_size;
          for (long s = lo; s < hi; ++s) {
            PackIm2col(xd + s * d.x_sample, col, d);
            simd::ConvGemmF32(wd, bd, col, od + s * d.o_sample, d.c_out,
                              d.w_per_out, d.o_plane);
          }
        },
        grain);
    return;
  }

  const long grain = runtime::DefaultGrain(d.n);
  const long chunks = runtime::NumChunks(d.n, grain);
  // kSparse: per-chunk gather lists sized for one sample at a time.
  auto& offs = scratch.AcquireI32(
      slots::kOffsets, static_cast<std::size_t>(chunks * (d.c_in + 1)));
  auto& rows = scratch.AcquireI32(slots::kRows,
                                  static_cast<std::size_t>(chunks * d.x_sample));
  auto& cols = scratch.AcquireI32(slots::kCols,
                                  static_cast<std::size_t>(chunks * d.x_sample));
  Tensor& vals = scratch.Acquire(slots::kSparseVals, chunks * d.x_sample);
  std::int32_t* offs_d = offs.data();
  std::int32_t* rows_d = rows.data();
  std::int32_t* cols_d = cols.data();
  float* vals_d = vals.data();
  std::atomic<bool> nonfinite{false};
  runtime::ParallelForChunks(
      0, d.n,
      [&](long chunk, long lo, long hi) {
        std::int32_t* c_offs = offs_d + chunk * (d.c_in + 1);
        std::int32_t* c_rows = rows_d + chunk * d.x_sample;
        std::int32_t* c_cols = cols_d + chunk * d.x_sample;
        float* c_vals = vals_d + chunk * d.x_sample;
        for (long s = lo; s < hi; ++s) {
          const long m =
              GatherNonzerosWords(xd + s * d.x_sample, words_d + s * wps, d,
                                  c_offs, c_rows, c_cols, c_vals);
          if (!std::all_of(c_vals, c_vals + m,
                           [](float v) { return std::isfinite(v); })) {
            nonfinite = true;
            return;
          }
          float* os = od + s * d.o_sample;
          for (long co = 0; co < d.c_out; ++co) {
            float* op = os + co * d.o_plane;
            const float b = bd[co];
            for (long i = 0; i < d.o_plane; ++i) op[i] = b;
            ScatterChannelF32(wd + co * d.w_per_out, c_offs, c_rows, c_cols,
                              c_vals, op, d);
          }
        }
      },
      grain);
  // The scatter multiplies pruned weights too, so an inf/NaN activation
  // (an activation bit flip makes one) would turn a term naive skips into
  // NaN. Every non-finite value is nonzero, hence gathered: when any chunk
  // saw one, the whole call is recomputed by naive.
  if (nonfinite)
    Conv2dNaive(xd, wd, bd, od, d);
}

// --- fp32 backward dispatcher ------------------------------------------------

void Conv2dBackward(const Tensor& weight, const Tensor& x,
                    const Tensor& grad_out, Tensor& grad_in, Tensor& dweight,
                    Tensor& dbias, const Conv2dGeom& geom, KernelMode mode,
                    runtime::Workspace& scratch) {
  AXSNN_CHECK(x.rank() >= 3, "Conv2dBackward expects [*, C, H, W]");
  const Dims d = MakeDims(x.numel(), x.shape(), geom);
  AXSNN_CHECK(weight.numel() == d.c_out * d.w_per_out &&
                  dweight.numel() == weight.numel() &&
                  dbias.numel() == d.c_out,
              "Conv2dBackward parameter shape mismatch");
  AXSNN_CHECK(grad_out.numel() == d.n * d.o_sample,
              "Conv2dBackward gradient shape mismatch");
  AXSNN_CHECK(grad_in.numel() == x.numel(),
              "Conv2dBackward input gradient not sized");

  const float* xd = x.data();
  const float* wd = weight.data();
  const float* gd = grad_out.data();
  float* gid = grad_in.data();
  float* gwd = dweight.data();

  const bool grad_finite = BiasGradF32(gd, dbias.data(), d);
  // The simd tiles' skipped ±0 terms (pruned weights, zero gradients) and
  // +0 padding terms are exact no-ops only when the weights, grad_out and
  // x are all finite (ZeroTermsAreNoOps with the tiles' +0 bias): the
  // naive loops run otherwise.
  const bool simd = ResolveKernelMode(mode) != KernelMode::kNaive &&
                    ActiveSimdTier() != SimdTier::kScalar && grad_finite &&
                    ZeroTermsAreNoOps(weight, Tensor()) &&
                    AllFinite(xd, x.numel());
  if (simd) {
    Conv2dBackwardSimd(xd, wd, gd, gid, gwd, d, scratch);
    return;
  }
  grad_in.Zero();
  InputGradNaive(wd, gd, gid, d);
  WeightGradNaive(xd, gd, gwd, d);
}

// --- int8 dispatcher ---------------------------------------------------------

void Int8Conv2dForward(const QuantizedTensor& weight, const Tensor& bias,
                       const std::int32_t* qact, float act_scale, long n,
                       long h, long w, Tensor& out, const Conv2dGeom& geom,
                       KernelMode mode, runtime::Workspace& scratch) {
  const long x_numel = n * geom.in_channels * h * w;
  const Dims d = MakeDims(n, h, w, geom);
  AXSNN_CHECK(weight.rows() == d.c_out && weight.row_size() == d.w_per_out,
              "Int8Conv2dForward weight shape mismatch");
  AXSNN_CHECK(out.numel() == d.n * d.o_sample,
              "Int8Conv2dForward output not sized");

  const std::int8_t* wd = weight.data();
  const float* scales = weight.scales().data();
  const float* bd = bias.data();
  float* od = out.data();

  mode = ResolveKernelMode(mode);
  const SimdTier tier = ActiveSimdTier();
  const long wps = SpikeWordCount(d.x_sample);
  const std::uint64_t* words_d = nullptr;
  if (mode == KernelMode::kAuto || mode == KernelMode::kSparse) {
    auto& words = scratch.AcquireU64(slots::kWords,
                                     static_cast<std::size_t>(d.n * wps));
    const long nonzero =
        ParallelPackSpikeWords(qact, d.n, d.x_sample, words.data());
    words_d = words.data();
    // ISA probe (dispatch rule 4): with the SIMD tier active the dense
    // fallback is the exact int8 panel microkernel and the sparse
    // crossover drops (32-MAC instructions raise the dense work rate);
    // scalar machines keep the original naive fallback and threshold. All
    // candidates are bit-identical, so this never changes results.
    mode = ChooseByDensity(
        mode, static_cast<float>(nonzero) / static_cast<float>(x_numel),
        tier != SimdTier::kScalar ? kConvSparseDensityMaxI8Simd
                                  : kConvSparseDensityMax);
  }
  if (mode == KernelMode::kSimd && tier == SimdTier::kScalar)
    mode = KernelMode::kNaive;  // forced simd without the tier: scalar ref

  if (mode == KernelMode::kNaive) {
    // Same loop nest as the float Conv2dNaive: one disjoint output plane per
    // (sample, out-channel) index, contiguous inner loop over ox, chunks
    // fanned out on the runtime pool. One plane-sized accumulator per chunk
    // (each chunk's planes are processed one at a time) instead of a full
    // output-sized scratch.
    const long total = d.n * d.c_out;
    const long grain = runtime::DefaultGrain(total);
    auto& acc = scratch.AcquireI32(
        slots::kAcc, static_cast<std::size_t>(
                         runtime::NumChunks(total, grain) * d.o_plane));
    std::int32_t* ad = acc.data();
    runtime::ParallelForChunks(
        0, total,
        [&](long chunk, long lo, long hi) {
          Conv2dPlanes(lo, hi, qact, wd, scales, bd, act_scale,
                       ad + chunk * d.o_plane, od, d.c_in, d.h, d.w, d.c_out,
                       d.kernel, d.pad);
        },
        grain);
    return;
  }

  const long grain = runtime::DefaultGrain(d.n);
  const long chunks = runtime::NumChunks(d.n, grain);

  if (mode == KernelMode::kSimd) {
    // Weight rows staged once, zero-padded to the dword-group width; one
    // panel per chunk, rebuilt per sample (panels are pixel-blocked im2col,
    // int8-narrow).
    const long kk4 = simd::RoundUp4(d.w_per_out);
    const long panel_bytes = kk4 * simd::RoundUp8(d.o_plane);
    auto& wpad = scratch.AcquireI8(slots::kWpad,
                                   static_cast<std::size_t>(d.c_out * kk4));
    std::int8_t* wpad_d = wpad.data();
    for (long co = 0; co < d.c_out; ++co) {
      std::memcpy(wpad_d + co * kk4, wd + co * d.w_per_out,
                  static_cast<std::size_t>(d.w_per_out));
      for (long k = d.w_per_out; k < kk4; ++k) wpad_d[co * kk4 + k] = 0;
    }
    auto& panel = scratch.AcquireI8(
        slots::kPanel, static_cast<std::size_t>(chunks * panel_bytes));
    std::int8_t* panel_d = panel.data();
    const bool vnni = tier == SimdTier::kVnni;
    runtime::ParallelForChunks(
        0, d.n,
        [&](long chunk, long lo, long hi) {
          std::int8_t* p = panel_d + chunk * panel_bytes;
          for (long s = lo; s < hi; ++s) {
            simd::PackConvPanelI8(qact + s * d.x_sample, p, d.c_in, d.h, d.w,
                                  d.w_out, d.kernel, d.pad, d.o_plane, kk4);
            simd::ConvPanelI8(wpad_d, scales, act_scale, bd, p,
                              od + s * d.o_sample, d.c_out, kk4, d.o_plane,
                              vnni);
          }
        },
        grain);
    return;
  }

  // kSparse: gather nonzero codes once per sample, scatter per channel into
  // a chunk-owned int32 plane, requantize on write-out.
  auto& offs = scratch.AcquireI32(
      slots::kOffsets, static_cast<std::size_t>(chunks * (d.c_in + 1)));
  auto& rows = scratch.AcquireI32(slots::kRows,
                                  static_cast<std::size_t>(chunks * d.x_sample));
  auto& cols = scratch.AcquireI32(slots::kCols,
                                  static_cast<std::size_t>(chunks * d.x_sample));
  auto& vals = scratch.AcquireI32(slots::kQVals,
                                  static_cast<std::size_t>(chunks * d.x_sample));
  auto& acc = scratch.AcquireI32(slots::kAcc,
                                 static_cast<std::size_t>(chunks * d.o_plane));
  std::int32_t* offs_d = offs.data();
  std::int32_t* rows_d = rows.data();
  std::int32_t* cols_d = cols.data();
  std::int32_t* vals_d = vals.data();
  std::int32_t* acc_d = acc.data();
  runtime::ParallelForChunks(
      0, d.n,
      [&](long chunk, long lo, long hi) {
        std::int32_t* c_offs = offs_d + chunk * (d.c_in + 1);
        std::int32_t* c_rows = rows_d + chunk * d.x_sample;
        std::int32_t* c_cols = cols_d + chunk * d.x_sample;
        std::int32_t* c_vals = vals_d + chunk * d.x_sample;
        std::int32_t* ap = acc_d + chunk * d.o_plane;
        for (long s = lo; s < hi; ++s) {
          GatherNonzerosWords(qact + s * d.x_sample, words_d + s * wps, d,
                              c_offs, c_rows, c_cols, c_vals);
          float* os = od + s * d.o_sample;
          for (long co = 0; co < d.c_out; ++co) {
            for (long i = 0; i < d.o_plane; ++i) ap[i] = 0;
            ScatterChannelI32(wd + co * d.w_per_out, c_offs, c_rows, c_cols,
                              c_vals, ap, d);
            const float requant = act_scale * scales[co];
            const float b = bd[co];
            float* op = os + co * d.o_plane;
            for (long i = 0; i < d.o_plane; ++i)
              op[i] = static_cast<float>(ap[i]) * requant + b;
          }
        }
      },
      grain);
}

}  // namespace axsnn::kernels
