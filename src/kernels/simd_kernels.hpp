// SIMD microkernels: AVX2/AVX-VNNI int8 dot products and 8-wide fp32
// tiles. This header is intrinsic-free — every vector instruction lives in
// simd_kernels.cpp, the one translation unit built with -mavx2 -mfma
// (CMakeLists guards the flags, cpu_features.hpp gates execution at
// runtime), so including it never leaks ISA requirements into other TUs.
//
// Numerics contract (see DESIGN.md "SIMD kernel tier"): every kernel here
// is EXACT — bit-identical to the naive reference — so auto may select any
// of them.
//  * int8: the product a*w is computed as |a| * (w * sign(a)) so
//    vpdpbusd/vpmaddubsw get their unsigned operand without any +128 shift
//    or compensation term, and with |a| <= 127, |w| <= 127 the maddubs pair
//    sums stay below int16 saturation. The int32 accumulator value is
//    therefore identical to the naive loop's regardless of summation
//    order, and the single requantization multiply matches the naive
//    write-out bit for bit.
//  * fp32: each vector lane is one output element's own accumulator,
//    started at the bias and advanced by a rounded multiply then a rounded
//    add (never an FMA — the TU builds with -ffp-contract=off) over the
//    naive term order: conv k = (ci, ky, kx) ascending with pruned (zero)
//    weights skipped, dense i ascending with nothing skipped. No lane ever
//    reads another, so there are no horizontal sums to reorder.
//
// int8 conv panel layout ("panel" arguments): output pixels are grouped in
// blocks of 8 and the im2col k axis in groups of 4, matching one vpdpbusd:
// byte (block, k4, pix, t) lives at ((block * kk4/4 + k4) * 8 + pix) * 4 + t
// and holds im2col code (k = 4*k4 + t, j = 8*block + pix), zero-padded past
// kk and o_plane. Weight rows are staged zero-padded to kk4 so the kernel
// broadcasts whole dwords. kernels/conv2d_kernels.cpp packs both.
#pragma once

#include <cstdint>

namespace axsnn::kernels::simd {

/// Round up to the panel granularities.
inline long RoundUp4(long v) { return (v + 3) & ~3L; }
inline long RoundUp8(long v) { return (v + 7) & ~7L; }

// --- fp32 (exact) ------------------------------------------------------------

/// One sample's conv over a row-major im2col matrix col[kk][o_plane]:
/// op[co][j] = bd[co] + sum_k wd[co*kk+k] * col[k][j], 8-pixel tiles with up
/// to 4 in flight; the last tile masks off the pixels past o_plane. The
/// im2col matrix holds +0 at padded taps, where naive adds nothing: the
/// +0 term is an exact no-op only when every weight is finite and no bias
/// is −0, which the caller must guarantee (kernels::ZeroTermsAreNoOps).
void ConvGemmF32(const float* wd, const float* bd, const float* col,
                 float* op, long c_out, long kk, long o_plane);

/// Dense over one block of up to 8 samples packed transposed
/// (xt[i * 8 + j] = sample j's feature i; lanes past `nr` are padding and
/// are never written back): os[j][o] = bd[o] + sum_i wd[o][i] * xt[i][j],
/// one sample per lane, 8 output features in flight.
void DenseBlockF32(const float* wd, const float* bd, const float* xt,
                   float* os, long nr, long f_in, long f_out);

// --- int8 (exact) ------------------------------------------------------------

/// One sample's int8 conv over a packed panel (layout above): for each
/// (co, pixel), acc = sum_k w[k] * code[k][j] in int32, then
/// op[co][j] = float(acc) * (act_scale * scales[co]) + bd[co].
/// `wpad` is the [c_out][kk4] zero-padded weight matrix. `vnni` selects the
/// vpdpbusd inner loop (caller passes ActiveSimdTier() == kVnni).
void ConvPanelI8(const std::int8_t* wpad, const float* scales,
                 float act_scale, const float* bd, const std::int8_t* panel,
                 float* op, long c_out, long kk4, long o_plane, bool vnni);

/// Packs one sample's int32 activation codes into the int8 conv panel
/// (layout above) for a conv over [c_in, h, w] -> [h_out, w_out = o_plane /
/// h_out]. Vectorized: for an 8-pixel block on one output row, the 8 source
/// codes of an in-bounds k are contiguous, so four k rows assemble a
/// 32-byte dword group via masked shifts OR-merged in int32 lanes; k rows
/// with out-of-range columns are patched scalar, and blocks touching the
/// o_plane tail or a w_out row break fall back to the scalar reference
/// loop. Lives in the AVX2 TU but needs no VNNI — both tiers share it.
void PackConvPanelI8(const std::int32_t* xs, std::int8_t* panel, long c_in,
                     long h, long w, long w_out, long kernel, long pad,
                     long o_plane, long kk4);

/// Dense rows [lo, hi) on raw int8 codes: 32 MACs per instruction over the
/// contiguous activation/weight rows, 4 output features in flight sharing
/// each activation load; f_in tail scalar. Exact (int32 accumulation).
void DenseRowsI8(const std::int8_t* wd, const float* scales, float act_scale,
                 const float* bd, const std::int8_t* qact, float* od,
                 long lo, long hi, long f_in, long f_out, bool vnni);

}  // namespace axsnn::kernels::simd
