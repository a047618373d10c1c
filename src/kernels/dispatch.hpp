// Sparsity-aware kernel dispatch: mode knob, density probe, slot map.
//
// SNN workloads guarantee one thing dense-ML kernels cannot assume: the
// activations flowing through Conv2d/Dense are overwhelmingly zero (binary
// spike trains, rate-encoded inputs, binned event frames), and Eq.-(1)
// pruning adds weight sparsity on top. The kernel subsystem therefore ships
// three implementations per (layer, precision) pair:
//
//   naive  — the original reference loops, retained verbatim. Every other
//            path is pinned against it bit for bit by the differential
//            equivalence suite (tests/test_kernels.cpp).
//   sparse — scans each input's bit-packed spike words (spike_words.hpp)
//            and scatters weight rows per nonzero. Work is proportional to
//            the *nonzero* count, so it wins whenever spike density is
//            below the thresholds here.
//   simd   — explicit AVX2/AVX-VNNI microkernels (simd_kernels.hpp) behind
//            runtime CPUID detection (cpu_features.hpp). Exact in both
//            precisions — see the numerics contract in simd_kernels.hpp.
//
// Above the sparse threshold the auto probe falls back to simd when the
// ISA probe reports an active tier and to naive otherwise, in every kernel
// family. Dispatch decisions must never change an experiment outcome (the
// golden determinism test pins that end to end), so every path auto can
// select is bit-identical to naive — including on non-finite activations,
// −0 inputs and padded borders. Where a fast path's skipped or extra ±0
// terms would not be exact no-ops (a −0 bias, a non-finite weight — see
// ZeroTermsAreNoOps), the dispatcher runs naive instead.
//
// Mode precedence for one kernel call:
//   1. a non-auto *global* mode (AXSNN_KERNEL_MODE env var, or
//      SetGlobalKernelMode) forces that path everywhere — the CI matrix and
//      the differential tests use this to pin each path;
//   2. otherwise a non-auto *layer/config* mode
//      (ApproxConfig::kernel_mode -> Conv2d/Dense::set_kernel_mode);
//   3. otherwise (auto) a per-call density probe (a popcount over the
//      spike words) picks sparse at or below the density thresholds;
//   4. above them the dense fallback applies: simd or naive by
//      ActiveSimdTier() (the ISA probe).
// A forced simd mode (rule 1 or 2) on a machine or build without the SIMD
// tier degrades to naive — always safe because simd is bit-identical;
// AXSNN_SIMD=off therefore exercises the scalar fallback everywhere
// without touching results.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "tensor/tensor.hpp"

namespace axsnn::kernels {

/// Kernel implementation selector; kAuto defers to the density probe.
enum class KernelMode { kAuto, kNaive, kSparse, kSimd };

/// "auto" / "naive" / "sparse" / "simd".
const char* KernelModeName(KernelMode mode);

/// Inverse of KernelModeName; nullopt for unknown names.
std::optional<KernelMode> ParseKernelMode(std::string_view name);

/// The mode the AXSNN_KERNEL_MODE environment variable names (kAuto when
/// unset). A set but unknown value — a typo, or a mode that no longer
/// exists such as "gemm" — throws std::invalid_argument naming it, the
/// same contract as AXSNN_THREADS: it must never silently run auto.
KernelMode KernelModeFromEnv();

/// Process-global mode, initialized from KernelModeFromEnv() on first use
/// (so a bad AXSNN_KERNEL_MODE throws from the first kernel call). A
/// non-auto global mode overrides every per-layer setting (precedence
/// rule 1 above).
KernelMode GlobalKernelMode();

/// Overrides the global mode at runtime (tests, benchmarks). Not
/// thread-safe against concurrent kernel calls.
void SetGlobalKernelMode(KernelMode mode);

/// Scoped global-mode override: forces one path for the scope's duration
/// (winning over a CI-exported AXSNN_KERNEL_MODE too — precedence rule 1)
/// and restores the prior mode on exit. The differential equivalence
/// tests and the dispatch benchmarks pin each path with this.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(KernelMode mode) : saved_(GlobalKernelMode()) {
    SetGlobalKernelMode(mode);
  }
  ~ScopedKernelMode() { SetGlobalKernelMode(saved_); }
  ScopedKernelMode(const ScopedKernelMode&) = delete;
  ScopedKernelMode& operator=(const ScopedKernelMode&) = delete;

 private:
  KernelMode saved_;
};

/// Density thresholds for the auto probe: the sparse path runs scalar MACs
/// on gathered nonzeros while the dense paths run vectorized MACs on
/// everything, so sparse wins once the nonzero fraction is below roughly
/// 1/vector-width with headroom. Measured on the bench_micro_runtime
/// shapes; see DESIGN.md "Kernel dispatch". The int8 thresholds are lower
/// than fp32's: the SIMD tier's 32-MAC int8 instructions raise the dense
/// paths' work rate ~4x over fp32, moving the crossover down. Calibrated
/// against the panel/dense microkernels on the bench shapes: conv sparse
/// stops winning near 4% nonzeros, dense near 1.5% (the dense simd path
/// has no packing cost, so its crossover sits much lower).
inline constexpr float kConvSparseDensityMax = 0.15f;
inline constexpr float kDenseSparseDensityMax = 0.15f;
inline constexpr float kConvSparseDensityMaxI8Simd = 0.04f;
inline constexpr float kDenseSparseDensityMaxI8Simd = 0.015f;

/// Fraction of nonzero elements in [0, 1] (0 for n <= 0). Deterministic
/// chunked parallel count (exact — counting is order-independent).
float Density(const float* x, long n);
float Density(const std::int32_t* x, long n);
float Density(const std::int8_t* x, long n);

/// Packs per-sample spike-word rows (spike_words.hpp layout: sample i's
/// words at words + i * SpikeWordCount(sample_len)) for all n_samples
/// samples, parallel over sample chunks, and returns the total nonzero
/// count — exactly the count the scalar Density probe would produce, so
/// auto decisions are unchanged by the representation. The dispatchers
/// build this once per input (slot slots::kWords) and share it between the
/// density probe and the sparse gather.
long ParallelPackSpikeWords(const float* x, long n_samples, long sample_len,
                            std::uint64_t* words);
long ParallelPackSpikeWords(const std::int32_t* x, long n_samples,
                            long sample_len, std::uint64_t* words);
long ParallelPackSpikeWords(const std::int8_t* x, long n_samples,
                            long sample_len, std::uint64_t* words);

/// True when dropping or adding a ±0 product term can never change an fp32
/// accumulation that starts at one of `bias`'s values: every weight is
/// finite (so w * ±0 is ±0, never NaN) and no bias is −0 (so no
/// accumulator is ever −0, the one value a +0 term changes). The fp32 simd
/// conv (+0 at padded taps) and the fp32 sparse paths (zero activations
/// skipped) are bit-identical to naive exactly under this condition; the
/// dispatchers run naive when it fails. O(weights) — a few microseconds.
bool ZeroTermsAreNoOps(const Tensor& weight, const Tensor& bias);

/// Applies precedence rule 1: a non-auto global mode wins over `requested`.
KernelMode ResolveKernelMode(KernelMode requested);

/// Applies precedence rules 3-4: maps kAuto to kSparse at or below
/// `sparse_max`, and above it to kSimd when ActiveSimdTier() is not scalar,
/// else kNaive. Non-auto modes pass through unchanged.
KernelMode ChooseByDensity(KernelMode mode, float density, float sparse_max);

/// Workspace slot map shared by the kernel implementations. Each Conv2d /
/// Dense layer owns one scratch Workspace (runtime::LocalScratch), so slot
/// indices only need to be unique within one layer's kernel calls.
namespace slots {
// float slots (Workspace::Acquire)
inline constexpr std::size_t kPack = 0;        ///< fp32 simd packs
inline constexpr std::size_t kSparseVals = 1;  ///< gathered nonzero values
inline constexpr std::size_t kBackInPack = 2;  ///< conv input-gradient packs
inline constexpr std::size_t kBackWPack = 3;   ///< conv weight-gradient packs
// int32 slots (Workspace::AcquireI32)
inline constexpr std::size_t kOffsets = 0;  ///< nonzero / conv tap offsets
inline constexpr std::size_t kRows = 1;     ///< nonzero row coords / indices
inline constexpr std::size_t kCols = 2;     ///< nonzero col coords
inline constexpr std::size_t kQAct = 3;     ///< conv activation codes
inline constexpr std::size_t kAcc = 4;      ///< int8 accumulator planes
inline constexpr std::size_t kQVals = 5;    ///< gathered / packed codes
// int8 slots (Workspace::AcquireI8)
inline constexpr std::size_t kQActI8 = 0;  ///< dense activation codes
inline constexpr std::size_t kPanel = 1;  ///< SIMD conv int8 panels
inline constexpr std::size_t kWpad = 2;   ///< kk4-padded int8 weight rows
// uint64 slots (Workspace::AcquireU64)
inline constexpr std::size_t kWords = 0;  ///< bit-packed spike words
}  // namespace slots

}  // namespace axsnn::kernels
