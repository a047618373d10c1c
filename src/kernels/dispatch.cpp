#include "kernels/dispatch.hpp"

#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>

#include "kernels/cpu_features.hpp"
#include "kernels/spike_words.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/check.hpp"

namespace axsnn::kernels {

const char* KernelModeName(KernelMode mode) {
  switch (mode) {
    case KernelMode::kAuto:
      return "auto";
    case KernelMode::kNaive:
      return "naive";
    case KernelMode::kSparse:
      return "sparse";
    case KernelMode::kSimd:
      return "simd";
  }
  return "?";
}

std::optional<KernelMode> ParseKernelMode(std::string_view name) {
  if (name == "auto") return KernelMode::kAuto;
  if (name == "naive") return KernelMode::kNaive;
  if (name == "sparse") return KernelMode::kSparse;
  if (name == "simd") return KernelMode::kSimd;
  return std::nullopt;
}

namespace {

std::atomic<KernelMode>& GlobalModeRef() {
  static std::atomic<KernelMode> mode{KernelModeFromEnv()};
  return mode;
}

/// Shared chunked nonzero count: exact at any pool size (integer counting
/// is order-independent; the fixed-chunk shape keeps that self-evident).
template <typename T>
float DensityOf(const T* x, long n) {
  if (n <= 0) return 0.0f;
  const long grain = runtime::DefaultGrain(n);
  std::array<long, runtime::kMaxChunks> partials{};
  const long chunks = runtime::NumChunks(n, grain);
  runtime::ParallelForChunks(
      0, n,
      [&](long chunk, long lo, long hi) {
        long count = 0;
        for (long i = lo; i < hi; ++i) count += (x[i] != T{0}) ? 1 : 0;
        partials[static_cast<std::size_t>(chunk)] = count;
      },
      grain);
  long nonzero = 0;
  for (long c = 0; c < chunks; ++c)
    nonzero += partials[static_cast<std::size_t>(c)];
  return static_cast<float>(nonzero) / static_cast<float>(n);
}

}  // namespace

KernelMode KernelModeFromEnv() {
  const char* env = std::getenv("AXSNN_KERNEL_MODE");
  if (env == nullptr) return KernelMode::kAuto;
  const std::optional<KernelMode> mode = ParseKernelMode(env);
  AXSNN_CHECK(mode.has_value(),
              "AXSNN_KERNEL_MODE must be auto, naive, sparse or simd, got \""
                  << env << "\"");
  return *mode;
}

KernelMode GlobalKernelMode() {
  return GlobalModeRef().load(std::memory_order_relaxed);
}

void SetGlobalKernelMode(KernelMode mode) {
  GlobalModeRef().store(mode, std::memory_order_relaxed);
}

float Density(const float* x, long n) { return DensityOf(x, n); }
float Density(const std::int32_t* x, long n) { return DensityOf(x, n); }
float Density(const std::int8_t* x, long n) { return DensityOf(x, n); }

namespace {

/// Shared word packer: parallel over sample chunks (sample-padded word rows
/// make the chunks disjoint), per-chunk counts reduced deterministically.
template <typename T>
long PackWordsOf(const T* x, long n_samples, long sample_len,
                 std::uint64_t* words) {
  if (n_samples <= 0 || sample_len <= 0) return 0;
  const long wps = SpikeWordCount(sample_len);
  const long grain = runtime::DefaultGrain(n_samples);
  std::array<long, runtime::kMaxChunks> partials{};
  const long chunks = runtime::NumChunks(n_samples, grain);
  runtime::ParallelForChunks(
      0, n_samples,
      [&](long chunk, long lo, long hi) {
        long count = 0;
        for (long s = lo; s < hi; ++s)
          count += PackSpikeWords(x + s * sample_len, sample_len,
                                  words + s * wps);
        partials[static_cast<std::size_t>(chunk)] = count;
      },
      grain);
  long nonzero = 0;
  for (long c = 0; c < chunks; ++c)
    nonzero += partials[static_cast<std::size_t>(c)];
  return nonzero;
}

}  // namespace

long ParallelPackSpikeWords(const float* x, long n_samples, long sample_len,
                            std::uint64_t* words) {
  return PackWordsOf(x, n_samples, sample_len, words);
}
long ParallelPackSpikeWords(const std::int32_t* x, long n_samples,
                            long sample_len, std::uint64_t* words) {
  return PackWordsOf(x, n_samples, sample_len, words);
}
long ParallelPackSpikeWords(const std::int8_t* x, long n_samples,
                            long sample_len, std::uint64_t* words) {
  return PackWordsOf(x, n_samples, sample_len, words);
}

KernelMode ResolveKernelMode(KernelMode requested) {
  const KernelMode global = GlobalKernelMode();
  return global != KernelMode::kAuto ? global : requested;
}

KernelMode ChooseByDensity(KernelMode mode, float density, float sparse_max) {
  if (mode != KernelMode::kAuto) return mode;
  if (density <= sparse_max) return KernelMode::kSparse;
  return ActiveSimdTier() != SimdTier::kScalar ? KernelMode::kSimd
                                               : KernelMode::kNaive;
}

bool ZeroTermsAreNoOps(const Tensor& weight, const Tensor& bias) {
  for (float w : weight.flat())
    if (!std::isfinite(w)) return false;
  for (float b : bias.flat())
    if (b == 0.0f && std::signbit(b)) return false;
  return true;
}

}  // namespace axsnn::kernels
