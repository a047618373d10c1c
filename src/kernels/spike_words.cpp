#include "kernels/spike_words.hpp"

namespace axsnn::kernels {

namespace {

/// Shared packer: builds each word from its (up to) 64 elements. The inner
/// compare loop is branch-free and auto-vectorizes; the returned count is
/// the popcount of what was written, so callers get the density numerator
/// for free.
template <typename T>
long PackWords(const T* x, long n, std::uint64_t* words) {
  const long n_words = SpikeWordCount(n);
  long nonzero = 0;
  for (long w = 0; w < n_words; ++w) {
    const long base = w * 64;
    const int lanes = static_cast<int>(n - base < 64 ? n - base : 64);
    std::uint64_t word = 0;
    for (int b = 0; b < lanes; ++b)
      word |= static_cast<std::uint64_t>(x[base + b] != T{0}) << b;
    words[w] = word;
    nonzero += std::popcount(word);
  }
  return nonzero;
}

}  // namespace

long PackSpikeWords(const float* x, long n, std::uint64_t* words) {
  return PackWords(x, n, words);
}
long PackSpikeWords(const std::int32_t* x, long n, std::uint64_t* words) {
  return PackWords(x, n, words);
}
long PackSpikeWords(const std::int8_t* x, long n, std::uint64_t* words) {
  return PackWords(x, n, words);
}

}  // namespace axsnn::kernels
