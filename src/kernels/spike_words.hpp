// Bit-packed spike words: 64 events per uint64_t.
//
// SNN activations are overwhelmingly zero, and the sparse kernel path pays
// for that twice today: the density probe tests every element, and the
// gather scans every element again. Packing the nonzero mask into 64-bit
// words — one pass, trivially vectorizable — lets both run on whole words:
// density is a popcount sum, and the gather jumps straight from set bit to
// set bit with ctz, so an all-zero cache line of activations costs one
// 8-byte compare instead of 64 float tests. Built once per input into the
// layer's LocalScratch (slot kernels::slots::kWords) and shared by the
// probe and the gather.
//
// Packing convention: element i of a row maps to bit (i % 64) of word
// (i / 64), rows are padded to whole words with zero bits, so iterating
// words ascending and bits low-to-high visits nonzeros in ascending element
// order — exactly the scan order of the scalar gathers, which is what keeps
// the sparse path inside the kernel equivalence contract.
#pragma once

#include <bit>
#include <cstdint>

namespace axsnn::kernels {

/// Number of 64-bit words covering `n` elements.
inline long SpikeWordCount(long n) { return (n + 63) / 64; }

/// Packs the nonzero mask of x[0..n) into words[0..SpikeWordCount(n)),
/// zero-filling the tail bits of the last word. Returns the nonzero count
/// (the popcount of the packed words). Overloads share one definition in
/// spike_words.cpp; "nonzero" means != 0 under the element type's equality
/// (so float -0.0 packs as zero, matching Density and the scalar gathers).
long PackSpikeWords(const float* x, long n, std::uint64_t* words);
long PackSpikeWords(const std::int32_t* x, long n, std::uint64_t* words);
long PackSpikeWords(const std::int8_t* x, long n, std::uint64_t* words);

/// Calls fn(i) for every set bit in words[0..n_words), i the element index
/// (word * 64 + bit), ascending. The ctz/clear-lowest-bit loop the sparse
/// gathers run per sample.
template <typename Fn>
inline void ForEachSetBit(const std::uint64_t* words, long n_words, Fn&& fn) {
  for (long w = 0; w < n_words; ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      fn(w * 64 + bit);
      word &= word - 1;  // clear lowest set bit
    }
  }
}

}  // namespace axsnn::kernels
