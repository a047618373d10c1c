#include "faults/campaign.hpp"

#include <algorithm>

#include "runtime/parallel_for.hpp"
#include "tensor/check.hpp"
#include "tensor/random.hpp"

namespace axsnn::faults {
namespace {

/// Default probe bits per word width: exponent MSB / exponent LSB / mid
/// mantissa for the float formats (the NeuroAttack observation: exponent
/// bits dominate), sign / magnitude MSB / mid for int8 codes.
std::vector<int> DefaultBits(int word_bits) {
  if (word_bits >= 32) return {30, 23, 13};
  if (word_bits >= 16) return {14, 10, 5};
  return {7, 6, 3};
}

}  // namespace

std::vector<SensitivityStep> GreedySensitivitySearch(
    const snn::Network& model, approx::Precision precision,
    const EvalFn& eval, const SensitivityOptions& options) {
  AXSNN_CHECK(eval != nullptr, "GreedySensitivitySearch needs an evaluator");
  snn::Network current = model.Clone();
  float clean = 0.0f;
  {
    snn::Network probe = current.Clone();
    clean = eval(probe);
  }
  struct Candidate {
    long layer;
    WeightTarget target;
    long word;
    int bit;
  };
  std::vector<Candidate> committed;
  const Rng base_rng(options.seed);
  std::vector<SensitivityStep> steps;
  for (long round = 0; round < options.rounds; ++round) {
    const std::vector<SurfaceArray> surface =
        WeightSurface(current, precision);
    if (surface.empty()) break;
    std::vector<Candidate> cands;
    for (const SurfaceArray& arr : surface) {
      const std::vector<int> bits =
          options.bits.empty() ? DefaultBits(arr.word_bits) : options.bits;
      for (int b : bits) {
        const int bit = b % arr.word_bits;
        // Word draw is a pure function of (seed, round, candidate coords):
        // re-running the search replays the identical probe set.
        const std::uint64_t stream =
            (static_cast<std::uint64_t>(round) << 40) ^
            (static_cast<std::uint64_t>(arr.layer) << 24) ^
            (static_cast<std::uint64_t>(static_cast<int>(arr.target)) << 16) ^
            static_cast<std::uint64_t>(static_cast<unsigned>(bit));
        Rng draw = base_rng.Fork(stream);
        const long word = static_cast<long>(
            draw.UniformInt(static_cast<std::uint64_t>(arr.words)));
        const Candidate cand{arr.layer, arr.target, word, bit};
        const bool seen =
            std::any_of(committed.begin(), committed.end(),
                        [&](const Candidate& c) {
                          return c.layer == cand.layer &&
                                 c.target == cand.target &&
                                 c.word == cand.word && c.bit == cand.bit;
                        });
        if (!seen) cands.push_back(cand);  // never revert a committed flip
      }
    }
    if (cands.empty()) break;
    std::vector<float> acc(cands.size(), 0.0f);
    runtime::ParallelFor(
        0, static_cast<long>(cands.size()),
        [&](long i) {
          const Candidate& c = cands[static_cast<std::size_t>(i)];
          snn::Network probe = current.Clone();
          FlipBitAt(probe, c.layer, c.target, c.word, c.bit, precision);
          acc[static_cast<std::size_t>(i)] = eval(probe);
        },
        /*grain=*/1);
    std::size_t best = 0;
    for (std::size_t i = 1; i < cands.size(); ++i) {
      if (acc[i] < acc[best]) best = i;  // ties keep the earlier candidate
    }
    const Candidate& pick = cands[best];
    FlipBitAt(current, pick.layer, pick.target, pick.word, pick.bit,
              precision);
    committed.push_back(pick);
    steps.push_back({pick.layer, pick.target, pick.bit, pick.word,
                     acc[best], clean - acc[best]});
  }
  return steps;
}

}  // namespace axsnn::faults
