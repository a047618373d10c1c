// Weakest-bit ranking on top of the injector.
//
// GreedySensitivitySearch is the NeuroAttack-style ranking: per round,
// probe a candidate set of (layer, target array, bit position) single
// flips — each at a deterministically drawn word — on a clone of the
// current (already-corrupted) model, commit the flip with the largest
// robustness drop, repeat. The committed sequence IS the ranking: the most
// damaging storage bits of this model, most damaging first.
//
// It takes the evaluator as a callback (accuracy-on-a-test-set in the
// drivers) so the subsystem stays independent of workbench/dataset types.
// BER and flip-count sweeps are not a separate loop here: they are the
// scenario engine's fault axis (scenario/scenario.hpp), which clones,
// corrupts and scores every (variant, fault) pair.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "approx/precision.hpp"
#include "faults/fault_model.hpp"
#include "faults/inject.hpp"
#include "snn/network.hpp"

namespace axsnn::faults {

/// Robustness probe: typically [&](snn::Network& n) { return accuracy(n); }.
/// Must be thread-safe for concurrent calls on distinct networks.
using EvalFn = std::function<float(snn::Network&)>;

struct SensitivityOptions {
  long rounds = 3;          ///< committed flips == ranking length
  std::vector<int> bits;    ///< candidate bit positions; empty = per-format
                            ///  defaults (sign/exponent/mantissa probes)
  std::uint64_t seed = 1;   ///< word-draw seed
};

struct SensitivityStep {
  long layer = 0;
  WeightTarget target = WeightTarget::kFloatWeights;
  int bit = 0;
  long word = 0;
  float accuracy_pct = 0.0f;  ///< after committing this flip (cumulative)
  float drop_pct = 0.0f;      ///< clean accuracy minus accuracy_pct
};

/// Greedy weight-domain search; `model` is never mutated. Candidates are
/// evaluated concurrently (deterministic slot writes); ties break toward
/// the earlier candidate, so the committed sequence is reproducible.
std::vector<SensitivityStep> GreedySensitivitySearch(
    const snn::Network& model, approx::Precision precision,
    const EvalFn& eval, const SensitivityOptions& options);

}  // namespace axsnn::faults
