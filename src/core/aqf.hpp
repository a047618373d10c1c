// Approximate Quantization-aware Filtering (AQF) — the paper's Algorithm 2.
//
// AQF defends event-driven (DVS) inputs, where pixel-space defenses do not
// apply. It exploits the fact that genuine DVS events are spatio-temporally
// correlated (a moving edge activates neighbouring pixels within a short
// window), whereas adversarial perturbation events are not:
//
//  1. Timestamps are quantized with step qt — the "approximate" part, which
//     also reduces downstream event-processing energy.
//  2. An event is kept only if a *neighbouring* pixel (within spatial window
//     s, excluding the pixel itself) fired within the temporal threshold T2
//     before it — uncorrelated events (sparse-attack injections, sensor
//     shot noise) fail this test and are removed.
//  3. Pixels that fire more than T1 times within a T2 window are flagged
//     hyperactive and all their events are removed — this is what defeats
//     the Frame Attack, whose boundary pixels fire continuously.
//
// Defaults (s = 2, T1 = 5, T2 = 50) follow Algorithm 2 line 2 verbatim.
#pragma once

#include "data/event.hpp"

namespace axsnn::core {

/// AQF parameters. Members mirror Algorithm 2's inputs/constants.
struct AqfConfig {
  /// Timestamp quantization step qt in *seconds* (the unit Table II uses:
  /// 0.015 s and 0.01 s). 0 disables quantization.
  float quantization_step_s = 0.015f;
  /// Spatial correlation window s (pixels, Chebyshev radius).
  int spatial_window = 2;
  /// Hyperactivity threshold T1 (events per pixel per T2 window).
  int activity_threshold = 5;
  /// Temporal correlation threshold T2 (ms).
  float temporal_threshold_ms = 50.0f;

  friend bool operator==(const AqfConfig&, const AqfConfig&) = default;
};

/// Statistics of one filtering pass (useful for tests and reports).
struct AqfStats {
  long input_events = 0;
  long removed_uncorrelated = 0;  ///< failed the neighbour-support test
  long removed_hyperactive = 0;   ///< on a pixel flagged by the T1 rule
  long output_events = 0;
};

/// Filters one stream; optionally reports statistics via `stats`.
data::EventStream AqfFilter(const data::EventStream& stream,
                            const AqfConfig& cfg, AqfStats* stats = nullptr);

/// Filters every stream in a dataset (parallel over streams).
data::EventDataset AqfFilterDataset(const data::EventDataset& dataset,
                                    const AqfConfig& cfg);

}  // namespace axsnn::core
