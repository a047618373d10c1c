// Workload traits: what the scenario engine (engine.hpp) and its on-disk
// store (store.hpp) need to know about one workbench family — and nothing
// else. The sweep itself (Algorithm 1: train per structural cell, craft,
// score every approximate variant) is written once against these traits.
//
//   StaticWorkload  StaticWorkbench, crafted Tensor, T = grid.time_steps[it],
//                   epsilon is part of every craft key; AQF ignored, so a
//                   crafted set is scored as it is
//   DvsWorkload     DvsWorkbench, crafted EventDataset, T = the workbench
//                   binning, no epsilon (event attacks have none); a crafted
//                   set is AQF-filtered (when the slice asks) and binned
//                   once per slice before scoring
//
// A DVS grid validates to single time/epsilon entries, so the static unit
// numbering, block offsets and phase-1 cell list apply to it unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/workbench.hpp"
#include "data/event_io.hpp"
#include "scenario/scenario.hpp"
#include "tensor/serialize.hpp"

namespace axsnn::scenario {

/// Store envelope payload kinds. A kind mismatch (a craft key colliding with
/// a model file, say) reads as corrupt, never as a silently wrong payload.
inline constexpr std::uint32_t kArtifactStaticModel = 1;
inline constexpr std::uint32_t kArtifactDvsModel = 2;
inline constexpr std::uint32_t kArtifactCraftTensor = 3;
inline constexpr std::uint32_t kArtifactCraftEvents = 4;
inline constexpr std::uint32_t kArtifactUnit = 5;
inline constexpr std::uint32_t kArtifactTotals = 6;

using AqfSlice = std::optional<core::AqfConfig>;

struct StaticWorkload {
  using Bench = core::StaticWorkbench;
  using TrainedModel = Bench::TrainedModel;
  using Crafted = Tensor;
  using TrainFn = std::function<TrainedModel(float vth, long time_steps)>;
  using CraftFn = std::function<Tensor(
      const TrainedModel& model, const AttackSpec& attack, float epsilon)>;

  static constexpr bool kForEvents = false;  ///< ValidateScenarioGrid rules
  static constexpr const char* kFamily = "static";  ///< grid-key namespace
  static constexpr std::uint32_t kModelKind = kArtifactStaticModel;
  static constexpr std::uint32_t kCraftKind = kArtifactCraftTensor;

  // --- engine hooks ---
  static TrainFn DefaultTrain(const Bench& bench) {
    return [&bench](float vth, long t) { return bench.Train(vth, t); };
  }
  static CraftFn DefaultCraft(const Bench& bench) {
    return [&bench](const TrainedModel& model, const AttackSpec& attack,
                    float epsilon) {
      return bench.Craft(model, attack.name, epsilon, attack.params);
    };
  }
  static TrainedModel Train(const TrainFn& fn, float vth, long time_steps) {
    return fn(vth, time_steps);
  }
  static Crafted Craft(const CraftFn& fn, const TrainedModel& model,
                       const AttackSpec& attack, double epsilon) {
    return fn(model, attack, static_cast<float>(epsilon));
  }
  /// T of every structural cell when the workbench fixes it; nullopt: the
  /// grid's time_steps axis.
  static std::optional<long> TimeOverride(const Bench&) { return {}; }
  /// The crafted set as every variant of one aqf slice scores it.
  static const Tensor& Prepare(const Bench&, const Crafted& crafted,
                               const AqfSlice&) {
    return crafted;
  }
  static float Score(const Bench& bench, const TrainedModel& model,
                     snn::Network& victim, const Tensor& images) {
    return bench.AccuracyPct(victim, images, model.time_steps);
  }

  // --- store hooks ---
  static std::uint64_t Fingerprint(const Bench& bench);  // store.cpp
  /// Craft-key suffix naming the epsilon ("" where epsilon is ignored).
  static std::string EpsilonKey(double epsilon);  // store.cpp
  /// Rebuilds the untrained net of a structural cell into `out` (weights
  /// and meta are restored by the store).
  static void Rebuild(const Bench& bench, float vth, long time_steps,
                      TrainedModel& out) {
    snn::StaticNetOptions net_opts = bench.options().net;
    net_opts.lif.v_threshold = vth;
    out.net = snn::BuildStaticNet(net_opts);
    out.v_threshold = vth;
    out.time_steps = time_steps;
  }
  static void WriteCraft(std::ostream& os, const Crafted& crafted) {
    WriteTensor(os, crafted);
  }
  static Crafted ReadCraft(std::istream& is) { return ReadTensor(is); }
};

struct DvsWorkload {
  using Bench = core::DvsWorkbench;
  using TrainedModel = Bench::TrainedModel;
  using Crafted = data::EventDataset;
  using TrainFn = std::function<TrainedModel(float vth)>;
  using CraftFn = std::function<data::EventDataset(const TrainedModel& model,
                                                   const AttackSpec& attack)>;

  static constexpr bool kForEvents = true;
  static constexpr const char* kFamily = "dvs";
  static constexpr std::uint32_t kModelKind = kArtifactDvsModel;
  static constexpr std::uint32_t kCraftKind = kArtifactCraftEvents;

  static TrainFn DefaultTrain(const Bench& bench) {
    return [&bench](float vth) { return bench.Train(vth); };
  }
  static CraftFn DefaultCraft(const Bench& bench) {
    return [&bench](const TrainedModel& model, const AttackSpec& attack) {
      return bench.Craft(model, attack.name, attack.params);
    };
  }
  static TrainedModel Train(const TrainFn& fn, float vth, long) {
    return fn(vth);
  }
  static Crafted Craft(const CraftFn& fn, const TrainedModel& model,
                       const AttackSpec& attack, double) {
    return fn(model, attack);
  }
  static std::optional<long> TimeOverride(const Bench& bench) {
    return bench.options().time_bins;
  }
  static Bench::EvalSet Prepare(const Bench& bench, const Crafted& crafted,
                                const AqfSlice& aqf) {
    return bench.Prepare(crafted, aqf);
  }
  static float Score(const Bench& bench, const TrainedModel&,
                     snn::Network& victim, const Bench::EvalSet& set) {
    return bench.Score(victim, set);
  }

  static std::uint64_t Fingerprint(const Bench& bench);
  static std::string EpsilonKey(double epsilon);
  static void Rebuild(const Bench& bench, float vth, long time_steps,
                      TrainedModel& out) {
    snn::DvsNetOptions net_opts = bench.options().net;
    net_opts.lif.v_threshold = vth;
    net_opts.height = bench.train_set().height;
    net_opts.width = bench.train_set().width;
    out.net = snn::BuildDvsNet(net_opts);
    out.v_threshold = vth;
    out.time_bins = time_steps;
  }
  static void WriteCraft(std::ostream& os, const Crafted& crafted) {
    data::WriteEventDataset(os, crafted);
  }
  static Crafted ReadCraft(std::istream& is) {
    return data::ReadEventDataset(is);
  }
};

}  // namespace axsnn::scenario
