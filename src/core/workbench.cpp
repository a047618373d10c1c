#include "core/workbench.hpp"

#include <algorithm>

#include "runtime/parallel_for.hpp"
#include "snn/inference.hpp"
#include "tensor/check.hpp"

namespace axsnn::core {

namespace {

/// Both workbenches' MakeAx: Eq. (1) plus precision scaling of `net` at the
/// structural T, with the spec's kernel mode (auto when unset).
snn::Network DeriveVariant(const snn::Network& net,
                           const approx::CalibrationStats& calibration,
                           long time_steps, double threshold_gain,
                           const VariantSpec& spec) {
  approx::ApproxConfig cfg;
  cfg.level = spec.level;
  cfg.precision = spec.precision;
  cfg.time_steps = time_steps;
  cfg.threshold_gain = threshold_gain;
  cfg.kernel_mode = spec.kernel_mode.value_or(kernels::KernelMode::kAuto);
  auto [ax, report] = approx::MakeApproximate(net, cfg, calibration);
  (void)report;
  return std::move(ax);
}

/// Both workbenches' EvaluateVariants: one pool task per spec (grain 1)
/// derives its own clone and scores it into its own slot. `score` seeds
/// any randomness itself, so the fan-out is bit-identical to a serial loop.
template <typename Bench, typename ScoreFn>
std::vector<float> ScoreEachVariant(const Bench& bench,
                                    const typename Bench::TrainedModel& model,
                                    std::span<const VariantSpec> specs,
                                    const ScoreFn& score) {
  std::vector<float> robustness(specs.size(), 0.0f);
  runtime::ParallelFor(
      0, static_cast<long>(specs.size()),
      [&](long i) {
        snn::Network ax =
            bench.MakeAx(model, specs[static_cast<std::size_t>(i)]);
        robustness[static_cast<std::size_t>(i)] = score(ax);
      },
      /*grain=*/1);
  return robustness;
}

}  // namespace

std::string AttackName(AttackKind kind) {
  // Index-to-key table only; the canonical display name comes from the
  // registered attack object, so the registry stays the single source of
  // truth (a missing registration throws with the registered list).
  static constexpr std::string_view kRegistryKeys[] = {"none", "PGD", "BIM",
                                                       "Sparse", "Frame"};
  const auto index = static_cast<std::size_t>(kind);
  AXSNN_CHECK(index < std::size(kRegistryKeys),
              "unknown AttackKind " << static_cast<int>(kind));
  return attacks::GetAttack(kRegistryKeys[index]).name();
}

// ---------------------------------------------------------------------------
// StaticWorkbench
// ---------------------------------------------------------------------------

StaticWorkbench::StaticWorkbench(data::StaticDataset train_set,
                                 data::StaticDataset test_set,
                                 Options options)
    : train_(std::move(train_set)),
      test_(std::move(test_set)),
      options_(std::move(options)) {
  AXSNN_CHECK(train_.size() > 0 && test_.size() > 0,
              "workbench needs non-empty train and test sets");
  AXSNN_CHECK(options_.train_time_steps_cap > 0 &&
                  options_.attack_time_steps_cap > 0,
              "time step caps must be positive");
}

StaticWorkbench::TrainedModel StaticWorkbench::Train(float vth,
                                                     long time_steps) const {
  AXSNN_CHECK(time_steps > 0, "time_steps must be positive");
  TrainedModel model;
  model.v_threshold = vth;
  model.time_steps = time_steps;

  snn::StaticNetOptions net_opts = options_.net;
  net_opts.lif.v_threshold = vth;
  model.net = snn::BuildStaticNet(net_opts);

  snn::TrainConfig cfg = options_.train;
  cfg.time_steps = std::min(time_steps, options_.train_time_steps_cap);
  snn::TrainResult result =
      snn::FitStatic(model.net, train_.images, train_.labels, cfg);
  model.train_accuracy_pct = result.final_accuracy * 100.0f;

  // Calibration on a clean test slice at the structural T: this measures the
  // Ns/T and Vm terms of Eq. (1) under deployment conditions.
  const long calib_count = std::min<long>(64, test_.size());
  Shape slice_shape = test_.images.shape();
  slice_shape[0] = calib_count;
  Tensor calib_images(slice_shape);
  std::copy(test_.images.data(),
            test_.images.data() + calib_images.numel(), calib_images.data());
  Rng calib_rng(options_.seed ^ 0xCA11B7ULL);
  Tensor calib_input = snn::EncodeRate(calib_images, time_steps, calib_rng);
  model.calibration = approx::Calibrate(model.net, calib_input);
  return model;
}

Tensor StaticWorkbench::Craft(const TrainedModel& model,
                              std::string_view attack, float epsilon,
                              const attacks::ParamMap& params) const {
  const attacks::Attack& impl = attacks::GetAttack(attack);
  AXSNN_CHECK(impl.supports_static(),
              "attack '" << impl.name()
                         << "' does not apply to static image batches — "
                            "neuromorphic attacks need the DvsWorkbench");
  attacks::StaticCraftContext ctx;
  ctx.epsilon = epsilon;
  ctx.steps = options_.attack_steps;
  ctx.time_steps = std::min(model.time_steps, options_.attack_time_steps_cap);
  ctx.seed = options_.seed ^ 0xA77AC4ULL;
  ctx.batch_size = options_.eval_batch;
  return impl.CraftStatic(model.net, test_.images, test_.labels, ctx, params);
}

Tensor StaticWorkbench::Craft(const TrainedModel& model, AttackKind kind,
                              float epsilon) const {
  return Craft(model, AttackName(kind), epsilon);
}

snn::Network StaticWorkbench::MakeAx(const TrainedModel& model, double level,
                                     approx::Precision precision) const {
  return MakeAx(model, VariantSpec{precision, level, std::nullopt});
}

snn::Network StaticWorkbench::MakeAx(const TrainedModel& model,
                                     const VariantSpec& spec) const {
  return DeriveVariant(model.net, model.calibration, model.time_steps,
                       options_.threshold_gain, spec);
}

float StaticWorkbench::AccuracyPct(snn::Network& victim, const Tensor& images,
                                   long time_steps) const {
  return 100.0f * snn::AccuracyStatic(victim, images, test_.labels,
                                      time_steps, options_.eval_encoding,
                                      options_.seed ^ 0xE7A10ULL,
                                      options_.eval_batch);
}

std::vector<float> StaticWorkbench::EvaluateVariants(
    const TrainedModel& model, const Tensor& images,
    std::span<const VariantSpec> specs) const {
  return ScoreEachVariant(*this, model, specs, [&](snn::Network& ax) {
    return AccuracyPct(ax, images, model.time_steps);
  });
}

// ---------------------------------------------------------------------------
// DvsWorkbench
// ---------------------------------------------------------------------------

DvsWorkbench::DvsWorkbench(data::EventDataset train_set,
                           data::EventDataset test_set, Options options)
    : train_(std::move(train_set)),
      test_(std::move(test_set)),
      options_(std::move(options)) {
  AXSNN_CHECK(train_.size() > 0 && test_.size() > 0,
              "workbench needs non-empty train and test sets");
  AXSNN_CHECK(options_.time_bins > 0, "time_bins must be positive");
  train_frames_ = data::BinDataset(train_, options_.time_bins);
}

DvsWorkbench::TrainedModel DvsWorkbench::Train(float vth) const {
  TrainedModel model;
  model.v_threshold = vth;
  model.time_bins = options_.time_bins;

  snn::DvsNetOptions net_opts = options_.net;
  net_opts.lif.v_threshold = vth;
  net_opts.height = train_.height;
  net_opts.width = train_.width;
  model.net = snn::BuildDvsNet(net_opts);

  snn::TrainConfig cfg = options_.train;
  cfg.time_steps = options_.time_bins;
  snn::TrainResult result =
      snn::FitTemporal(model.net, train_frames_, train_.labels, cfg);
  model.train_accuracy_pct = result.final_accuracy * 100.0f;

  // Calibrate on a clean test slice.
  const long calib_count = std::min<long>(32, test_.size());
  data::EventDataset calib;
  calib.width = test_.width;
  calib.height = test_.height;
  calib.duration_ms = test_.duration_ms;
  calib.streams.assign(test_.streams.begin(),
                       test_.streams.begin() + calib_count);
  calib.labels.assign(test_.labels.begin(),
                      test_.labels.begin() + calib_count);
  Tensor frames = data::BinDataset(calib, options_.time_bins);
  model.calibration =
      approx::Calibrate(model.net, snn::TimeMajor(frames));
  return model;
}

data::EventDataset DvsWorkbench::Craft(const TrainedModel& model,
                                       std::string_view attack,
                                       const attacks::ParamMap& params) const {
  const attacks::Attack& impl = attacks::GetAttack(attack);
  AXSNN_CHECK(impl.supports_events(),
              "attack '" << impl.name()
                         << "' does not apply to event datasets — "
                            "gradient attacks need the StaticWorkbench");
  // Workbench options seed the paper attacks' parameters; explicit caller
  // params win over both the options and the schema defaults.
  attacks::ParamMap merged = DefaultAttackParams(attack);
  for (const auto& [key, value] : params)
    merged.insert_or_assign(key, value);
  attacks::EventCraftContext ctx;
  ctx.time_bins = options_.time_bins;
  ctx.seed = options_.sparse.seed;
  return impl.CraftEvents(model.net, test_, ctx, merged);
}

data::EventDataset DvsWorkbench::Craft(const TrainedModel& model,
                                       AttackKind kind) const {
  return Craft(model, AttackName(kind));
}

attacks::ParamMap DvsWorkbench::DefaultAttackParams(
    std::string_view attack) const {
  attacks::ParamMap params;
  if (attack == "Sparse") {
    params.emplace("max_iterations",
                   static_cast<double>(options_.sparse.max_iterations));
    params.emplace("events_per_iteration",
                   static_cast<double>(options_.sparse.events_per_iteration));
    params.emplace("min_spacing",
                   static_cast<double>(options_.sparse.min_spacing));
  } else if (attack == "Frame") {
    params.emplace("period_ms",
                   static_cast<double>(options_.frame.period_ms));
    params.emplace("border", static_cast<double>(options_.frame.border));
    params.emplace("both_polarities",
                   options_.frame.both_polarities ? 1.0 : 0.0);
  }
  return params;
}

snn::Network DvsWorkbench::MakeAx(const TrainedModel& model, double level,
                                  approx::Precision precision) const {
  return MakeAx(model, VariantSpec{precision, level, std::nullopt});
}

snn::Network DvsWorkbench::MakeAx(const TrainedModel& model,
                                  const VariantSpec& spec) const {
  return DeriveVariant(model.net, model.calibration, model.time_bins,
                       options_.threshold_gain, spec);
}

DvsWorkbench::EvalSet DvsWorkbench::Prepare(
    const data::EventDataset& streams,
    const std::optional<AqfConfig>& aqf) const {
  if (!aqf.has_value())
    return {data::BinDataset(streams, options_.time_bins), streams.labels};
  const data::EventDataset filtered = AqfFilterDataset(streams, *aqf);
  return {data::BinDataset(filtered, options_.time_bins), filtered.labels};
}

float DvsWorkbench::Score(snn::Network& victim, const EvalSet& set) const {
  return 100.0f * snn::AccuracyTemporal(victim, set.frames, set.labels,
                                        options_.eval_batch);
}

float DvsWorkbench::AccuracyPct(snn::Network& victim,
                                const data::EventDataset& streams,
                                const std::optional<AqfConfig>& aqf) const {
  return Score(victim, Prepare(streams, aqf));
}

std::vector<float> DvsWorkbench::EvaluateVariants(
    const TrainedModel& model, const data::EventDataset& streams,
    const std::optional<AqfConfig>& aqf,
    std::span<const VariantSpec> specs) const {
  const EvalSet set = Prepare(streams, aqf);
  return ScoreEachVariant(*this, model, specs,
                          [&](snn::Network& ax) { return Score(ax, set); });
}

}  // namespace axsnn::core
