// dvs_grid: an in-memory DvsScenarioEngine::Run with no store — the traffic
// behind Fig. 7b and Table II (long-T temporal training, Sparse/Frame
// crafting, AQF filtering, event binning, the in-memory model and craft
// caches). Bypasses PGD/BIM and the on-disk store.
#include <memory>
#include <mutex>
#include <sstream>

#include "core/aqf.hpp"
#include "core/workbench.hpp"
#include "data/dvs_gesture.hpp"
#include "data/event.hpp"
#include "grid_common.hpp"
#include "harness.hpp"
#include "probes.hpp"
#include "scenario/engine.hpp"
#include "snn/encoding.hpp"

namespace perfbench {

namespace {

using namespace axsnn;

struct Sizes {
  long train = 32;
  long test = 16;
  long epochs = 2;
  long time_bins = 24;
  long eval_batch = 8;
  long train_batch = 16;
  long sparse_iterations = 4;
};

Sizes SizesFor(const Options& options) {
  Sizes s;
  if (options.reduced) {
    s.train = 16;
    s.test = 8;
    s.epochs = 1;
    s.time_bins = 8;
    s.eval_batch = 8;
    s.train_batch = 8;
    s.sparse_iterations = 1;
  }
  return s;
}

core::DvsWorkbench MakeWorkbench(const Sizes& s, std::uint64_t seed) {
  data::DvsGestureOptions d;
  d.count = s.train;
  d.seed = seed * 1000003ULL + 41;
  data::EventDataset train = data::MakeSyntheticDvsGesture(d);
  d.count = s.test;
  d.seed = seed * 1000003ULL + 59;
  data::EventDataset test = data::MakeSyntheticDvsGesture(d);

  core::DvsWorkbench::Options o;
  o.train.epochs = s.epochs;
  o.train.batch_size = s.train_batch;
  o.train.seed = seed;
  o.time_bins = s.time_bins;
  o.eval_batch = s.eval_batch;
  o.sparse.max_iterations = s.sparse_iterations;
  o.sparse.seed = seed;
  o.net.seed = seed ^ 0xd5eedULL;
  o.seed = seed;
  return core::DvsWorkbench(std::move(train), std::move(test), o);
}

scenario::ScenarioGrid MakeGrid(const Sizes& s) {
  scenario::ScenarioGrid g;
  g.v_thresholds = {0.25f, 0.5f};
  g.time_steps = {s.time_bins};
  g.attacks = {scenario::AttackSpec{"none", {}},
               scenario::AttackSpec{"Sparse", {}},
               scenario::AttackSpec{"Frame", {}}};
  g.epsilons = {0.0};
  g.aqfs = {std::nullopt, core::AqfConfig{}};
  g.precisions = {approx::Precision::kFp32, approx::Precision::kInt8};
  g.levels = {0.0, 0.1};
  return g;
}

struct ColdRun {
  scenario::ScenarioOutcome outcome;
  double wall_s = 0.0;
};

ColdRun RunCold(scenario::DvsScenarioEngine& engine,
                const scenario::ScenarioGrid& grid) {
  ColdRun run;
  const auto start = Clock::now();
  run.outcome = engine.Run(grid);
  run.wall_s = SecondsSince(start);
  return run;
}

/// Traced-run hooks: spans around training and crafting, and a copy of
/// every crafted set for the AQF probe. Must outlive the engine's runs.
struct Hooks {
  Tracer tracer;
  std::mutex mutex;
  std::vector<data::EventDataset> crafted;  // guarded by mutex

  void Install(scenario::DvsScenarioEngine& engine,
               const core::DvsWorkbench& bench) {
    engine.set_train_fn([this, &bench](float vth) {
      Tracer::Span span(&tracer, "scenario.train");
      return bench.Train(vth);
    });
    engine.set_craft_fn([this, &bench](const core::DvsWorkbench::TrainedModel& m,
                                       const scenario::AttackSpec& a) {
      data::EventDataset out;
      {
        Tracer::Span span(&tracer, "scenario.craft");
        Tracer::Span attack(&tracer, "attacks." + LowerName(a.name),
                            static_cast<double>(bench.test_set().size()));
        out = bench.Craft(m, a.name, a.params);
      }
      std::lock_guard<std::mutex> lock(mutex);
      crafted.push_back(out);
      return out;
    });
  }
};

void Probe(const core::DvsWorkbench& bench,
           const core::DvsWorkbench::TrainedModel& model,
           const scenario::ScenarioGrid& grid,
           const std::vector<data::EventDataset>& crafted, const Sizes& s,
           Result& result) {
  const int reps = 5;
  ProbeMakeAx(bench, model, reps, result);

  std::vector<core::VariantSpec> specs;
  for (approx::Precision p : grid.precisions)
    for (double level : grid.levels) specs.push_back({p, level, std::nullopt});
  {
    const auto start = Clock::now();
    (void)bench.EvaluateVariants(model, bench.test_set(), std::nullopt, specs);
    result.Set("core.evaluate_variants.busy_s", SecondsSince(start), "s");
  }

  // AQF over every set the grid crafted (the engine filters each once per
  // AQF-on slice), and event binning of the test streams.
  double aqf_s = 0.0, events_in = 0.0, events_out = 0.0;
  for (const data::EventDataset& set : crafted) {
    const auto start = Clock::now();
    const data::EventDataset filtered =
        core::AqfFilterDataset(set, *grid.aqfs.back());
    aqf_s += SecondsSince(start);
    for (const auto& stream : set.streams) events_in += stream.size();
    for (const auto& stream : filtered.streams) events_out += stream.size();
  }
  result.Set("core.aqf.busy_s", aqf_s, "s");
  result.Set("core.aqf.events_in", events_in, "count");
  result.Set("core.aqf.events_out", events_out, "count");

  Tensor frames;
  {
    const auto start = Clock::now();
    frames = data::BinDataset(bench.test_set(), s.time_bins);
    result.Set("data.bin.busy_s", SecondsSince(start), "s");
  }

  const Tensor eval_in = snn::TimeMajor(Head(frames, s.eval_batch));
  const Tensor train_in = snn::TimeMajor(
      Head(data::BinDataset(bench.train_set(), s.time_bins), s.train_batch));
  snn::Network net = model.net.Clone();
  std::vector<Tensor> captured;
  ProbeForward(net, eval_in, reps, "snn.dvs", "fwd_ms", result, &captured);
  ProbeBackward(net, train_in, reps, "snn.dvs", result);
  ProbeKernels(net, captured, reps, "kernels.dvs", true, result);
}

}  // namespace

Result RunDvsGrid(const Options& options) {
  Result result;
  const Sizes s = SizesFor(options);
  const scenario::ScenarioGrid grid = MakeGrid(s);

  std::unique_ptr<core::DvsWorkbench> bench;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    bench = std::make_unique<core::DvsWorkbench>(MakeWorkbench(s, options.seed));
    setups.push_back(SecondsSince(start));
  }

  {
    std::ostringstream os;
    os << "dvs_grid: train " << s.train << " / test " << s.test
       << " streams 32x32, epochs " << s.epochs << ", T " << s.time_bins
       << ", eval B " << s.eval_batch << ", train B " << s.train_batch
       << ", sparse iterations " << s.sparse_iterations << ", cells "
       << grid.CellCount() << " (units "
       << grid.v_thresholds.size() * grid.attacks.size()
       << "), in memory, no store";
    result.Context(os.str());
  }

  const long cells = static_cast<long>(grid.CellCount());
  if (!options.trace) {
    MeasureColdRuns(options, "dvs_grid", Median(setups), result, [&](int) {
      scenario::DvsScenarioEngine engine(*bench);
      ColdRun cold = RunCold(engine, grid);
      return std::make_pair(std::move(cold.outcome), cold.wall_s);
    });
  } else {
    scenario::DvsScenarioEngine plain(*bench);
    const ColdRun untraced = RunCold(plain, grid);
    result.attempted += cells;
    const std::uint64_t untraced_digest = OutcomeDigest(untraced.outcome);
    CheckDigest(options, untraced_digest, "dvs_grid", result);

    Hooks hooks;
    scenario::DvsScenarioEngine engine(*bench);
    hooks.Install(engine, *bench);
    const ColdRun cold = RunCold(engine, grid);
    result.attempted += cells;
    const std::uint64_t digest = OutcomeDigest(cold.outcome);
    if (digest != untraced_digest)
      result.Violation("traced dvs run digest differs from untraced run");
    CheckOutcome(cold.outcome, result);
    result.Context("dvs_grid: digest " + Hex(digest));
    SetScenarioRows(result, hooks.tracer, cold.outcome.stats, cold.wall_s,
                    untraced.wall_s);
    // Sparse is the gradient-guided event attack: at most one gradient
    // query per stream and iteration.
    result.Set("attacks.grad_queries",
               result.metrics["attacks.sparse.items"].value *
                   static_cast<double>(s.sparse_iterations),
               "count");

    // Served from the engine's model cache: the probes reuse the model the
    // traced run trained.
    const core::DvsWorkbench::TrainedModel& model =
        engine.TrainCached(grid.v_thresholds.front());
    Probe(*bench, model, grid, hooks.crafted, s, result);
  }
  return result;
}

}  // namespace perfbench
