// static_grid: a cold StaticScenarioEngine::Run over a fresh on-disk store —
// the traffic behind Figs. 2-6 and Table I (BPTT crafting, training
// backward, fp32/fp16/int8 evaluation batches, store writes and reads).
// Bypasses serving, AQF and event binning.
#include <filesystem>
#include <memory>
#include <sstream>

#include "core/workbench.hpp"
#include "data/synthetic_mnist.hpp"
#include "faults/inject.hpp"
#include "grid_common.hpp"
#include "harness.hpp"
#include "probes.hpp"
#include "scenario/engine.hpp"
#include "scenario/store.hpp"
#include "snn/encoding.hpp"

namespace perfbench {

namespace {

using namespace axsnn;
namespace fs = std::filesystem;

struct Sizes {
  long train = 256;
  long test = 32;
  long epochs = 2;
  long time_steps = 8;
  long attack_steps = 3;
  long eval_batch = 32;
  long train_batch = 32;
  bool reduced = false;
};

Sizes SizesFor(const Options& options) {
  Sizes s;
  if (options.reduced) {
    s.reduced = true;
    s.train = 64;
    s.test = 16;
    s.epochs = 1;
    s.time_steps = 4;
    s.attack_steps = 1;
    s.eval_batch = 16;
    s.train_batch = 16;
  }
  return s;
}

core::StaticWorkbench MakeWorkbench(const Sizes& s, std::uint64_t seed) {
  data::SyntheticMnistOptions d;
  d.count = s.train;
  d.seed = seed * 1000003ULL + 11;
  data::StaticDataset train = data::MakeSyntheticMnist(d);
  d.count = s.test;
  d.seed = seed * 1000003ULL + 29;
  data::StaticDataset test = data::MakeSyntheticMnist(d);

  core::StaticWorkbench::Options o;
  o.train.epochs = s.epochs;
  o.train.batch_size = s.train_batch;
  o.train.seed = seed;
  o.train_time_steps_cap = s.time_steps;
  o.attack_time_steps_cap = s.time_steps;
  o.attack_steps = s.attack_steps;
  o.eval_batch = s.eval_batch;
  o.net.seed = seed ^ 0x5eedULL;
  o.seed = seed;
  return core::StaticWorkbench(std::move(train), std::move(test), o);
}

scenario::ScenarioGrid MakeGrid(const Sizes& s, std::uint64_t seed) {
  scenario::ScenarioGrid g;
  g.v_thresholds = {0.25f, 0.5f};
  g.time_steps = {s.time_steps};
  g.attacks = {scenario::AttackSpec{"PGD", {}}, scenario::AttackSpec{"BIM", {}}};
  g.epsilons = {0.02, 0.05, 0.1};
  g.precisions = {approx::Precision::kFp32, approx::Precision::kFp16,
                  approx::Precision::kInt8};
  g.levels = {0.0, 0.01, 0.05};
  faults::FaultSpec flip;
  flip.kind = faults::FaultKind::kBitFlip;
  flip.domain = faults::FaultDomain::kActivations;
  flip.flips = 4;
  flip.seed = seed;
  g.faults = {faults::FaultSpec{}, flip};
  return g;
}

long UnitCount(const scenario::ScenarioGrid& g) {
  return static_cast<long>(g.v_thresholds.size() * g.time_steps.size() *
                           g.attacks.size() * g.epsilons.size());
}

/// Fresh, empty store directory for one cold run.
std::string FreshDir(const Options& options, int index) {
  std::ostringstream os;
  os << options.work_dir << "/static_store_" << index;
  fs::remove_all(os.str());
  fs::create_directories(os.str());
  return os.str();
}

double DirBytes(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file()) bytes += static_cast<double>(entry.file_size());
  return bytes;
}

struct ColdRun {
  scenario::ScenarioOutcome outcome;
  double wall_s = 0.0;
};

/// One cold Run: fresh engine, fresh store directory. With a tracer, the
/// train/craft hooks wrap the workbench calls in spans.
ColdRun RunCold(const core::StaticWorkbench& bench,
                scenario::StaticScenarioStore& store,
                const scenario::ScenarioGrid& grid, Tracer* tracer) {
  scenario::StaticScenarioEngine engine(bench);
  engine.set_store(&store);
  if (tracer != nullptr) {
    engine.set_train_fn([&bench, tracer](float vth, long t) {
      Tracer::Span span(tracer, "scenario.train");
      return bench.Train(vth, t);
    });
    engine.set_craft_fn([&bench, tracer](const core::StaticWorkbench::TrainedModel& m,
                                         const scenario::AttackSpec& a, float eps) {
      Tracer::Span span(tracer, "scenario.craft");
      Tracer::Span attack(tracer, "attacks." + LowerName(a.name),
                          static_cast<double>(bench.test_set().size()));
      return bench.Craft(m, a.name, eps, a.params);
    });
  }
  ColdRun run;
  const auto start = Clock::now();
  run.outcome = engine.Run(grid);
  run.wall_s = SecondsSince(start);
  return run;
}

struct WarmRun {
  double wall_s = 0.0;
  long store_hits = 0;  ///< journal records replayed from disk
};

/// Warm rerun gate: a fresh engine over the cold run's store must replay
/// every unit and compute nothing, reproducing the cold digest.
WarmRun CheckWarm(const core::StaticWorkbench& bench, const std::string& dir,
                  const scenario::ScenarioGrid& grid, std::uint64_t cold_digest,
                  Result& result) {
  scenario::StaticScenarioStore store(dir, bench);
  scenario::StaticScenarioEngine engine(bench);
  engine.set_store(&store);
  scenario::RunOptions resume;
  resume.resume = true;
  const auto start = Clock::now();
  const scenario::ScenarioOutcome warm = engine.Run(grid, resume);
  const WarmRun run{SecondsSince(start), store.artifacts().hits()};
  ++result.attempted;
  if (warm.stats.trained_models != 0 || warm.stats.crafted_sets != 0 ||
      warm.stats.replayed_units != UnitCount(grid))
    result.Violation("static warm rerun computed work (trained " +
                     std::to_string(warm.stats.trained_models) + ", crafted " +
                     std::to_string(warm.stats.crafted_sets) + ", replayed " +
                     std::to_string(warm.stats.replayed_units) + ")");
  if (OutcomeDigest(warm) != cold_digest)
    result.Violation("static warm rerun digest differs from the cold run");
  return run;
}

void Probe(const core::StaticWorkbench& bench,
           const core::StaticWorkbench::TrainedModel& model,
           const scenario::ScenarioGrid& grid, const Sizes& s,
           Result& result) {
  const int reps = 5;
  ProbeMakeAx(bench, model, reps, result);

  std::vector<core::VariantSpec> specs;
  for (approx::Precision p : grid.precisions)
    for (double level : grid.levels) specs.push_back({p, level, std::nullopt});
  {
    const auto start = Clock::now();
    (void)bench.EvaluateVariants(model, bench.test_set().images, specs);
    result.Set("core.evaluate_variants.busy_s", SecondsSince(start), "s");
  }
  {
    // The fault axis entry, applied the way the engine applies it: to a
    // fresh variant before evaluation.
    double busy = 0.0;
    for (const core::VariantSpec& spec : specs) {
      snn::Network ax = bench.MakeAx(model, spec);
      const auto start = Clock::now();
      faults::ApplyFault(ax, grid.faults.back(), spec.precision);
      (void)bench.AccuracyPct(ax, bench.test_set().images, model.time_steps);
      busy += SecondsSince(start);
    }
    result.Set("faults.apply.busy_s", busy, "s");
  }

  // Layer table on the workload's own inputs: the rate-encoded test batch
  // at the grid's T (eval B), one sample (B=1) and a training batch.
  Rng rng(bench.options().seed ^ 0x9a9eULL);
  const Tensor eval_in = snn::EncodeRate(
      Head(bench.test_set().images, s.eval_batch), s.time_steps, rng);
  const Tensor one_in = snn::EncodeRate(Head(bench.test_set().images, 1),
                                        s.time_steps, rng);
  const Tensor train_in = snn::EncodeRate(
      Head(bench.train_set().images, s.train_batch), s.time_steps, rng);
  snn::Network net = model.net.Clone();
  std::vector<Tensor> captured;
  ProbeForward(net, eval_in, reps, "snn.static", "fwd_ms", result, &captured);
  ProbeForward(net, one_in, reps * 4, "snn.static", "fwd_b1_ms", result);
  ProbeBackward(net, train_in, reps, "snn.static", result);
  ProbeKernels(net, captured, reps, "kernels.static", false, result);
  snn::Network int8 = bench.MakeAx(model, 0.0, approx::Precision::kInt8);
  Result int8_rows;
  ProbeForward(int8, eval_in, reps, "snn.static_int8", "fwd_ms", int8_rows);
  for (const auto& [name, metric] : int8_rows.metrics)
    if (name.find(".conv") != std::string::npos ||
        name.find(".fc") != std::string::npos)
      result.metrics[name] = metric;
  result.Set("runtime.allocs_per_forward", AllocsPerForward(net, eval_in),
             "count");
  ProbeServing(model.net, bench.test_set().images, s.time_steps,
               bench.options().seed, s.reduced, result);
}

}  // namespace

Result RunStaticGrid(const Options& options) {
  Result result;
  const Sizes s = SizesFor(options);
  const scenario::ScenarioGrid grid = MakeGrid(s, options.seed);
  fs::create_directories(options.work_dir);

  // Set-up: datasets, workbench and store construction (which fingerprints
  // the workbench), repeated.
  std::unique_ptr<core::StaticWorkbench> bench;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::string dir = FreshDir(options, 0);
    const auto start = Clock::now();
    bench = std::make_unique<core::StaticWorkbench>(MakeWorkbench(s, options.seed));
    { scenario::StaticScenarioStore store(dir, *bench); }
    setups.push_back(SecondsSince(start));
    fs::remove_all(dir);
  }

  {
    std::ostringstream os;
    os << "static_grid: train " << s.train << " / test " << s.test
       << " images 16x16, epochs " << s.epochs << ", T " << s.time_steps
       << ", eval B " << s.eval_batch << ", train B " << s.train_batch
       << ", attack steps " << s.attack_steps << ", cells "
       << grid.CellCount() << " (units " << UnitCount(grid)
       << "), faults none + activation bitflip, store on disk";
    result.Context(os.str());
  }

  const long cells = static_cast<long>(grid.CellCount());
  if (!options.trace) {
    MeasureColdRuns(options, "static_grid", Median(setups), result, [&](int i) {
      const std::string dir = FreshDir(options, i + 1);
      scenario::StaticScenarioStore store(dir, *bench);
      ColdRun cold = RunCold(*bench, store, grid, nullptr);
      CheckWarm(*bench, dir, grid, OutcomeDigest(cold.outcome), result);
      fs::remove_all(dir);
      return std::make_pair(std::move(cold.outcome), cold.wall_s);
    });
  } else {
    // Untraced reference run, then the traced run on a fresh store.
    const std::string dir_u = FreshDir(options, 1);
    std::uint64_t untraced_digest = 0;
    double untraced_wall = 0.0;
    {
      scenario::StaticScenarioStore store(dir_u, *bench);
      const ColdRun cold = RunCold(*bench, store, grid, nullptr);
      untraced_digest = OutcomeDigest(cold.outcome);
      untraced_wall = cold.wall_s;
      result.attempted += cells;
      CheckDigest(options, untraced_digest, "static_grid", result);
    }
    fs::remove_all(dir_u);

    Tracer tracer;
    const std::string dir = FreshDir(options, 2);
    scenario::StaticScenarioStore store(dir, *bench);
    const ColdRun cold = RunCold(*bench, store, grid, &tracer);
    result.attempted += cells;
    const std::uint64_t digest = OutcomeDigest(cold.outcome);
    if (digest != untraced_digest)
      result.Violation("traced static run digest differs from untraced run");
    CheckOutcome(cold.outcome, result);
    result.Context("static_grid: digest " + Hex(digest));

    SetScenarioRows(result, tracer, cold.outcome.stats, cold.wall_s,
                    untraced_wall);
    // Misses, writes and bytes of the cold run; hits of the warm rerun,
    // which reads back every journal record the cold run wrote.
    const scenario::ArtifactStore& a = store.artifacts();
    const WarmRun warm = CheckWarm(*bench, dir, grid, digest, result);
    result.Set("store.hits", static_cast<double>(warm.store_hits), "count");
    result.Set("store.misses", static_cast<double>(a.misses()), "count");
    result.Set("store.writes", static_cast<double>(a.writes()), "count");
    result.Set("store.corrupt", static_cast<double>(a.corrupt_entries()),
               "count");
    result.Set("store.bytes_written", DirBytes(dir), "bytes");
    result.Set("store.warm_rerun_s", warm.wall_s, "s");
    result.Set("faults.apply.count",
               static_cast<double>(cold.outcome.stats.faulted_evals), "count");
    result.Set("attacks.grad_queries",
               static_cast<double>(cold.outcome.stats.crafted_sets) *
                   static_cast<double>(s.test * s.attack_steps),
               "count");

    scenario::StaticScenarioEngine engine(*bench);
    engine.set_store(&store);
    const core::StaticWorkbench::TrainedModel& model =
        engine.TrainCached(grid.v_thresholds.front(), s.time_steps);
    Probe(*bench, model, grid, s, result);
    fs::remove_all(dir);
  }
  return result;
}

}  // namespace perfbench
