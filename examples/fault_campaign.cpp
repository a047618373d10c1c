// Fault-campaign walkthrough: corrupt a trained SNN's storage with
// deterministic bit-flips and measure how accuracy degrades — the
// NeuroAttack-style threat surface (src/faults/) the scenario engine sweeps
// as its fault axis.
//
// Shows the three entry points:
//   1. the attack registry's "bitflip" fault attack (the spec an engine
//      grid would carry) resolved to a FaultSpec and applied clone-first;
//   2. a BER / flip-count sweep as a ScenarioGrid whose fault axis carries
//      one FaultSpec per (point, seed) — the same axis fig8_bitflip sweeps;
//   3. GreedySensitivitySearch: ranking the weakest storage bits.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/example_fault_campaign
#include <iostream>
#include <vector>

#include "attacks/registry.hpp"
#include "core/workbench.hpp"
#include "data/synthetic_mnist.hpp"
#include "faults/campaign.hpp"
#include "faults/inject.hpp"
#include "scenario/engine.hpp"

using namespace axsnn;

int main() {
  // A miniature workbench: seconds to train, yet enough signal that
  // corruption visibly moves accuracy.
  core::StaticWorkbench::Options opts;
  opts.net.lif.v_threshold = 0.25f;
  opts.train.epochs = 2;
  opts.train.batch_size = 32;
  opts.train_time_steps_cap = 6;
  opts.attack_time_steps_cap = 6;
  opts.attack_steps = 3;
  opts.eval_batch = 64;

  data::SyntheticMnistOptions d;
  d.count = 192;
  d.seed = 21;
  data::StaticDataset train = data::MakeSyntheticMnist(d);
  d.count = 48;
  d.seed = 22;
  data::StaticDataset test = data::MakeSyntheticMnist(d);
  core::StaticWorkbench workbench(std::move(train), std::move(test), opts);

  // Trained through the engine's cache, so the sweep in step 2 reuses it.
  scenario::StaticScenarioEngine engine(workbench);
  const auto& model = engine.TrainCached(0.25f, 8);
  std::cout << "trained AccSNN: train accuracy " << model.train_accuracy_pct
            << "%\n";

  // The int8 variant is the interesting victim: its storage is 8-bit codes
  // plus per-channel fp32 scale words, both addressable fault surfaces.
  core::VariantSpec spec;
  spec.precision = approx::Precision::kInt8;
  snn::Network victim = workbench.MakeAx(model, spec);
  const float clean =
      workbench.AccuracyPct(victim, workbench.test_set().images,
                            model.time_steps);
  std::cout << "int8 variant clean accuracy: " << clean << "%\n";

  // 1. Registry route: the "bitflip" fault attack carries its FaultSpec in
  //    ordinary attack params, so scenario grids sweep it like PGD.
  const attacks::Attack& bitflip = attacks::GetAttack("bitflip");
  const faults::FaultSpec attack_spec =
      bitflip.FaultFromParams({{"flips", 16}, {"seed", 9}});
  faults::InjectionReport report;
  snn::Network corrupted =
      faults::CorruptedClone(victim, attack_spec, spec.precision, &report);
  const float hit =
      workbench.AccuracyPct(corrupted, workbench.test_set().images,
                            model.time_steps);
  std::cout << "registry attack " << attack_spec.Label() << ": " << report.sites
            << " sites over " << report.surface_bits << " surface bits -> "
            << hit << "% (clean " << clean << "%)\n";

  // 2. Sweep: BER points then flip-count points, two seeds each, as the
  //    fault axis of a one-cell grid on the clean test set. The engine
  //    clones the variant per fault entry; the model is never mutated.
  const std::vector<double> bers = {1e-4, 1e-3, 1e-2};
  const std::vector<long> flip_counts = {1, 8, 32};
  const long trials = 2;
  scenario::ScenarioGrid grid;
  grid.v_thresholds = {0.25f};
  grid.time_steps = {8};
  grid.attacks = {scenario::AttackSpec{"none", {}}};
  grid.epsilons = {0.0};
  grid.precisions = {spec.precision};
  grid.levels = {spec.level};
  grid.faults = {faults::FaultSpec{}};  // entry 0: the clean variant
  const auto add_point = [&](double ber, long flips) {
    for (long t = 0; t < trials; ++t) {
      faults::FaultSpec fault;
      fault.kind = faults::FaultKind::kBitFlip;
      fault.ber = ber;
      fault.flips = flips;
      fault.seed = 31 + static_cast<std::uint64_t>(t);
      grid.faults.push_back(fault);
    }
  };
  for (double ber : bers) add_point(ber, 0);
  for (long flips : flip_counts) add_point(0.0, flips);
  const scenario::ScenarioOutcome sweep = engine.Run(grid);
  const auto accuracy = [&](std::size_t fault_i) {
    return sweep.Robustness(0, 0, 0, 0, 0, 0, 0, 0, fault_i);
  };

  std::cout << "sweep (clean " << accuracy(0) << "%, "
            << sweep.stats.faulted_evals << " faulted evaluations, "
            << sweep.stats.trained_models << " models trained):\n";
  std::size_t fault_i = 1;
  const auto print_point = [&](const char* axis, double value) {
    double sum = 0.0;
    for (long t = 0; t < trials; ++t) sum += accuracy(fault_i++);
    std::cout << "  " << axis << " " << value << " -> "
              << sum / static_cast<double>(trials) << "%\n";
  };
  for (double ber : bers) print_point("ber", ber);
  for (long flips : flip_counts)
    print_point("flips", static_cast<double>(flips));

  // 3. Sensitivity ranking: greedily commit the single most damaging flip,
  //    three rounds — the bits a protection scheme should harden first.
  const faults::EvalFn eval_fn = [&](snn::Network& net) {
    return workbench.AccuracyPct(net, workbench.test_set().images,
                                 model.time_steps);
  };
  faults::SensitivityOptions sopts;
  sopts.rounds = 3;
  sopts.seed = 13;
  const auto steps = faults::GreedySensitivitySearch(victim, spec.precision,
                                                     eval_fn, sopts);
  std::cout << "sensitivity ranking (most damaging first):\n";
  for (const faults::SensitivityStep& s : steps)
    std::cout << "  layer " << s.layer << " "
              << faults::WeightTargetName(s.target) << " bit " << s.bit
              << " word " << s.word << " -> " << s.accuracy_pct << "% (drop "
              << s.drop_pct << "%)\n";
  return 0;
}
