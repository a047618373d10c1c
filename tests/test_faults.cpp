// Fault-subsystem tests: spec labels/validation, the per-word corruption
// ops, injector determinism (same seed -> same bytes, at every kernel mode
// and pool size), surface targeting (int8 codes vs scales vs float words,
// fp16 lattice closure, empty-surface no-ops), the activation hook's
// transient semantics, the fault axis through the scenario engine,
// store-key isolation of corrupted results, the registry fault attacks and
// a pinned greedy sensitivity-search regression.
#include <cstring>
#include <filesystem>
#include <map>

#include <gtest/gtest.h>

#include "attacks/registry.hpp"
#include "approx/precision.hpp"
#include "faults/campaign.hpp"
#include "faults/fault_model.hpp"
#include "faults/inject.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/engine.hpp"
#include "scenario/store.hpp"
#include "snn/conv2d.hpp"
#include "snn/dense.hpp"
#include "snn/lif_layer.hpp"

namespace axsnn {
namespace {

class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) { runtime::SetGlobalThreads(threads); }
  ~ScopedThreads() { runtime::SetGlobalThreads(0); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;
};

/// Unique per-test store directory, removed on scope exit.
class ScopedDir {
 public:
  explicit ScopedDir(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("axsnn_test_faults_" + tag))
                  .string()) {
    std::filesystem::remove_all(path_);
  }
  ~ScopedDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The same miniature bench as test_scenario.cpp / MiniFig2Workbench:
/// seconds to train, deterministic, enough signal that corruption moves
/// accuracy.
core::StaticWorkbench& SharedMiniBench() {
  static core::StaticWorkbench* bench = [] {
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
    d.seed = 51;
    data::StaticDataset train = data::MakeSyntheticMnist(d);
    d.count = 48;
    d.seed = 52;
    data::StaticDataset test = data::MakeSyntheticMnist(d);
    return new core::StaticWorkbench(std::move(train), std::move(test), opts);
  }();
  return *bench;
}

/// One trained checkpoint shared by every injector test (trained once).
const core::StaticWorkbench::TrainedModel& SharedModel() {
  static auto* model = new core::StaticWorkbench::TrainedModel(
      SharedMiniBench().Train(0.25f, 8));
  return *model;
}

snn::Network Variant(approx::Precision precision) {
  core::VariantSpec spec;
  spec.precision = precision;
  return SharedMiniBench().MakeAx(SharedModel(), spec);
}

bool BitIdentical(const std::map<std::string, Tensor>& a,
                  const std::map<std::string, Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [key, tensor] : a) {
    auto it = b.find(key);
    if (it == b.end() || it->second.numel() != tensor.numel()) return false;
    if (std::memcmp(tensor.data(), it->second.data(),
                    sizeof(float) * static_cast<std::size_t>(tensor.numel())) !=
        0)
      return false;
  }
  return true;
}

/// Concatenated int8 codes / fp32 scales of every int8-kernel weight layer.
std::vector<std::int8_t> SnapshotCodes(snn::Network& net) {
  std::vector<std::int8_t> out;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const QuantizedTensor* q = nullptr;
    if (auto* conv = dynamic_cast<snn::Conv2d*>(&net.layer(i));
        conv != nullptr && conv->int8_kernel())
      q = &conv->quantized_weight();
    if (auto* dense = dynamic_cast<snn::Dense*>(&net.layer(i));
        dense != nullptr && dense->int8_kernel())
      q = &dense->quantized_weight();
    if (q != nullptr) out.insert(out.end(), q->flat().begin(), q->flat().end());
  }
  return out;
}

std::vector<float> SnapshotScales(snn::Network& net) {
  std::vector<float> out;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const QuantizedTensor* q = nullptr;
    if (auto* conv = dynamic_cast<snn::Conv2d*>(&net.layer(i));
        conv != nullptr && conv->int8_kernel())
      q = &conv->quantized_weight();
    if (auto* dense = dynamic_cast<snn::Dense*>(&net.layer(i));
        dense != nullptr && dense->int8_kernel())
      q = &dense->quantized_weight();
    if (q != nullptr)
      out.insert(out.end(), q->scales().begin(), q->scales().end());
  }
  return out;
}

// --- spec -------------------------------------------------------------------

TEST(FaultSpec, LabelIsDeterministicAndCompleteEnoughForCacheKeys) {
  EXPECT_EQ(faults::FaultSpec{}.Label(), "none");

  faults::FaultSpec spec;
  spec.kind = faults::FaultKind::kBitFlip;
  spec.ber = 0.001;
  spec.seed = 7;
  EXPECT_EQ(spec.Label(),
            "bitflip{dom=weights,tgt=any,flips=1,ber=0.001,bit=-1,layer=-1,"
            "seed=7}");
  // Every knob lands in the label — two specs differing in any field must
  // never alias in the store.
  faults::FaultSpec other = spec;
  other.seed = 8;
  EXPECT_NE(spec.Label(), other.Label());
  other = spec;
  other.target = faults::WeightTarget::kInt8Scales;
  EXPECT_NE(spec.Label(), other.Label());
  other = spec;
  other.kind = faults::FaultKind::kWordBurst;
  other.burst = 4;
  EXPECT_NE(other.Label().find("burst=4"), std::string::npos);

  faults::FaultSpec act;
  act.kind = faults::FaultKind::kStuckAt1;
  act.domain = faults::FaultDomain::kActivations;
  // tgt= is weight-domain refinement; other domains omit it.
  EXPECT_EQ(act.Label().find("tgt="), std::string::npos);
}

TEST(FaultSpec, ValidateRejectsMalformedSpecs) {
  faults::FaultSpec spec;
  spec.kind = faults::FaultKind::kBitFlip;
  spec.Validate();  // defaults are fine

  faults::FaultSpec bad = spec;
  bad.ber = 1.5;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  bad = spec;
  bad.flips = 0;  // no sites at all
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  bad = spec;
  bad.bit = 32;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  bad = spec;
  bad.kind = faults::FaultKind::kWordBurst;
  bad.burst = 0;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  bad = spec;
  bad.domain = faults::FaultDomain::kActivations;
  bad.ber = 0.01;  // activations have no static surface for a BER
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
}

TEST(FaultModelOps, CorruptionPrimitivesAreExactBitOps) {
  faults::FaultSpec spec;
  spec.kind = faults::FaultKind::kBitFlip;
  auto flip = faults::MakeFaultModel(spec);
  EXPECT_EQ(flip->Corrupt(0b1010u, 32, 0), 0b1011u);
  EXPECT_EQ(flip->Corrupt(0b1010u, 32, 1), 0b1000u);

  spec.kind = faults::FaultKind::kStuckAt0;
  auto clear = faults::MakeFaultModel(spec);
  EXPECT_EQ(clear->Corrupt(0xFFu, 8, 3), 0xF7u);
  EXPECT_EQ(clear->Corrupt(0xF7u, 8, 3), 0xF7u);  // idempotent

  spec.kind = faults::FaultKind::kStuckAt1;
  auto set = faults::MakeFaultModel(spec);
  EXPECT_EQ(set->Corrupt(0x00u, 8, 3), 0x08u);
  EXPECT_EQ(set->Corrupt(0x08u, 8, 3), 0x08u);

  spec.kind = faults::FaultKind::kWordBurst;
  spec.burst = 4;
  auto burst = faults::MakeFaultModel(spec);
  EXPECT_EQ(burst->Corrupt(0x0u, 8, 2), 0b00111100u);
  // The burst wraps at the word width rather than spilling.
  EXPECT_EQ(burst->Corrupt(0x0u, 8, 6), 0b11000011u);

  EXPECT_EQ(faults::MakeFaultModel(faults::FaultSpec{}), nullptr);
}

// --- injector ---------------------------------------------------------------

TEST(FaultInjector, SameSeedIsBitIdenticalDifferentSeedIsNot) {
  faults::FaultSpec spec;
  spec.kind = faults::FaultKind::kBitFlip;
  spec.flips = 24;
  spec.seed = 77;

  snn::Network a = Variant(approx::Precision::kFp32);
  snn::Network b = Variant(approx::Precision::kFp32);
  faults::InjectionReport ra = faults::ApplyFault(a, spec,
                                                  approx::Precision::kFp32);
  faults::InjectionReport rb = faults::ApplyFault(b, spec,
                                                  approx::Precision::kFp32);
  EXPECT_EQ(ra.sites, 24);
  EXPECT_EQ(ra.surface_bits, rb.surface_bits);
  EXPECT_TRUE(BitIdentical(a.StateDict(), b.StateDict()));
  // ... and the corruption actually changed the checkpoint.
  snn::Network clean = Variant(approx::Precision::kFp32);
  EXPECT_FALSE(BitIdentical(a.StateDict(), clean.StateDict()));

  spec.seed = 78;
  snn::Network c = Variant(approx::Precision::kFp32);
  faults::ApplyFault(c, spec, approx::Precision::kFp32);
  EXPECT_FALSE(BitIdentical(a.StateDict(), c.StateDict()));

  // CorruptedClone never mutates its input.
  snn::Network base = Variant(approx::Precision::kFp32);
  const auto before = base.StateDict();
  (void)faults::CorruptedClone(base, spec, approx::Precision::kFp32);
  EXPECT_TRUE(BitIdentical(base.StateDict(), before));
}

TEST(FaultInjector, Int8TargetsIsolateCodesScalesAndFloatWords) {
  faults::FaultSpec spec;
  spec.kind = faults::FaultKind::kBitFlip;
  spec.flips = 16;
  spec.seed = 5;

  // Codes target: int8 codes change, scales and float weights do not.
  spec.target = faults::WeightTarget::kInt8Codes;
  snn::Network codes_hit = Variant(approx::Precision::kInt8);
  snn::Network clean = Variant(approx::Precision::kInt8);
  faults::InjectionReport report =
      faults::ApplyFault(codes_hit, spec, approx::Precision::kInt8);
  EXPECT_EQ(report.sites, 16);
  EXPECT_NE(SnapshotCodes(codes_hit), SnapshotCodes(clean));
  EXPECT_EQ(SnapshotScales(codes_hit), SnapshotScales(clean));
  EXPECT_TRUE(BitIdentical(codes_hit.StateDict(), clean.StateDict()));
  // Corrupted codes stay on the symmetric lattice (-128 is unrepresentable;
  // the SIMD int8 kernels rely on |q| <= 127).
  for (std::int8_t q : SnapshotCodes(codes_hit)) EXPECT_GE(q, -127);

  // Scales target: per-channel fp32 scale words change, codes do not.
  spec.target = faults::WeightTarget::kInt8Scales;
  snn::Network scales_hit = Variant(approx::Precision::kInt8);
  report = faults::ApplyFault(scales_hit, spec, approx::Precision::kInt8);
  EXPECT_GT(report.surface_words, 0);
  EXPECT_EQ(SnapshotCodes(scales_hit), SnapshotCodes(clean));
  EXPECT_NE(SnapshotScales(scales_hit), SnapshotScales(clean));

  // A codes target on a float variant has no surface: documented no-op.
  snn::Network fp32 = Variant(approx::Precision::kFp32);
  const auto before = fp32.StateDict();
  spec.target = faults::WeightTarget::kInt8Codes;
  report = faults::ApplyFault(fp32, spec, approx::Precision::kFp32);
  EXPECT_EQ(report.sites, 0);
  EXPECT_EQ(report.surface_words, 0);
  EXPECT_TRUE(BitIdentical(fp32.StateDict(), before));
}

TEST(FaultInjector, Fp16SurfaceStaysClosedUnderTheBinary16Lattice) {
  faults::FaultSpec spec;
  spec.kind = faults::FaultKind::kBitFlip;
  spec.flips = 64;
  spec.seed = 9;
  snn::Network fp16 = Variant(approx::Precision::kFp16);
  faults::ApplyFault(fp16, spec, approx::Precision::kFp16);
  // Every weight word — corrupted or not — must still be a binary16 value:
  // the fault flipped half-word bits, not fp32 bits.
  for (const auto& [key, tensor] : fp16.StateDict())
    for (long i = 0; i < tensor.numel(); ++i)
      EXPECT_EQ(tensor[i], approx::Fp16Round(tensor[i]))
          << key << "[" << i << "] left the fp16 lattice";

  // And flipping a specific half-word bit round-trips through the bit view.
  const float v = 0.40625f;  // exactly representable in binary16
  const std::uint16_t h = approx::Fp16Bits(v);
  EXPECT_EQ(approx::Fp16FromBits(h), v);
  EXPECT_NE(approx::Fp16FromBits(static_cast<std::uint16_t>(h ^ (1u << 9))),
            v);
}

TEST(FaultInjector, NeuronParamFaultsHitLifRegistersDeterministically) {
  faults::FaultSpec spec;
  spec.kind = faults::FaultKind::kStuckAt1;
  spec.domain = faults::FaultDomain::kNeuronParams;
  spec.flips = 4;
  spec.bit = 30;  // high exponent bit: guaranteed visible change
  spec.seed = 3;

  snn::Network a = Variant(approx::Precision::kFp32);
  snn::Network b = Variant(approx::Precision::kFp32);
  const auto params_of = [](snn::Network& net) {
    std::vector<float> vals;
    for (const snn::LifLayer* lif :
         static_cast<const snn::Network&>(net).LifLayers()) {
      vals.push_back(lif->params().v_threshold);
      vals.push_back(lif->params().beta);
    }
    return vals;
  };
  const std::vector<float> clean = params_of(a);
  faults::InjectionReport report =
      faults::ApplyFault(a, spec, approx::Precision::kFp32);
  faults::ApplyFault(b, spec, approx::Precision::kFp32);
  EXPECT_EQ(report.sites, 4);
  EXPECT_EQ(report.surface_bits,
            static_cast<long>(clean.size()) * 32);  // 2 fp32 words per LIF
  EXPECT_NE(params_of(a), clean);
  EXPECT_EQ(params_of(a), params_of(b));
  // Weight storage is untouched by a neuron-domain fault.
  snn::Network fresh = Variant(approx::Precision::kFp32);
  EXPECT_TRUE(BitIdentical(a.StateDict(), fresh.StateDict()));
}

TEST(FaultInjector, ActivationHookIsTransientAndPathInvariant) {
  core::StaticWorkbench& bench = SharedMiniBench();
  const auto& model = SharedModel();
  const Tensor& images = bench.test_set().images;

  snn::Network clean = Variant(approx::Precision::kFp32);
  const float clean_acc = bench.AccuracyPct(clean, images, model.time_steps);

  faults::FaultSpec spec;
  spec.kind = faults::FaultKind::kStuckAt1;
  spec.domain = faults::FaultDomain::kActivations;
  spec.flips = 1;
  spec.bit = 30;  // force one output lane's exponent high
  spec.layer = static_cast<long>(clean.size()) - 1;  // the classifier head
  spec.seed = 21;

  snn::Network hooked = Variant(approx::Precision::kFp32);
  faults::InjectionReport report =
      faults::ApplyFault(hooked, spec, approx::Precision::kFp32);
  EXPECT_TRUE(report.activation_hook);
  EXPECT_TRUE(hooked.has_post_layer_hook());
  // Transient execution state: a clone restarts fault-free, and the stored
  // weights never changed.
  EXPECT_FALSE(hooked.Clone().has_post_layer_hook());
  EXPECT_TRUE(BitIdentical(hooked.StateDict(), clean.StateDict()));

  const float hooked_acc = bench.AccuracyPct(hooked, images, model.time_steps);
  EXPECT_NE(hooked_acc, clean_acc);  // one stuck logit lane dominates

  // Deterministic: a second network under the same spec evaluates the same.
  snn::Network again = Variant(approx::Precision::kFp32);
  faults::ApplyFault(again, spec, approx::Precision::kFp32);
  EXPECT_EQ(bench.AccuracyPct(again, images, model.time_steps), hooked_acc);
}

// --- engine fault axis ------------------------------------------------------

scenario::ScenarioGrid FaultedMiniGrid() {
  scenario::ScenarioGrid grid;
  grid.v_thresholds = {0.25f};
  grid.time_steps = {8};
  grid.attacks = {scenario::AttackSpec{"none", {}}};
  grid.epsilons = {0.0};
  grid.levels = {0.0};
  faults::FaultSpec heavy;
  heavy.kind = faults::FaultKind::kBitFlip;
  heavy.ber = 5e-3;
  heavy.seed = 101;
  grid.faults = {faults::FaultSpec{}, heavy};
  return grid;
}

TEST(ScenarioFaultAxis, DeterministicAcrossPoolSizesAndKernels) {
  scenario::ScenarioGrid grid = FaultedMiniGrid();
  grid.kernel_modes = {std::nullopt, kernels::KernelMode::kNaive};

  std::vector<float> reference;
  long reference_faulted = -1;
  for (int threads : {1, 4}) {
    ScopedThreads pool(threads);
    scenario::StaticScenarioEngine engine(SharedMiniBench());
    const auto outcome = engine.Run(grid);
    if (reference.empty()) {
      reference = outcome.robustness_pct;
      reference_faulted = outcome.stats.faulted_evals;
      // 1 unit x 2 kernel variants x 1 non-none axis fault.
      EXPECT_EQ(reference_faulted, 2);
    } else {
      ASSERT_EQ(reference.size(), outcome.robustness_pct.size());
      for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_EQ(reference[i], outcome.robustness_pct[i])
            << "pool of " << threads << " changed cell " << i;
      EXPECT_EQ(outcome.stats.faulted_evals, reference_faulted);
    }
  }

  // The kernel-mode axis stays a perf axis under faults: corrupted weights,
  // same bits out of every kernel.
  ScopedThreads pool(4);
  scenario::StaticScenarioEngine engine(SharedMiniBench());
  const auto outcome = engine.Run(grid);
  for (std::size_t ifl = 0; ifl < grid.faults.size(); ++ifl)
    EXPECT_EQ(outcome.Robustness(0, 0, 0, 0, 0, 0, 0, 0, ifl),
              outcome.Robustness(0, 0, 0, 0, 0, 0, 0, 1, ifl))
        << "kernel mode changed faulted cell " << ifl;
  // And the heavy-BER cell genuinely degraded the clean one.
  EXPECT_NE(outcome.Robustness(0, 0, 0, 0, 0, 0, 0, 0, 0),
            outcome.Robustness(0, 0, 0, 0, 0, 0, 0, 0, 1));
}

TEST(ScenarioFaultAxis, FaultFreeGridsReportZeroFaultedEvals) {
  scenario::StaticScenarioEngine engine(SharedMiniBench());
  scenario::ScenarioGrid grid = FaultedMiniGrid();
  grid.faults = {faults::FaultSpec{}};
  const auto outcome = engine.Run(grid);
  EXPECT_EQ(outcome.stats.faulted_evals, 0);
  EXPECT_EQ(outcome.stats.corrupt_entries, 0);
}

TEST(ScenarioFaultAxis, ValidationRejectsMalformedFaultCells) {
  scenario::ScenarioGrid grid = FaultedMiniGrid();
  grid.faults[1].ber = 2.0;
  EXPECT_THROW(scenario::ValidateScenarioGrid(grid, /*for_events=*/false),
               std::invalid_argument);
  grid = FaultedMiniGrid();
  grid.faults.clear();
  EXPECT_THROW(scenario::ValidateScenarioGrid(grid, /*for_events=*/false),
               std::invalid_argument);
  // Malformed fault-attack params fail up front too (stuck must be 0/1).
  grid = FaultedMiniGrid();
  grid.attacks = {scenario::AttackSpec{"stuckat", {{"stuck", 2.0}}}};
  EXPECT_THROW(scenario::ValidateScenarioGrid(grid, /*for_events=*/false),
               std::invalid_argument);
}

TEST(ScenarioFaultAxis, StoreKeysIsolateFaultedFromCleanResults) {
  ScopedDir dir("fault_axis");
  core::StaticWorkbench& bench = SharedMiniBench();

  scenario::ScenarioGrid faulted = FaultedMiniGrid();
  scenario::ScenarioGrid clean = FaultedMiniGrid();
  clean.faults = {faults::FaultSpec{}};
  {
    scenario::StaticScenarioStore store(dir.path(), bench);
    EXPECT_NE(store.GridKey(faulted), store.GridKey(clean));
    scenario::ScenarioGrid reseeded = faulted;
    reseeded.faults[1].seed = 102;
    EXPECT_NE(store.GridKey(faulted), store.GridKey(reseeded));
  }

  // Populate the store with the faulted grid's journal...
  std::vector<float> faulted_results;
  {
    scenario::StaticScenarioStore store(dir.path(), bench);
    scenario::StaticScenarioEngine engine(bench);
    engine.set_store(&store);
    faulted_results = engine.Run(faulted).robustness_pct;
  }
  // ...then resume the *clean* grid against the same store: nothing may
  // replay across the key boundary, and the results must match a store-free
  // clean run exactly.
  scenario::ScenarioOutcome clean_resumed;
  {
    scenario::StaticScenarioStore store(dir.path(), bench);
    scenario::StaticScenarioEngine engine(bench);
    engine.set_store(&store);
    scenario::RunOptions options;
    options.resume = true;
    clean_resumed = engine.Run(clean, options);
  }
  EXPECT_EQ(clean_resumed.stats.replayed_units, 0);
  scenario::StaticScenarioEngine fresh(bench);
  const auto clean_direct = fresh.Run(clean);
  ASSERT_EQ(clean_resumed.robustness_pct.size(),
            clean_direct.robustness_pct.size());
  for (std::size_t i = 0; i < clean_direct.robustness_pct.size(); ++i)
    EXPECT_EQ(clean_resumed.robustness_pct[i], clean_direct.robustness_pct[i]);

  // A faulted-grid resume replays its own journal byte-identically.
  scenario::ScenarioOutcome faulted_resumed;
  {
    scenario::StaticScenarioStore store(dir.path(), bench);
    scenario::StaticScenarioEngine engine(bench);
    engine.set_store(&store);
    scenario::RunOptions options;
    options.resume = true;
    faulted_resumed = engine.Run(faulted, options);
  }
  EXPECT_EQ(faulted_resumed.stats.replayed_units, 1);
  ASSERT_EQ(faulted_resumed.robustness_pct.size(), faulted_results.size());
  for (std::size_t i = 0; i < faulted_results.size(); ++i)
    EXPECT_EQ(faulted_resumed.robustness_pct[i], faulted_results[i]);
}

// --- registry fault attacks -------------------------------------------------

TEST(FaultAttacks, RegisteredWithFaultSemantics) {
  const std::vector<std::string> names = attacks::RegisteredAttackNames();
  // Appended after the seven perturbation builtins — existing index-based
  // expectations stay valid.
  ASSERT_GE(names.size(), 9u);
  EXPECT_NE(std::find(names.begin(), names.end(), "bitflip"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "stuckat"), names.end());

  const attacks::Attack& bitflip = attacks::GetAttack("bitflip");
  EXPECT_TRUE(bitflip.corrupts_model());
  EXPECT_TRUE(bitflip.supports_static());
  EXPECT_TRUE(bitflip.supports_events());
  EXPECT_FALSE(attacks::GetAttack("PGD").corrupts_model());
  EXPECT_THROW(attacks::GetAttack("PGD").FaultFromParams({}),
               std::invalid_argument);

  const faults::FaultSpec spec = bitflip.FaultFromParams(
      {{"flips", 6.0}, {"seed", 3.0}, {"target", 3.0}});
  EXPECT_EQ(spec.kind, faults::FaultKind::kBitFlip);
  EXPECT_EQ(spec.target, faults::WeightTarget::kInt8Scales);
  EXPECT_EQ(spec.flips, 6);
  EXPECT_EQ(spec.seed, 3u);
  // burst > 1 upgrades to a word burst.
  EXPECT_EQ(bitflip.FaultFromParams({{"burst", 4.0}}).kind,
            faults::FaultKind::kWordBurst);

  const attacks::Attack& stuckat = attacks::GetAttack("stuckat");
  EXPECT_EQ(stuckat.FaultFromParams({{"stuck", 1.0}}).kind,
            faults::FaultKind::kStuckAt1);
  EXPECT_EQ(stuckat.FaultFromParams({{"stuck", 0.0}}).kind,
            faults::FaultKind::kStuckAt0);
  EXPECT_THROW(stuckat.FaultFromParams({{"stuck", 2.0}}),
               std::invalid_argument);
  EXPECT_THROW(bitflip.FaultFromParams({{"domain", 5.0}}),
               std::invalid_argument);
  EXPECT_THROW(bitflip.FaultFromParams({{"ber", 1.5}}),
               std::invalid_argument);
  EXPECT_THROW(bitflip.FaultFromParams({{"flipz", 1.0}}),  // typo
               std::invalid_argument);
}

// --- sensitivity search (pinned regression) ---------------------------------

TEST(SensitivitySearch, GreedyRankingIsPinned) {
  // The exact configuration bench/fig8_bitflip.cpp reports: int8 variant of
  // the mini bench's (0.25, 8) checkpoint, three rounds, seed 5. Pinned to
  // the published golden — a change here is a numerical change of the fig8
  // report and must be intentional.
  core::StaticWorkbench& bench = SharedMiniBench();
  const auto& model = SharedModel();
  const Tensor& images = bench.test_set().images;
  const faults::EvalFn eval_fn = [&](snn::Network& victim) {
    return bench.AccuracyPct(victim, images, model.time_steps);
  };
  snn::Network victim = Variant(approx::Precision::kInt8);

  faults::SensitivityOptions opts;
  opts.rounds = 3;
  opts.seed = 5;
  const std::vector<faults::SensitivityStep> steps =
      faults::GreedySensitivitySearch(victim, approx::Precision::kInt8,
                                      eval_fn, opts);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].layer, 4);
  EXPECT_EQ(steps[0].target, faults::WeightTarget::kInt8Scales);
  EXPECT_EQ(steps[0].bit, 30);
  EXPECT_EQ(steps[0].word, 9);
  EXPECT_NEAR(steps[0].accuracy_pct, 100.0f * 4.0f / 48.0f, 1e-3f);
  EXPECT_EQ(steps[1].layer, 0);
  EXPECT_EQ(steps[1].target, faults::WeightTarget::kInt8Codes);
  EXPECT_EQ(steps[1].bit, 7);
  EXPECT_EQ(steps[1].word, 60);
  EXPECT_EQ(steps[2].layer, 0);
  EXPECT_EQ(steps[2].target, faults::WeightTarget::kInt8Codes);
  EXPECT_EQ(steps[2].bit, 7);
  EXPECT_EQ(steps[2].word, 65);
  // The ranking is reproducible wholesale.
  const auto again =
      faults::GreedySensitivitySearch(victim, approx::Precision::kInt8,
                                      eval_fn, opts);
  ASSERT_EQ(again.size(), steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(again[i].word, steps[i].word);
    EXPECT_EQ(again[i].accuracy_pct, steps[i].accuracy_pct);
  }
}

}  // namespace
}  // namespace axsnn
