#include "scenario/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "faults/inject.hpp"
#include "runtime/parallel_for.hpp"
#include "scenario/store.hpp"
#include "tensor/check.hpp"

namespace axsnn::scenario {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint32_t FloatKeyBits(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// The per-unit variant list: the precision x level x kernel part of the
/// documented nesting, in cell order. The aqf coordinate is not a variant
/// property (Run evaluates one aqf slice at a time) and the fault axis is
/// applied per (variant, fault) pair, so callers place this list per slice.
std::vector<core::VariantSpec> VariantBlock(const ScenarioGrid& grid) {
  std::vector<core::VariantSpec> specs;
  specs.reserve(grid.precisions.size() * grid.levels.size() *
                grid.kernel_modes.size());
  for (approx::Precision precision : grid.precisions)
    for (double level : grid.levels)
      for (const std::optional<kernels::KernelMode>& mode : grid.kernel_modes)
        specs.push_back({precision, level, mode});
  return specs;
}

/// Attack-level fault: a corrupts_model() attack (bitflip, stuckat) derives
/// one spec from its params; perturbation attacks contribute none.
faults::FaultSpec AttackFault(const AttackSpec& attack) {
  const attacks::Attack& impl = attacks::GetAttack(attack.name);
  return impl.corrupts_model() ? impl.FaultFromParams(attack.params)
                               : faults::FaultSpec{};
}

/// What Run does with one work unit.
enum class UnitPlan : char {
  kCompute,  ///< train/craft/evaluate (and journal when a store is attached)
  kSkip,     ///< owned by another shard; cells stay unevaluated
  kReplay,   ///< journaled result replays from the store
};

void ValidateRunOptions(const RunOptions& options, const void* store) {
  if (options.shard.has_value()) {
    AXSNN_CHECK(options.shard->count > 0 && options.shard->index >= 0 &&
                    options.shard->index < options.shard->count,
                "shard spec must satisfy 0 <= index < count, got "
                    << options.shard->index << "/" << options.shard->count);
  }
  AXSNN_CHECK(!options.resume || store != nullptr,
              "resume requires an attached scenario store (set_store)");
}

/// Copies a replayed journal record into the unit's outcome block.
void ApplyReplay(const UnitRecord& record, std::size_t base, std::size_t block,
                 ScenarioOutcome& outcome) {
  for (std::size_t i = 0; i < block; ++i)
    outcome.train_accuracy_pct[base + i] = record.train_accuracy_pct;
  if (record.gated) return;  // robustness stays NaN, evaluated stays false
  for (std::size_t i = 0; i < block; ++i) {
    outcome.robustness_pct[base + i] = record.robustness[i];
    outcome.evaluated[base + i] = 1;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ScenarioEngine
// ---------------------------------------------------------------------------

template <typename W>
ScenarioEngine<W>::ScenarioEngine(const Bench& bench)
    : bench_(bench),
      train_fn_(W::DefaultTrain(bench)),
      craft_fn_(W::DefaultCraft(bench)) {}

template <typename W>
void ScenarioEngine<W>::set_train_fn(TrainFn fn) {
  AXSNN_CHECK(fn != nullptr, "train hook must be callable");
  train_fn_ = std::move(fn);
}

template <typename W>
void ScenarioEngine<W>::set_craft_fn(CraftFn fn) {
  AXSNN_CHECK(fn != nullptr, "craft hook must be callable");
  craft_fn_ = std::move(fn);
}

template <typename W>
const typename W::TrainedModel& ScenarioEngine<W>::TrainCached(
    float vth, long time_steps) {
  AXSNN_CHECK(W::TimeOverride(bench_).value_or(time_steps) == time_steps,
              "this workbench fixes T by its binning; got T=" << time_steps);
  const ModelKey key{FloatKeyBits(vth), time_steps, bench_.options().seed};
  return model_cache_.GetOrCompute(key, [&] {
    if (store_ != nullptr) {
      TrainedModel from_disk;
      if (store_->LoadModel(vth, time_steps, from_disk)) {
        store_model_hits_.fetch_add(1, std::memory_order_relaxed);
        return from_disk;
      }
    }
    TrainedModel fresh = W::Train(train_fn_, vth, time_steps);
    computed_trains_.fetch_add(1, std::memory_order_relaxed);
    if (store_ != nullptr) store_->SaveModel(vth, time_steps, fresh);
    return fresh;
  });
}

template <typename W>
const typename W::Crafted& ScenarioEngine<W>::CraftCached(
    const TrainedModel& model, float vth, long time_steps,
    const AttackSpec& attack, double epsilon) {
  // Collision-free key: structural cell + attack identity (the
  // deterministic label includes parameter overrides) + exact epsilon bits
  // where the workload uses an epsilon.
  std::ostringstream key;
  key << 'v' << FloatKeyBits(vth) << "|t" << time_steps << '|'
      << attack.Label() << W::EpsilonKey(epsilon);
  return craft_cache_.GetOrCompute(key.str(), [&] {
    if (store_ != nullptr) {
      Crafted from_disk;
      if (store_->LoadCraft(vth, time_steps, attack, epsilon, from_disk)) {
        store_craft_hits_.fetch_add(1, std::memory_order_relaxed);
        return from_disk;
      }
    }
    Crafted fresh = W::Craft(craft_fn_, model, attack, epsilon);
    computed_crafts_.fetch_add(1, std::memory_order_relaxed);
    if (store_ != nullptr)
      store_->SaveCraft(vth, time_steps, attack, epsilon, fresh);
    return fresh;
  });
}

template <typename W>
ScenarioOutcome ScenarioEngine<W>::Run(const ScenarioGrid& grid,
                                       const RunOptions& options) {
  ValidateScenarioGrid(grid, W::kForEvents);
  ValidateRunOptions(options, store_);

  const std::optional<long> time_override = W::TimeOverride(bench_);
  ScenarioOutcome outcome;
  outcome.grid = grid;
  outcome.cells = ExpandScenarioGrid(grid, time_override);
  const std::size_t cell_count = outcome.cells.size();
  outcome.robustness_pct.assign(cell_count,
                                std::numeric_limits<float>::quiet_NaN());
  outcome.train_accuracy_pct.assign(cell_count, 0.0f);
  outcome.evaluated.assign(cell_count, 0);

  const auto run_start = Clock::now();
  const long train_hits0 = model_cache_.hits();
  const long craft_hits0 = craft_cache_.hits();
  const long computed_trains0 = computed_trains_.load();
  const long computed_crafts0 = computed_crafts_.load();
  const long store_model_hits0 = store_model_hits_.load();
  const long store_craft_hits0 = store_craft_hits_.load();
  std::atomic<long> gated_units{0};
  std::atomic<long> replayed_units{0};
  std::atomic<long> faulted_evals{0};

  const std::vector<core::VariantSpec> variants = VariantBlock(grid);
  const std::size_t fault_count = grid.faults.size();
  const std::size_t slice_size = variants.size() * fault_count;
  const std::size_t block = grid.aqfs.size() * slice_size;  // cells per unit
  const long vth_count = static_cast<long>(grid.v_thresholds.size());
  const long time_count = static_cast<long>(grid.time_steps.size());
  const long attack_count = static_cast<long>(grid.attacks.size());
  const long eps_count = static_cast<long>(grid.epsilons.size());
  const long unit_count = vth_count * time_count * attack_count * eps_count;
  const auto cell_time = [&](std::size_t it) {
    return time_override.value_or(grid.time_steps[it]);
  };

  // Unit planning: shard partition (unit % N), then journal replay for
  // resumed runs. The replay probe is sequential disk I/O — cheap next to
  // training — and a record whose block size disagrees with this grid is
  // treated as absent (defensive; the grid key already pins the axes).
  const std::string grid_key =
      store_ != nullptr ? store_->GridKey(grid) : std::string();
  std::vector<UnitPlan> plan(static_cast<std::size_t>(unit_count),
                             UnitPlan::kCompute);
  std::vector<UnitRecord> replay(static_cast<std::size_t>(unit_count));
  for (long unit = 0; unit < unit_count; ++unit) {
    if (options.shard.has_value() && !options.shard->Owns(unit)) {
      plan[static_cast<std::size_t>(unit)] = UnitPlan::kSkip;
      continue;
    }
    if (!options.resume) continue;
    UnitRecord record;
    if (store_->LoadUnit(grid_key, unit, record) &&
        (record.gated || record.robustness.size() == block)) {
      plan[static_cast<std::size_t>(unit)] = UnitPlan::kReplay;
      replay[static_cast<std::size_t>(unit)] = std::move(record);
    }
  }

  // Phase 1: train every structural cell that still has a unit to compute,
  // cells in parallel. Replayed/foreign-shard units never touch a model, so
  // a warm resume trains nothing.
  std::vector<long> needed_cells;
  std::vector<char> cell_needed(
      static_cast<std::size_t>(vth_count * time_count), 0);
  for (long unit = 0; unit < unit_count; ++unit) {
    if (plan[static_cast<std::size_t>(unit)] != UnitPlan::kCompute) continue;
    const long cell = unit / (attack_count * eps_count);
    if (!cell_needed[static_cast<std::size_t>(cell)]) {
      cell_needed[static_cast<std::size_t>(cell)] = 1;
      needed_cells.push_back(cell);
    }
  }
  runtime::ParallelFor(
      0, static_cast<long>(needed_cells.size()),
      [&](long i) {
        const long cell = needed_cells[static_cast<std::size_t>(i)];
        (void)TrainCached(
            grid.v_thresholds[static_cast<std::size_t>(cell / time_count)],
            cell_time(static_cast<std::size_t>(cell % time_count)));
      },
      /*grain=*/1);
  outcome.stats.train_seconds = SecondsSince(run_start);

  // Phase 2: one work unit per (structural cell, attack, epsilon) — craft
  // once, then evaluate the variant block per aqf slice. Each unit owns a
  // contiguous slice of the outcome, so the fan-out is bit-identical at any
  // pool size and across any shard split.
  const auto sweep_start = Clock::now();

  runtime::ParallelFor(
      0, unit_count,
      [&](long unit) {
        if (plan[static_cast<std::size_t>(unit)] == UnitPlan::kSkip) return;

        long rest = unit;
        const std::size_t ie = static_cast<std::size_t>(rest % eps_count);
        rest /= eps_count;
        const std::size_t ia = static_cast<std::size_t>(rest % attack_count);
        rest /= attack_count;
        const std::size_t it = static_cast<std::size_t>(rest % time_count);
        const std::size_t iv = static_cast<std::size_t>(rest / time_count);
        const std::size_t base = grid.Index(iv, it, ia, ie, 0, 0, 0, 0);

        if (plan[static_cast<std::size_t>(unit)] == UnitPlan::kReplay) {
          ApplyReplay(replay[static_cast<std::size_t>(unit)], base, block,
                      outcome);
          replayed_units.fetch_add(1, std::memory_order_relaxed);
          return;
        }

        const float vth = grid.v_thresholds[iv];
        const long t = cell_time(it);
        const AttackSpec& attack = grid.attacks[ia];
        const TrainedModel& model = TrainCached(vth, t);

        for (std::size_t i = 0; i < block; ++i)
          outcome.train_accuracy_pct[base + i] = model.train_accuracy_pct;

        UnitRecord record;
        record.train_accuracy_pct = model.train_accuracy_pct;
        if (grid.min_train_accuracy_pct.has_value() &&
            model.train_accuracy_pct < *grid.min_train_accuracy_pct) {
          gated_units.fetch_add(1, std::memory_order_relaxed);
          record.gated = true;
          if (store_ != nullptr) store_->SaveUnit(grid_key, unit, record);
          return;  // robustness stays NaN, evaluated stays false
        }

        // Craft through the in-memory cache (persistent across Run calls),
        // which itself consults the disk store before computing.
        const Crafted& adversarial =
            CraftCached(model, vth, t, attack, grid.epsilons[ie]);

        // Each aqf slice prepares the crafted set once (DVS: filter and
        // bin), then clones, corrupts and scores every (variant, fault)
        // pair on the pool — each pair owns its slot, so the fan-out stays
        // bit-identical at any pool size. The attack's fault (if any)
        // applies before the axis fault, on the variant's own precision
        // surface; a pair with neither is scored on the clean clone. A
        // slice whose aqf entry repeats an earlier one copies that slice
        // (static grids: every entry is disengaged, so one evaluation fills
        // the unit).
        const faults::FaultSpec attack_fault = AttackFault(attack);
        for (std::size_t iq = 0; iq < grid.aqfs.size(); ++iq) {
          const AqfSlice& aqf = grid.aqfs[iq];
          const long offset = static_cast<long>(base + iq * slice_size);
          const auto slice = outcome.robustness_pct.begin() + offset;
          std::fill_n(outcome.evaluated.begin() + offset, slice_size, 1);
          const std::size_t first = static_cast<std::size_t>(
              std::find(grid.aqfs.begin(), grid.aqfs.end(), aqf) -
              grid.aqfs.begin());
          if (first < iq) {
            std::copy_n(slice - static_cast<long>((iq - first) * slice_size),
                        slice_size, slice);
            continue;
          }
          const auto& prepared = W::Prepare(bench_, adversarial, aqf);
          runtime::ParallelFor(
              0, static_cast<long>(slice_size),
              [&](long j) {
                const std::size_t ifl =
                    static_cast<std::size_t>(j) % fault_count;
                const core::VariantSpec& vspec =
                    variants[static_cast<std::size_t>(j) / fault_count];
                snn::Network ax = bench_.MakeAx(model, vspec);
                bool faulted = false;
                for (const faults::FaultSpec* fault :
                     {&attack_fault, &grid.faults[ifl]}) {
                  if (fault->is_none()) continue;
                  faults::ApplyFault(ax, *fault, vspec.precision);
                  faulted = true;
                }
                if (faulted)
                  faulted_evals.fetch_add(1, std::memory_order_relaxed);
                slice[j] = W::Score(bench_, model, ax, prepared);
              },
              /*grain=*/1);
        }

        if (store_ != nullptr) {
          record.robustness.assign(
              outcome.robustness_pct.begin() + static_cast<long>(base),
              outcome.robustness_pct.begin() + static_cast<long>(base + block));
          store_->SaveUnit(grid_key, unit, record);
        }
      },
      /*grain=*/1);

  ScenarioStats& stats = outcome.stats;
  stats.sweep_seconds = SecondsSince(sweep_start);
  stats.wall_seconds = SecondsSince(run_start);
  stats.train_cache_hits = model_cache_.hits() - train_hits0;
  stats.trained_models = computed_trains_.load() - computed_trains0;
  stats.craft_cache_hits = craft_cache_.hits() - craft_hits0;
  stats.crafted_sets = computed_crafts_.load() - computed_crafts0;
  stats.store_model_hits = store_model_hits_.load() - store_model_hits0;
  stats.store_craft_hits = store_craft_hits_.load() - store_craft_hits0;
  stats.gated_units = gated_units.load();
  stats.replayed_units = replayed_units.load();
  stats.faulted_evals = faulted_evals.load();
  stats.corrupt_entries =
      store_ != nullptr ? store_->artifacts().corrupt_entries() : 0;

  // Fold this run's fresh computations into the grid's cumulative journal
  // totals, so a merged shard run (or a warm rerun) reports the same
  // trained/crafted counters as the single-process cold run. Exact when
  // shards of one grid run sequentially (the CI recipe); concurrent shards
  // keep correct cells but may under-count the shared totals.
  GridTotals totals{stats.trained_models, stats.crafted_sets};
  if (store_ != nullptr) {
    const GridTotals before = store_->LoadTotals(grid_key);
    totals.trained_models += before.trained_models;
    totals.crafted_sets += before.crafted_sets;
    store_->SaveTotals(grid_key, totals);
  }
  stats.total_trained_models = totals.trained_models;
  stats.total_crafted_sets = totals.crafted_sets;
  return outcome;
}

template class ScenarioEngine<StaticWorkload>;
template class ScenarioEngine<DvsWorkload>;

}  // namespace axsnn::scenario
