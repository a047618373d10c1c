// Scenario engine: executes a declarative ScenarioGrid on a workbench.
//
// One engine serves both workbench families: ScenarioEngine<W> is written
// once against a workload trait W (workload.hpp) that supplies only what
// differs — the workbench and model types, the train/craft hooks, T per
// structural cell and how a crafted set is prepared and scored. StaticScenarioEngine
// and DvsScenarioEngine are its two instantiations.
//
// The engine turns a grid into work units — one (structural cell, attack,
// epsilon) triple per unit — and runs them on the global runtime pool with
// grain 1. Two in-memory cache tables, owned by the engine and persistent
// across Run calls, make shared grids cheap:
//
//   * trained models keyed (vth bits, T, workbench seed): grids sharing a
//     structural cell never retrain it;
//   * crafted sets keyed (structural cell, attack label, epsilon): grids
//     reusing an attack (Table II's operating points, Algorithm-1 searches
//     over one cell) never re-craft.
//
// Both tables consult a shared on-disk artifact store (store.hpp) attached
// via set_store before computing: trained models and crafted sets persist
// across processes, and every finished work unit journals its result
// block, so Run(grid, options) supports checkpoint/resume (replay journaled
// units, compute only the remainder) and shard fan-out (`--shard i/N` unit
// partitioning; a resume pass with no shard merges all journals in grid
// order — see shard.hpp).
//
// Determinism: training, crafting and evaluation are each deterministic in
// their seeds, every unit owns its output slots, and the layer loops a unit
// spreads over idle workers keep their fixed chunks and disjoint writes —
// so Run results are bit-identical at any pool size, across cache/store
// hits and misses, and across any shard split. Hooks (set_train_fn /
// set_craft_fn) let harnesses splice in custom computations without
// touching the engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "scenario/scenario.hpp"
#include "scenario/shard.hpp"
#include "scenario/workload.hpp"

namespace axsnn::scenario {

template <typename W>
class ScenarioStore;

/// Execution counters of one Run call.
struct ScenarioStats {
  double wall_seconds = 0.0;   ///< whole Run
  double train_seconds = 0.0;  ///< phase 1 (structural-cell training)
  double sweep_seconds = 0.0;  ///< phase 2 (craft + variant evaluation)
  long trained_models = 0;     ///< fresh training computations this call
  long train_cache_hits = 0;   ///< in-memory model-cache hits
  long crafted_sets = 0;       ///< fresh craft computations this call
  long craft_cache_hits = 0;   ///< in-memory craft-cache hits
  long gated_units = 0;        ///< units skipped by min_train_accuracy_pct
  /// Evaluations that ran on a corrupted clone (fault axis entries and
  /// corrupts_model() attacks — src/faults/). Zero on fault-free grids.
  long faulted_evals = 0;
  // Distributed-execution counters (zero without an attached store):
  long store_model_hits = 0;   ///< trained models deserialized from disk
  long store_craft_hits = 0;   ///< crafted sets deserialized from disk
  long replayed_units = 0;     ///< journaled units replayed (resume)
  /// Cumulative fresh computations across every run/shard that touched this
  /// grid's store journal. Without a store these equal trained_models /
  /// crafted_sets, so single-process reports are unchanged — and a merged
  /// shard run reports the same totals as the single-process run.
  long total_trained_models = 0;
  long total_crafted_sets = 0;
  /// Corrupted artifact envelopes the attached store has detected (and
  /// treated as recompute misses) over its lifetime; zero without a store.
  /// CI asserts 0 on clean-cache runs.
  long corrupt_entries = 0;
};

/// Grid results, aligned with ExpandScenarioGrid(grid) order.
struct ScenarioOutcome {
  ScenarioGrid grid;
  std::vector<ScenarioCell> cells;
  /// R(eps) [%] per cell; NaN for gated (unevaluated) cells.
  std::vector<float> robustness_pct;
  /// Train accuracy [%] of the cell's accurate model.
  std::vector<float> train_accuracy_pct;
  /// False for cells skipped by the quality gate.
  std::vector<char> evaluated;
  ScenarioStats stats;

  /// Robustness at one coordinate tuple (see ScenarioGrid::Index).
  float Robustness(std::size_t vth_i, std::size_t time_i,
                   std::size_t attack_i, std::size_t eps_i, std::size_t aqf_i,
                   std::size_t precision_i, std::size_t level_i,
                   std::size_t kernel_i, std::size_t fault_i) const {
    return robustness_pct[grid.Index(vth_i, time_i, attack_i, eps_i, aqf_i,
                                     precision_i, level_i, kernel_i,
                                     fault_i)];
  }

  /// Fault-free shorthand (fault index 0).
  float Robustness(std::size_t vth_i, std::size_t time_i,
                   std::size_t attack_i, std::size_t eps_i, std::size_t aqf_i,
                   std::size_t precision_i, std::size_t level_i,
                   std::size_t kernel_i) const {
    return Robustness(vth_i, time_i, attack_i, eps_i, aqf_i, precision_i,
                      level_i, kernel_i, 0);
  }
};

namespace detail {

/// Mutex-guarded map<Key, unique_ptr<Value>> with GetOrCompute semantics:
/// compute runs outside the lock (concurrent misses on *different* keys
/// proceed in parallel); a lost same-key race discards the duplicate —
/// every cached computation here (training, crafting) is deterministic, so
/// both results are identical. References stay valid for the table's life.
template <typename Key, typename Value>
class CacheTable {
 public:
  const Value& GetOrCompute(const Key& key,
                            const std::function<Value()>& compute) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = values_.find(key);
      if (it != values_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return *it->second;
      }
    }
    auto value = std::make_unique<Value>(compute());
    std::lock_guard<std::mutex> lock(mu_);
    return *values_.emplace(key, std::move(value)).first->second;
  }

  long hits() const { return hits_.load(std::memory_order_relaxed); }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return values_.size();
  }

 private:
  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<Value>> values_;  // node-stable references
  std::atomic<long> hits_{0};
};

}  // namespace detail

template <typename W>
class ScenarioEngine {
 public:
  using Bench = typename W::Bench;
  using TrainedModel = typename W::TrainedModel;
  using Crafted = typename W::Crafted;
  using TrainFn = typename W::TrainFn;
  using CraftFn = typename W::CraftFn;
  /// Trained-model cache key: (vth bits, T, workbench seed) — exact bits,
  /// and two workbenches with different seeds never collide.
  using ModelKey = std::tuple<std::uint32_t, long, std::uint64_t>;

  explicit ScenarioEngine(const Bench& bench);

  /// Replaces how structural cells train / attacks craft (default:
  /// bench.Train / registry-dispatched bench.Craft). Harness hook for
  /// custom computations; the store (set_store) wraps whatever is
  /// installed here.
  void set_train_fn(TrainFn fn);
  void set_craft_fn(CraftFn fn);

  /// Attaches a persistent on-disk store (borrowed; must outlive the
  /// engine's runs; nullptr detaches). Models and crafted sets then
  /// load-or-compute-and-save through it, and Run journals every finished
  /// work unit for checkpoint/resume and shard merging.
  void set_store(ScenarioStore<W>* store) { store_ = store; }

  /// Trains (or fetches) the model of one structural cell through the
  /// cache, so a caller probing a cell directly shares it with later grids.
  /// Consults the attached store before computing. DVS cells take T from
  /// the workbench binning (any other T throws std::invalid_argument), so
  /// the DVS engine also offers TrainCached(vth).
  const TrainedModel& TrainCached(float vth, long time_steps);
  const TrainedModel& TrainCached(float vth)
    requires(W::kForEvents)
  {
    return TrainCached(vth, *W::TimeOverride(bench_));
  }

  /// Executes the grid. Validates first (throws std::invalid_argument on
  /// unknown attacks/params or axis misuse).
  ScenarioOutcome Run(const ScenarioGrid& grid) {
    return Run(grid, RunOptions{});
  }

  /// Executes the grid with shard/resume options (shard.hpp). `resume`
  /// requires an attached store; units outside `options.shard` stay
  /// unevaluated unless replayed from the journal.
  ScenarioOutcome Run(const ScenarioGrid& grid, const RunOptions& options);

  const detail::CacheTable<ModelKey, TrainedModel>& model_cache() const {
    return model_cache_;
  }
  const Bench& bench() const { return bench_; }

 private:
  const Crafted& CraftCached(const TrainedModel& model, float vth,
                             long time_steps, const AttackSpec& attack,
                             double epsilon);

  const Bench& bench_;
  TrainFn train_fn_;
  CraftFn craft_fn_;
  ScenarioStore<W>* store_ = nullptr;
  detail::CacheTable<ModelKey, TrainedModel> model_cache_;
  detail::CacheTable<std::string, Crafted> craft_cache_;
  // Engine-cumulative counters (Run reports per-call diffs): fresh
  // train_fn_/craft_fn_ invocations and store deserializations.
  std::atomic<long> computed_trains_{0};
  std::atomic<long> computed_crafts_{0};
  std::atomic<long> store_model_hits_{0};
  std::atomic<long> store_craft_hits_{0};
};

using StaticScenarioEngine = ScenarioEngine<StaticWorkload>;
using DvsScenarioEngine = ScenarioEngine<DvsWorkload>;

extern template class ScenarioEngine<StaticWorkload>;
extern template class ScenarioEngine<DvsWorkload>;

}  // namespace axsnn::scenario
