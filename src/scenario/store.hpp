// Content-keyed on-disk artifact store for distributed scenario execution.
//
// Backs the engine's in-memory model/craft caches (engine.hpp) with a
// shared filesystem store, so reruns, resumed runs and shard processes
// (shard.hpp) reuse each other's work. One ScenarioStore<W> serves both
// workloads (workload.hpp); the trait supplies the fingerprint, the grid
// family, the artifact kinds, the craft (de)serializer and the net rebuild:
//
//   * trained models    key = (workbench fingerprint, vth bits, T)
//   * crafted datasets  key = model key + (attack-label hash, epsilon bits;
//                       DVS crafts have no epsilon and omit it)
//   * unit journal      key = (grid key, unit index) — one record per
//                       finished work unit (train accuracy, gate flag, the
//                       unit's robustness block), enabling checkpoint/resume
//   * grid totals       key = (grid key) — cumulative fresh trainings and
//                       crafts across every run that touched the grid, so a
//                       merged shard report prints the same counters as the
//                       single-process run
//
// The workbench fingerprint hashes every option and dataset byte that
// affects training, crafting or evaluation, so two workbenches sharing a
// directory can never serve each other stale artifacts.
//
// Every value is one file: a small checksummed envelope (magic, version,
// payload kind, size, FNV-1a 64 digest) around a tensor/serialize or
// data/event_io payload, written to a temp file and atomically renamed into
// place — a reader never observes a half-written artifact, and concurrent
// writers of one key settle on one winner (both wrote identical bytes; the
// computations are deterministic). Any validation or parse failure counts
// the entry corrupt and reads as a miss: the engine recomputes and
// overwrites instead of crashing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "scenario/workload.hpp"

namespace axsnn::scenario {

/// Generic key -> checksummed-file store. Thread-safe; keys must be
/// filesystem-safe ([A-Za-z0-9_.-], ScenarioStore only emits those).
class ArtifactStore {
 public:
  /// Creates `root` (and parents) on demand.
  explicit ArtifactStore(std::string root);

  const std::string& root() const { return root_; }

  /// Final on-disk path of a key (exposed for tests and tooling).
  std::string PathFor(const std::string& key) const;

  /// Serializes via `write` and commits atomically (temp file + rename).
  /// Throws std::runtime_error when the filesystem rejects the write.
  void Put(const std::string& key, std::uint32_t kind,
           const std::function<void(std::ostream&)>& write);

  /// Validates the envelope (magic, version, kind, size, checksum) and
  /// deserializes via `read`. Returns false — a miss — when the key is
  /// absent, and also when the entry is truncated, corrupt, of another
  /// kind, or `read` throws (counted in corrupt_entries()). A payload size
  /// larger than the bytes left in the file is rejected before anything is
  /// allocated for it.
  bool Get(const std::string& key, std::uint32_t kind,
           const std::function<void(std::istream&)>& read) const;

  long hits() const { return hits_.load(std::memory_order_relaxed); }
  long misses() const { return misses_.load(std::memory_order_relaxed); }
  long writes() const { return writes_.load(std::memory_order_relaxed); }
  long corrupt_entries() const {
    return corrupt_.load(std::memory_order_relaxed);
  }

 private:
  std::string root_;
  mutable std::atomic<long> hits_{0};
  mutable std::atomic<long> misses_{0};
  mutable std::atomic<long> corrupt_{0};
  std::atomic<long> writes_{0};
  std::atomic<long> tmp_seq_{0};
};

/// One journaled work unit: everything the engine writes into the unit's
/// contiguous cell block. `robustness` holds the full block in cell order
/// (empty when the unit was gated by min_train_accuracy_pct).
struct UnitRecord {
  bool gated = false;
  float train_accuracy_pct = 0.0f;
  std::vector<float> robustness;
};

/// Cumulative fresh-computation counters of a grid across runs and shards.
struct GridTotals {
  long trained_models = 0;
  long crafted_sets = 0;
};

/// Typed store view for ScenarioEngine<W>. Borrows the workbench (must
/// outlive the store); the constructor fingerprints its options + datasets.
/// `time_steps` is the structural T of the cell (DVS: the binning).
template <typename W>
class ScenarioStore {
 public:
  using TrainedModel = typename W::TrainedModel;
  using Crafted = typename W::Crafted;

  ScenarioStore(std::string root, const typename W::Bench& bench);

  std::string ModelKey(float vth, long time_steps) const;
  std::string CraftKey(float vth, long time_steps, const AttackSpec& attack,
                       double epsilon) const;
  /// Deterministic digest of (fingerprint, workload family, every grid
  /// axis) — the namespace of the unit journal and totals record.
  std::string GridKey(const ScenarioGrid& grid) const;

  bool LoadModel(float vth, long time_steps, TrainedModel& out) const;
  void SaveModel(float vth, long time_steps, const TrainedModel& model);

  bool LoadCraft(float vth, long time_steps, const AttackSpec& attack,
                 double epsilon, Crafted& out) const;
  void SaveCraft(float vth, long time_steps, const AttackSpec& attack,
                 double epsilon, const Crafted& crafted);

  bool LoadUnit(const std::string& grid_key, long unit,
                UnitRecord& out) const;
  void SaveUnit(const std::string& grid_key, long unit,
                const UnitRecord& record);

  /// Zeros when the grid has no totals record yet.
  GridTotals LoadTotals(const std::string& grid_key) const;
  void SaveTotals(const std::string& grid_key, const GridTotals& totals);

  ArtifactStore& artifacts() { return store_; }
  const ArtifactStore& artifacts() const { return store_; }
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  ArtifactStore store_;
  const typename W::Bench& bench_;
  std::uint64_t fingerprint_ = 0;
};

using StaticScenarioStore = ScenarioStore<StaticWorkload>;
using DvsScenarioStore = ScenarioStore<DvsWorkload>;

extern template class ScenarioStore<StaticWorkload>;
extern template class ScenarioStore<DvsWorkload>;

}  // namespace axsnn::scenario
