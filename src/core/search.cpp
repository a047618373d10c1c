#include "core/search.hpp"

#include "scenario/engine.hpp"
#include "tensor/check.hpp"

namespace axsnn::core {

namespace {

void ValidateSpace(const SearchSpace& space, bool need_time_steps) {
  AXSNN_CHECK(!space.v_thresholds.empty(), "empty Vth axis");
  AXSNN_CHECK(!need_time_steps || !space.time_steps.empty(),
              "empty time-step axis");
  AXSNN_CHECK(!space.precisions.empty(), "empty precision axis");
  AXSNN_CHECK(!space.approx_levels.empty(), "empty approximation-level axis");
}

/// The configured attack, resolved through the registry: the explicit
/// attack_name wins over the enum spelling, unknown names throw with the
/// registered list.
const attacks::Attack& ResolveAttack(const SearchConfig& config) {
  const std::string name = config.attack_name.empty()
                               ? AttackName(config.attack)
                               : config.attack_name;
  const attacks::Attack& attack = attacks::GetAttack(name);
  (void)attack.ResolveParams(config.attack_params);
  return attack;
}

/// Tracks the maximum-robustness candidate across the whole sweep,
/// independent of whether any candidate has met the quality constraint.
/// (The previous version keyed the overwrite on `outcome.found`, which made
/// every pre-`found` candidate clobber `best` — the best-effort fallback
/// then reported the *last* candidate instead of the strongest one.)
/// Strict `>` keeps the earliest candidate on ties, matching Algorithm 1's
/// grid-order preference.
struct BestTracker {
  bool has_best = false;

  void Offer(SearchOutcome& outcome, const CandidateResult& candidate) {
    if (!has_best ||
        candidate.robustness_pct > outcome.best.robustness_pct) {
      outcome.best = candidate;
      has_best = true;
    }
  }
};

/// The (precision, level) grid of one structural cell, in Algorithm 1's
/// iteration order (the engine's cell order within a unit).
std::vector<VariantSpec> GridSpecs(const scenario::ScenarioGrid& grid) {
  std::vector<VariantSpec> specs;
  specs.reserve(grid.precisions.size() * grid.levels.size());
  for (approx::Precision precision : grid.precisions)
    for (double level : grid.levels)
      specs.push_back({precision, level, std::nullopt});
  return specs;
}

/// Folds the results of one structural cell back into the outcome in grid
/// order, reproducing Algorithm 1 lines 15-24 exactly: under return_first
/// the trace stops at the winning candidate. Returns true when the search
/// should stop.
bool AccumulateCell(SearchOutcome& outcome, BestTracker& best,
                    const SearchConfig& config, CandidateResult base,
                    std::span<const VariantSpec> specs,
                    std::span<const float> robustness) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    CandidateResult candidate = base;
    candidate.precision = specs[i].precision;
    candidate.level = specs[i].level;
    candidate.robustness_pct = robustness[i];
    outcome.trace.push_back(candidate);
    // Every candidate competes for `best`: failing candidates all sit below
    // Q, so the max is still the first hit whenever one exists, and when
    // nothing meets Q the best-effort answer is the strongest candidate.
    best.Offer(outcome, candidate);
    if (candidate.robustness_pct >= config.quality_constraint_pct) {
      outcome.found = true;
      if (config.return_first) return true;
    }
  }
  return false;
}

/// The search grid as a declarative scenario: structural axes from the
/// space, one attack spec from the config, the training gate as
/// min_train_accuracy_pct (Algorithm 1 line 4).
scenario::ScenarioGrid MakeSearchGrid(const SearchSpace& space,
                                      const SearchConfig& config,
                                      const attacks::Attack& attack) {
  scenario::ScenarioGrid grid;
  grid.v_thresholds = space.v_thresholds;
  if (!space.time_steps.empty()) grid.time_steps = space.time_steps;
  grid.attacks = {
      scenario::AttackSpec{attack.name(), config.attack_params}};
  grid.epsilons = {static_cast<double>(config.epsilon)};
  grid.precisions = space.precisions;
  grid.levels = space.approx_levels;
  grid.min_train_accuracy_pct = config.quality_constraint_pct;
  return grid;
}

/// Folds a scenario outcome back into the search in grid order; gated
/// structural cells contribute nothing (Algorithm 1 line 4's `continue`).
/// Returns true when the search should stop (first hit under return_first).
bool FoldOutcome(SearchOutcome& outcome, BestTracker& best,
                 const SearchConfig& config,
                 const scenario::ScenarioOutcome& grid_outcome,
                 std::span<const VariantSpec> specs) {
  const scenario::ScenarioGrid& grid = grid_outcome.grid;
  for (std::size_t iv = 0; iv < grid.v_thresholds.size(); ++iv) {
    for (std::size_t it = 0; it < grid.time_steps.size(); ++it) {
      const std::size_t base = grid.Index(iv, it, 0, 0, 0, 0, 0, 0);
      if (!grid_outcome.evaluated[base]) continue;  // line 4: gated cell
      CandidateResult cell;
      cell.v_threshold = grid.v_thresholds[iv];
      cell.time_steps = grid_outcome.cells[base].time_steps;
      cell.train_accuracy_pct = grid_outcome.train_accuracy_pct[base];
      if (AccumulateCell(outcome, best, config, cell, specs,
                         std::span<const float>(grid_outcome.robustness_pct)
                             .subspan(base, specs.size())))
        return true;
    }
  }
  return false;
}

/// Algorithm 1 on the scenario engine, for either workload. Whole-grid mode
/// runs `grid` once. First-hit mode runs its structural cells in grid order
/// as single-cell grids and stops at the first candidate meeting Q, so
/// later cells never train. Either way a supplied engine shares its model
/// and craft caches; nullptr uses a search-local engine.
template <typename W>
SearchOutcome SearchOnEngine(const typename W::Bench& bench,
                             scenario::ScenarioEngine<W>* engine,
                             const scenario::ScenarioGrid& grid,
                             const SearchConfig& config) {
  AXSNN_CHECK(engine == nullptr || &engine->bench() == &bench,
              "the supplied scenario engine wraps a different workbench");
  scenario::ScenarioEngine<W> local(bench);
  scenario::ScenarioEngine<W>& exec = engine ? *engine : local;
  const std::vector<VariantSpec> specs = GridSpecs(grid);

  std::vector<scenario::ScenarioGrid> runs;
  if (!config.return_first) {
    runs.push_back(grid);
  } else {
    for (float vth : grid.v_thresholds) {
      for (long t : grid.time_steps) {
        scenario::ScenarioGrid cell = grid;
        cell.v_thresholds = {vth};
        cell.time_steps = {t};
        runs.push_back(std::move(cell));
      }
    }
  }
  SearchOutcome outcome;
  BestTracker best;
  for (const scenario::ScenarioGrid& run : runs) {
    // Lines 22-24: fold back in grid order, accepting on Q.
    if (FoldOutcome(outcome, best, config, exec.Run(run), specs)) break;
  }
  // When nothing met Q, `best` already holds the strongest candidate seen
  // (found stays false) — the best-effort answer in either mode.
  return outcome;
}

}  // namespace

SearchOutcome PrecisionScalingSearch(const StaticWorkbench& bench,
                                     const SearchSpace& space,
                                     const SearchConfig& config,
                                     scenario::StaticScenarioEngine* engine) {
  ValidateSpace(space, /*need_time_steps=*/true);
  const attacks::Attack& attack = ResolveAttack(config);
  AXSNN_CHECK(attack.supports_static(),
              "static search needs a static-capable attack — '"
                  << attack.name() << "' applies to event datasets only");
  return SearchOnEngine(bench, engine, MakeSearchGrid(space, config, attack),
                        config);
}

SearchOutcome PrecisionScalingSearch(const DvsWorkbench& bench,
                                     const SearchSpace& space,
                                     const SearchConfig& config,
                                     scenario::DvsScenarioEngine* engine) {
  ValidateSpace(space, /*need_time_steps=*/false);
  const attacks::Attack& attack = ResolveAttack(config);
  AXSNN_CHECK(attack.supports_events(),
              "neuromorphic search needs an event-capable attack — '"
                  << attack.name() << "' applies to static batches only");
  scenario::ScenarioGrid grid = MakeSearchGrid(space, config, attack);
  grid.time_steps = {bench.options().time_bins};  // binning fixes T
  grid.epsilons = {0.0};                          // no event epsilon
  if (config.neuromorphic) grid.aqfs = {config.aqf};
  return SearchOnEngine(bench, engine, grid, config);
}

}  // namespace axsnn::core
