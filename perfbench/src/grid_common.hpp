// Pieces shared by the two scenario-grid workloads.
#pragma once

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "approx/precision.hpp"
#include "harness.hpp"
#include "scenario/engine.hpp"

namespace perfbench {

/// Set-up is repeated this often per run and reported as the median.
inline constexpr int kSetupRepeats = 11;
/// A grid run measures at least this many cold Runs, more while time is left.
inline constexpr std::size_t kMinColdRuns = 3;

inline std::string LowerName(std::string name) {
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  return name;
}

/// " v0 v1 ..." with 4 significant digits, for context lines.
inline std::string JoinValues(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), " %.4g", v);
    out += buf;
  }
  return out;
}

/// Digest of everything a grid reports: robustness, train accuracy and the
/// evaluated mask, in cell order.
inline std::uint64_t OutcomeDigest(const axsnn::scenario::ScenarioOutcome& o) {
  std::uint64_t h = Fnv1a(o.robustness_pct.data(),
                          o.robustness_pct.size() * sizeof(float));
  h = Fnv1a(o.train_accuracy_pct.data(),
            o.train_accuracy_pct.size() * sizeof(float), h);
  return Fnv1a(o.evaluated.data(), o.evaluated.size(), h);
}

/// The checked-in digest gate (only when one exists for this seed).
inline void CheckDigest(const Options& options, std::uint64_t digest,
                        const std::string& workload, Result& result) {
  if (!options.expect_digest.empty() && options.expect_digest != Hex(digest))
    result.Violation(workload + " digest " + Hex(digest) +
                     " != checked-in digest " + options.expect_digest);
}

/// Every cell evaluated, every robustness a percentage.
inline void CheckOutcome(const axsnn::scenario::ScenarioOutcome& o,
                         Result& result) {
  for (std::size_t i = 0; i < o.robustness_pct.size(); ++i) {
    const float r = o.robustness_pct[i];
    if (!o.evaluated[i] || !std::isfinite(r) || r < 0.0f || r > 100.0f) {
      result.Violation("cell " + std::to_string(i) +
                       " not evaluated or out of range");
      return;
    }
  }
}

/// Train accuracy [%] of each structural cell's model.
inline std::vector<double> TrainAccuracies(
    const axsnn::scenario::ScenarioOutcome& o) {
  std::vector<double> out;
  for (std::size_t v = 0; v < o.grid.v_thresholds.size(); ++v)
    for (std::size_t t = 0; t < o.grid.time_steps.size(); ++t)
      out.push_back(o.train_accuracy_pct[o.grid.Index(v, t, 0, 0, 0, 0, 0, 0)]);
  return out;
}

/// Untraced grid measurement: cold Runs until `options.seconds` have
/// passed (at least kMinColdRuns). `cold_run(i)` performs Run i and returns
/// {outcome, wall seconds}. Every Run must reproduce Run 0's digest, which
/// must match the checked-in digest when there is one.
template <typename ColdRunFn>
void MeasureColdRuns(const Options& options, const std::string& workload,
                     double setup_s, Result& result, ColdRunFn&& cold_run) {
  std::vector<double> walls, train_phase, sweep_phase;
  long cells = 0;
  std::uint64_t first = 0;
  std::vector<double> accuracies;
  const auto budget_start = Clock::now();
  // Stop before a Run that would end past the budget.
  for (int i = 0; walls.size() < kMinColdRuns ||
                  SecondsSince(budget_start) + walls.back() <= options.seconds;
       ++i) {
    const auto [outcome, wall] = cold_run(i);
    walls.push_back(wall);
    train_phase.push_back(outcome.stats.train_seconds);
    sweep_phase.push_back(outcome.stats.sweep_seconds);
    cells = static_cast<long>(outcome.cells.size());
    result.attempted += cells;
    const std::uint64_t digest = OutcomeDigest(outcome);
    if (i == 0) {
      first = digest;
      accuracies = TrainAccuracies(outcome);
      CheckDigest(options, digest, workload, result);
    } else if (digest != first) {
      result.Violation(workload + " cold Run " + std::to_string(i) +
                       " digest differs from Run 0");
    }
    CheckOutcome(outcome, result);
  }
  result.Set("setup_s", setup_s, "s");
  result.Set("grid_s", Median(walls), "s");
  result.Context(workload + ": digest " + Hex(first) + ", train accuracy [%]" +
                 JoinValues(accuracies));
  result.Context(workload + ": cold Run walls [s]" + JoinValues(walls) +
                 "; train phase [s]" + JoinValues(train_phase) +
                 "; sweep phase [s]" + JoinValues(sweep_phase));
}

/// Scenario and attack rows of a traced grid run.
inline void SetScenarioRows(Result& result, const Tracer& tracer,
                            const axsnn::scenario::ScenarioStats& stats,
                            double traced_wall, double untraced_wall) {
  const auto totals = tracer.Aggregate();
  auto get = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? Tracer::Totals{} : it->second;
  };
  result.Set("scenario.train.count", get("scenario.train").count, "count");
  result.Set("scenario.train.busy_s", get("scenario.train").busy_s, "s");
  result.Set("scenario.craft.count", get("scenario.craft").count, "count");
  result.Set("scenario.craft.busy_s", get("scenario.craft").busy_s, "s");
  result.Set("scenario.train_phase_s", stats.train_seconds, "s");
  result.Set("scenario.sweep_s", stats.sweep_seconds, "s");
  result.Set("scenario.train_cache_hits",
             static_cast<double>(stats.train_cache_hits), "count");
  result.Set("scenario.craft_cache_hits",
             static_cast<double>(stats.craft_cache_hits), "count");
  for (const char* attack : {"pgd", "bim", "sparse", "frame"}) {
    const Tracer::Totals t = get(std::string("attacks.") + attack);
    result.Set(std::string("attacks.") + attack + ".busy_s", t.busy_s, "s");
    result.Set(std::string("attacks.") + attack + ".items", t.items, "count");
  }
  result.Set("trace.overhead_s", traced_wall - untraced_wall, "s");
}

/// core.make_ax.<precision>_ms: median time to derive one variant.
template <typename Bench, typename Model>
void ProbeMakeAx(const Bench& bench, const Model& model, int reps,
                 Result& result) {
  using axsnn::approx::Precision;
  for (Precision p : {Precision::kFp32, Precision::kFp16, Precision::kInt8}) {
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
      const auto start = Clock::now();
      (void)bench.MakeAx(model, 0.05, p);
      ms.push_back(1e3 * SecondsSince(start));
    }
    result.Set("core.make_ax." + LowerName(axsnn::approx::PrecisionName(p)) +
                   "_ms",
               Median(ms), "ms");
  }
}

}  // namespace perfbench
