// Shared plumbing of the repository benchmark: CLI options, the result
// record every workload fills, statistics, digests, process probes and the
// out-of-library tracer.
//
// Measurement split (see perfbench/README.md):
//  * --trace 0 runs time end-to-end metrics only; nothing is hooked.
//  * --trace 1 is a separate run that wraps public library calls in spans
//    (Tracer::Span) and runs the per-layer probes; it reports the layer
//    table plus the tracing overhead on the workload's own job.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command line of one benchmark process.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every workload (self-test): same code paths, tiny sizes.
  bool reduced = false;
  /// Expected grid digest (hex); empty = no checked-in digest for the seed.
  std::string expect_digest;
  /// Directory for on-disk artifacts (the static grid's store).
  std::string work_dir = ".bench_build/work";
};

/// One reported number.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything a workload run reports. `metrics` holds end-to-end metrics in
/// untraced runs and per-layer metrics in traced runs.
struct Result {
  long attempted = 0;
  long failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable context lines (workload shape, options).
  std::vector<std::string> context;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a correctness-gate violation: `operations` failed operations
  /// plus a stderr line naming the gate.
  void Violation(const std::string& what, long operations = 1);
  void Context(const std::string& line) { context.push_back(line); }
};

// --- statistics ---------------------------------------------------------------

double Median(std::vector<double> values);
/// Nearest-rank percentile (q in [0, 100]) of `values`.
double Percentile(std::vector<double> values, double q);

// --- digests ------------------------------------------------------------------

/// FNV-1a 64 over raw bytes, chainable through `h`.
std::uint64_t Fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);
std::string Hex(std::uint64_t value);

// --- process probes -----------------------------------------------------------

/// VmHWM of this process in MiB (peak resident set).
double PeakRssMb();

/// Heap allocations counted by the benchmark's global operator new while
/// counting is enabled (AllocCounter::Enable). Off by default so untraced
/// runs pay one relaxed load per allocation.
struct AllocCounter {
  static void Enable(bool on);
  static long Count();
};

// --- tracing ------------------------------------------------------------------

/// In-memory span recorder for traced runs: each closed span adds its
/// duration and work count to its name's totals. Spans may close on any
/// thread (the engines run hooks on pool workers).
class Tracer {
 public:
  struct Totals {
    long count = 0;
    double busy_s = 0.0;  ///< sum of span durations (inclusive)
    double items = 0.0;   ///< caller-supplied work count (images, streams)
  };

  /// RAII span around one call.
  class Span {
   public:
    Span(Tracer* tracer, std::string name, double items = 0.0)
        : tracer_(tracer), name_(std::move(name)), items_(items) {}
    ~Span() { tracer_->Add(name_, SecondsSince(start_), items_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::string name_;
    double items_;
    Clock::time_point start_ = Clock::now();
  };

  std::map<std::string, Totals> Aggregate() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return totals_;
  }

 private:
  void Add(const std::string& name, double seconds, double items) {
    std::lock_guard<std::mutex> lock(mutex_);
    Totals& t = totals_[name];
    ++t.count;
    t.busy_s += seconds;
    t.items += items;
  }

  mutable std::mutex mutex_;
  std::map<std::string, Totals> totals_;  // guarded by mutex_
};

// --- workloads ----------------------------------------------------------------

Result RunStaticGrid(const Options& options);
Result RunDvsGrid(const Options& options);

/// Per-layer metric names and units every traced run reports. Metrics a
/// workload bypasses stay 0 (the layer did no work in that workload).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench
