// axsnn_perfbench: the repository benchmark's measuring process.
//
//   axsnn_perfbench --workload static_grid|dvs_grid --seed N
//                   --seconds S --trace 0|1 [--reduced]
//                   [--expect-digest HEX] [--work-dir DIR]
//
// Prints a context block (hardware, pool, build, workload shape), one line
// per metric, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer table
// (--trace 1). Exits 1 when any correctness gate failed, 2 on bad usage,
// 3 when the library throws.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "kernels/cpu_features.hpp"
#include "runtime/thread_pool.hpp"

namespace perfbench {
namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;

const MetricList& EndToEndMetrics() {
  static const MetricList kList = {
      {"setup_s", "s"}, {"peak_rss_mb", "MiB"}, {"grid_s", "s"}};
  return kList;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "axsnn_perfbench: %s\nusage: axsnn_perfbench --workload "
               "static_grid|dvs_grid --seed N --seconds S "
               "--trace 0|1 [--reduced] [--expect-digest HEX] "
               "[--work-dir DIR]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--reduced") {
      o.reduced = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    const std::optional<long> number =
        axsnn::runtime::ParseLongStrict(value.c_str());
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed" && number && *number >= 0) {
      o.seed = static_cast<std::uint64_t>(*number);
    } else if (flag == "--seconds" && number && *number > 0) {
      o.seconds = static_cast<double>(*number);
    } else if (flag == "--trace" && number && (*number == 0 || *number == 1)) {
      o.trace = *number == 1;
    } else if (flag == "--expect-digest") {
      o.expect_digest = value;
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      return false;
    }
  }
  return o.workload == "static_grid" || o.workload == "dvs_grid";
}

void PrintContext(const Options& o, const Result& r) {
  std::printf("== axsnn perfbench: %s (seed %llu, %s, %s) ==\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? "traced" : "untraced",
              o.reduced ? "reduced" : "full size");
  std::printf("context: nproc %u, simd %s, pool threads %d, build %s\n",
              std::thread::hardware_concurrency(),
              axsnn::kernels::SimdTierName(axsnn::kernels::ActiveSimdTier()),
              axsnn::runtime::GlobalPool()->thread_count(),
              PERFBENCH_BUILD_TYPE);
  for (const std::string& line : r.context)
    std::printf("context: %s\n", line.c_str());
}

void PrintJson(const Result& r, const MetricList& list) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false", r.attempted, r.failed);
  const char* sep = "";
  for (const auto& [name, unit] : list) {
    auto it = r.metrics.find(name);
    const double value = it == r.metrics.end() ? 0.0 : it->second.value;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), std::isfinite(value) ? value : 0.0,
                unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, o)) return Usage("bad arguments");
  std::filesystem::create_directories(o.work_dir);

  Result r = o.workload == "static_grid" ? RunStaticGrid(o) : RunDvsGrid(o);
  if (!o.trace) r.Set("peak_rss_mb", PeakRssMb(), "MiB");
  if (r.attempted < 1) r.Violation("no operation attempted");

  const MetricList& list = o.trace ? PerLayerMetrics() : EndToEndMetrics();
  PrintContext(o, r);
  for (const auto& [name, unit] : list) {
    auto it = r.metrics.find(name);
    if (it == r.metrics.end()) {
      std::printf("%-44s %14s  (bypassed)\n", name.c_str(), "0");
    } else {
      if (it->second.unit != unit)
        r.Violation("metric " + name + " measured in " + it->second.unit +
                    ", declared " + unit);
      std::printf("%-44s %14.6g %s\n", name.c_str(), it->second.value,
                  unit.c_str());
    }
  }
  std::printf("operations: attempted %ld, failed %ld\n", r.attempted,
              r.failed);
  PrintJson(r, list);
  std::fflush(stdout);
  return r.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "axsnn_perfbench: %s\n", e.what());
    return 3;
  }
}
