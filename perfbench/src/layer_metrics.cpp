// The per-layer table every traced run reports (BENCHMARK.json "per_layer"
// lists the same names; perfbench/run.py checks the two agree). Rows a
// workload bypasses stay 0.
#include "harness.hpp"

namespace perfbench {

namespace {

void AddLayers(std::vector<std::pair<std::string, std::string>>& list,
               const std::string& prefix,
               std::initializer_list<const char*> layers,
               std::initializer_list<const char*> suffixes,
               const std::string& unit) {
  for (const char* layer : layers)
    for (const char* suffix : suffixes)
      list.emplace_back(prefix + "." + layer + "." + suffix, unit);
}

std::vector<std::pair<std::string, std::string>> Build() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"scenario.train.count", "count"},
      {"scenario.train.busy_s", "s"},
      {"scenario.train_phase_s", "s"},
      {"scenario.craft.count", "count"},
      {"scenario.craft.busy_s", "s"},
      {"scenario.sweep_s", "s"},
      {"scenario.train_cache_hits", "count"},
      {"scenario.craft_cache_hits", "count"},
      {"attacks.pgd.busy_s", "s"},
      {"attacks.pgd.items", "count"},
      {"attacks.bim.busy_s", "s"},
      {"attacks.bim.items", "count"},
      {"attacks.sparse.busy_s", "s"},
      {"attacks.sparse.items", "count"},
      {"attacks.frame.busy_s", "s"},
      {"attacks.frame.items", "count"},
      {"attacks.grad_queries", "count"},
      {"trace.overhead_s", "s"},
      {"core.make_ax.fp32_ms", "ms"},
      {"core.make_ax.fp16_ms", "ms"},
      {"core.make_ax.int8_ms", "ms"},
      {"core.evaluate_variants.busy_s", "s"},
      {"core.aqf.busy_s", "s"},
      {"core.aqf.events_in", "count"},
      {"core.aqf.events_out", "count"},
      {"data.bin.busy_s", "s"},
      {"store.hits", "count"},
      {"store.misses", "count"},
      {"store.writes", "count"},
      {"store.corrupt", "count"},
      {"store.bytes_written", "bytes"},
      {"store.warm_rerun_s", "s"},
      {"faults.apply.count", "count"},
      {"faults.apply.busy_s", "s"},
      {"runtime.allocs_per_forward", "count"},
      {"serve.p50_ms", "ms"},
      {"serve.p99_ms", "ms"},
      {"serve.max_qps", "1/s"},
      {"serve.burst_s", "s"},
      {"serve.batches", "count"},
      {"serve.mean_batch", "count"},
      {"serve.failed", "count"},
      {"serve.rejected", "count"},
      {"serve.generator_lag_ms", "ms"},
      {"serve.backlog_max", "count"},
      {"serve.service_ms", "ms"},
      {"serve.allocs_per_request", "count"},
  };
  AddLayers(m, "snn.static",
            {"conv1", "lif1", "pool1", "conv2", "lif2", "pool2", "conv3",
             "lif3", "fc1", "lif4", "fc2"},
            {"fwd_ms", "bwd_ms"}, "ms");
  // B=1 rows for the layers that carry the cost (the 128-row cap drops the
  // two pools and the last LIF, each a few percent of the B=1 forward).
  AddLayers(m, "snn.static",
            {"conv1", "lif1", "conv2", "lif2", "conv3", "lif3", "fc1", "fc2"},
            {"fwd_b1_ms"}, "ms");
  AddLayers(m, "snn.static_int8", {"conv1", "conv2", "conv3", "fc1", "fc2"},
            {"fwd_ms"}, "ms");
  AddLayers(m, "snn.dvs",
            {"conv1", "lif1", "pool1", "conv2", "lif2", "pool2", "pool3", "fc1",
             "lif3", "fc2"},
            {"fwd_ms", "bwd_ms"}, "ms");
  AddLayers(m, "kernels.static", {"conv1", "conv2", "conv3", "fc1", "fc2"},
            {"density"}, "ratio");
  AddLayers(m, "kernels.static", {"conv1", "conv2", "conv3", "fc1", "fc2"},
            {"naive_ms", "sparse_ms", "simd_ms"}, "ms");
  AddLayers(m, "kernels.dvs", {"conv1", "conv2", "fc1", "fc2"}, {"density"},
            "ratio");
  m.emplace_back("kernels.macs", "count");
  m.emplace_back("kernels.nnz_macs", "count");
  return m;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = Build();
  return kList;
}

}  // namespace perfbench
