// Micro-benchmark for the runtime subsystem:
//  1. ParallelFor scaling — one conv-forward-heavy workload timed at pool
//     sizes 1, 2, 4 and hardware_concurrency;
//  2. allocation behaviour — heap allocations per forward pass for the
//     allocating Network::Forward vs the workspace-backed ForwardShared
//     (steady state), counted with an operator-new hook local to this
//     binary;
//  3. kernel backends — fp32 vs int8 (per-output-channel scales, int32
//     accumulation) forward throughput of the Conv2d and Dense kernels;
//  4. kernel dispatch — naive vs sparse vs simd vs auto throughput
//     at a representative spike density (10% nonzeros), fp32 and int8, for
//     the sparsity-aware dispatch engine (src/kernels/). Also asserts the
//     dispatch contract that auto int8 is never slower than naive (within a
//     10% timing-noise margin) — the regression this harness exists to
//     catch; a violation fails the process;
//  4b. SIMD tier sweep — the same forced-simd workloads at every ISA tier
//      the machine supports (capped via ScopedSimdTier), recorded per tier
//      so BENCH_runtime.json baselines are comparable across runners;
//  4c. conv backward — Conv2d::Backward with the naive reference loops vs
//      the simd path, at the static conv2/conv3 (T*B = 256) and DVS
//      conv1/conv2 (T*B = 384) shapes and input densities of the repository
//      benchmark, on 1 thread and on every hardware thread;
//  5. distributed scenario execution — a miniature fig2-style grid cold
//     (empty artifact store), warm (fresh process image, artifacts on
//     disk) and resumed (journal replay). Asserts the distributed-execution
//     contract that warm and resumed runs recompute nothing (0 trainings,
//     0 crafts); a violation fails the process. The resume-vs-cold ratio
//     is the checkpoint/resume value proposition.
//
// Prints a human-readable table and emits BENCH_runtime.json next to the
// working directory so baselines can be recorded in-tree.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernels/cpu_features.hpp"
#include "kernels/dispatch.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/engine.hpp"
#include "scenario/store.hpp"
#include "snn/conv2d.hpp"
#include "snn/dense.hpp"
#include "snn/models.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

// --- allocation counting (this translation unit only) ------------------------

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The workspace arenas allocate through the aligned overloads
// (runtime/aligned.hpp), which must be hooked too or their (first-pass)
// allocations would go uncounted.
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t al = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(al, (size + al - 1) & ~(al - 1))) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace axsnn {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

snn::Network MakeBenchNet() {
  snn::StaticNetOptions opts;
  opts.height = 16;
  opts.width = 16;
  return snn::BuildStaticNet(opts);
}

/// One forward workload: [T=8, B=16, 1, 16, 16] through the static net.
Tensor MakeBenchInput() {
  Rng rng(123);
  return Tensor::Uniform({8, 16, 1, 16, 16}, 0.0f, 1.0f, rng);
}

struct ScalingPoint {
  int threads;
  double seconds_per_pass;
};

std::vector<ScalingPoint> RunScaling(int repeats) {
  std::vector<int> sizes = {1, 2, 4};
  const int hw = runtime::DefaultThreadCount();
  if (hw > 4) sizes.push_back(hw);

  std::vector<ScalingPoint> points;
  snn::Network net = MakeBenchNet();
  Tensor x = MakeBenchInput();
  for (int threads : sizes) {
    runtime::SetGlobalThreads(threads);
    net.ForwardShared(x, false);  // warm up workspace + pool
    const auto start = Clock::now();
    for (int r = 0; r < repeats; ++r) net.ForwardShared(x, false);
    points.push_back({threads, SecondsSince(start) / repeats});
  }
  runtime::SetGlobalThreads(0);
  return points;
}

struct AllocationCounts {
  long allocating_forward;
  long shared_first_pass;
  long shared_steady_state;
};

AllocationCounts CountAllocations() {
  // Pool size 1 keeps the count deterministic (no worker-thread allocs).
  runtime::SetGlobalThreads(1);
  snn::Network net = MakeBenchNet();
  Tensor x = MakeBenchInput();
  AllocationCounts counts{};

  long before = g_allocations.load();
  Tensor y = net.Forward(x, false);
  counts.allocating_forward = g_allocations.load() - before;

  snn::Network shared_net = MakeBenchNet();
  before = g_allocations.load();
  shared_net.ForwardShared(x, false);
  counts.shared_first_pass = g_allocations.load() - before;

  before = g_allocations.load();
  for (int r = 0; r < 10; ++r) shared_net.ForwardShared(x, false);
  counts.shared_steady_state = (g_allocations.load() - before) / 10;

  runtime::SetGlobalThreads(0);
  return counts;
}

struct KernelTimings {
  double conv_fp32_ms;
  double conv_int8_ms;
  double dense_fp32_ms;
  double dense_int8_ms;
};

/// Times one layer's forward pass, steady-state (warmed output buffer).
template <typename LayerT>
double MsPerForward(LayerT& layer, const Tensor& x, int repeats) {
  Tensor out;
  layer.ForwardInto(x, out, false);  // warm up
  const auto start = Clock::now();
  for (int r = 0; r < repeats; ++r) layer.ForwardInto(x, out, false);
  return SecondsSince(start) / repeats * 1e3;
}

/// fp32 vs int8 forward timings for the conv/dense kernel shapes that
/// dominate the sweep experiments.
KernelTimings RunKernelComparison(int repeats) {
  KernelTimings t{};
  Rng rng(7);
  snn::Conv2d conv("c", 8, 16, 3, 1, rng);
  Tensor cx = Tensor::Uniform({8, 16, 8, 16, 16}, 0.0f, 1.0f, rng);
  t.conv_fp32_ms = MsPerForward(conv, cx, repeats);
  conv.EnableInt8Kernel();
  t.conv_int8_ms = MsPerForward(conv, cx, repeats);

  snn::Dense fc("fc", 512, 128, rng);
  Tensor dx = Tensor::Uniform({16, 64, 512}, 0.0f, 1.0f, rng);
  t.dense_fp32_ms = MsPerForward(fc, dx, repeats);
  fc.EnableInt8Kernel();
  t.dense_int8_ms = MsPerForward(fc, dx, repeats);
  return t;
}

/// Per-mode timings for one layer/precision.
struct ModeTimings {
  double naive_ms;
  double sparse_ms;
  double simd_ms;  // forced kSimd (degrades to naive on scalar machines)
  double auto_ms;  // what the dispatcher actually picks
  double best_speedup() const {
    return naive_ms / std::min(sparse_ms, simd_ms);
  }
};

struct DispatchTimings {
  double density;
  ModeTimings conv_fp32;
  ModeTimings conv_int8;
  ModeTimings dense_fp32;
  ModeTimings dense_int8;
};

/// Forces each path via ScopedKernelMode (precedence rule 1), so the
/// comparison stays meaningful even when AXSNN_KERNEL_MODE is exported —
/// as the CI kernel-mode matrix does.
template <typename LayerT>
ModeTimings TimeModes(LayerT& layer, const Tensor& x, int repeats) {
  ModeTimings t{};
  {
    kernels::ScopedKernelMode force(kernels::KernelMode::kNaive);
    t.naive_ms = MsPerForward(layer, x, repeats);
  }
  {
    kernels::ScopedKernelMode force(kernels::KernelMode::kSparse);
    t.sparse_ms = MsPerForward(layer, x, repeats);
  }
  {
    kernels::ScopedKernelMode force(kernels::KernelMode::kSimd);
    t.simd_ms = MsPerForward(layer, x, repeats);
  }
  {
    kernels::ScopedKernelMode force(kernels::KernelMode::kAuto);
    t.auto_ms = MsPerForward(layer, x, repeats);
  }
  return t;
}

/// Sparsity-aware dispatch engine: per-mode throughput on
/// the same conv/dense shapes as RunKernelComparison, but with spike-like
/// inputs at the representative SNN density of 10% nonzeros.
DispatchTimings RunDispatchComparison(int repeats) {
  DispatchTimings t{};
  t.density = 0.10;
  Rng rng(7);
  snn::Conv2d conv("c", 8, 16, 3, 1, rng);
  Tensor cx = bench::MakeSpikes({8, 16, 8, 16, 16},
                                static_cast<float>(t.density), rng);
  t.conv_fp32 = TimeModes(conv, cx, repeats);
  conv.EnableInt8Kernel();
  t.conv_int8 = TimeModes(conv, cx, repeats);

  snn::Dense fc("fc", 512, 128, rng);
  Tensor dx =
      bench::MakeSpikes({16, 64, 512}, static_cast<float>(t.density), rng);
  t.dense_fp32 = TimeModes(fc, dx, repeats);
  fc.EnableInt8Kernel();
  t.dense_int8 = TimeModes(fc, dx, repeats);
  return t;
}

/// Forced-simd timings at one ISA tier (the active tier after capping).
struct SimdTierPoint {
  const char* tier;
  double conv_fp32_ms;
  double conv_int8_ms;
  double dense_fp32_ms;
  double dense_int8_ms;
};

/// Times the RunDispatchComparison workloads with the kernel mode pinned to
/// simd at every tier this machine can run: the detected tier, each lower
/// cap, and scalar (where forced simd degrades to the naive reference).
/// One row per tier makes BENCH baselines comparable across runners whose
/// CPUs differ — a VNNI row from one machine lines up with the VNNI row of
/// another.
std::vector<SimdTierPoint> RunSimdTierSweep(int repeats) {
  using kernels::SimdTier;
  std::vector<SimdTierPoint> points;
  const int detected = static_cast<int>(kernels::ActiveSimdTier());
  for (SimdTier cap : {SimdTier::kVnni, SimdTier::kAvx2, SimdTier::kScalar}) {
    if (static_cast<int>(cap) > detected) continue;
    kernels::ScopedSimdTier scoped(cap);
    kernels::ScopedKernelMode force(kernels::KernelMode::kSimd);
    SimdTierPoint p{};
    p.tier = kernels::SimdTierName(kernels::ActiveSimdTier());
    Rng rng(7);
    snn::Conv2d conv("c", 8, 16, 3, 1, rng);
    Tensor cx = bench::MakeSpikes({8, 16, 8, 16, 16}, 0.10f, rng);
    p.conv_fp32_ms = MsPerForward(conv, cx, repeats);
    conv.EnableInt8Kernel();
    p.conv_int8_ms = MsPerForward(conv, cx, repeats);
    snn::Dense fc("fc", 512, 128, rng);
    Tensor dx = bench::MakeSpikes({16, 64, 512}, 0.10f, rng);
    p.dense_fp32_ms = MsPerForward(fc, dx, repeats);
    fc.EnableInt8Kernel();
    p.dense_int8_ms = MsPerForward(fc, dx, repeats);
    points.push_back(p);
  }
  return points;
}

/// One conv-backward shape at one pool size: reference vs simd backward.
struct ConvBackwardPoint {
  const char* layer;
  long n, c_in, c_out, hw;
  float density;
  int threads;
  double naive_ms;
  double simd_ms;  // forced kSimd (degrades to naive on scalar machines)
};

/// Median ms of Conv2d::Backward on `conv`'s cached forward input.
double MsPerBackward(snn::Conv2d& conv, const Tensor& grad, int repeats) {
  conv.Backward(grad);  // warm up: sizes the backward scratch
  std::vector<double> ms;
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    conv.Backward(grad);
    ms.push_back(SecondsSince(start) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

/// Conv2d::Backward on the repository benchmark's conv shapes (3x3, pad 1):
/// static_grid T=8 x B=32 on 16x16 images, dvs_grid T=24 x B=16 on 32x32
/// streams, inputs at the traced spike densities. One pass at the DVS
/// shapes costs up to a third of a second on the naive loops, so this
/// section takes a tenth of the requested repeats (at least 3).
std::vector<ConvBackwardPoint> RunConvBackward(int repeats) {
  struct Shape4 {
    const char* layer;
    long n, c_in, c_out, hw;
    float density;
  };
  const Shape4 shapes[] = {{"static.conv2", 256, 8, 16, 8, 0.34f},
                           {"static.conv3", 256, 16, 16, 4, 0.52f},
                           {"dvs.conv1", 384, 2, 12, 32, 0.03f},
                           {"dvs.conv2", 384, 12, 24, 16, 0.066f}};
  std::vector<int> pools = {1};
  const int hw = runtime::DefaultThreadCount();
  if (hw > 1) pools.push_back(hw);
  const int reps = std::max(3, repeats / 10);
  std::vector<ConvBackwardPoint> points;
  for (const Shape4& s : shapes) {
    Rng rng(11);
    snn::Conv2d conv("c", s.c_in, s.c_out, 3, 1, rng);
    Tensor x = bench::MakeSpikes({s.n, s.c_in, s.hw, s.hw}, s.density, rng);
    Tensor grad = Tensor::Normal({s.n, s.c_out, s.hw, s.hw}, 0.0f, 1e-3f, rng);
    Tensor out;
    conv.ForwardInto(x, out, /*train=*/true);
    for (int threads : pools) {
      runtime::SetGlobalThreads(threads);
      ConvBackwardPoint p{s.layer, s.n, s.c_in, s.c_out, s.hw, s.density,
                          threads, 0.0, 0.0};
      {
        kernels::ScopedKernelMode force(kernels::KernelMode::kNaive);
        p.naive_ms = MsPerBackward(conv, grad, reps);
      }
      {
        kernels::ScopedKernelMode force(kernels::KernelMode::kSimd);
        p.simd_ms = MsPerBackward(conv, grad, reps);
      }
      points.push_back(p);
    }
  }
  runtime::SetGlobalThreads(0);
  return points;
}

struct ScenarioDistTimings {
  long cells = 0;
  long units = 0;
  double cold_s = 0.0;    // empty store: train + craft + evaluate + journal
  double warm_s = 0.0;    // fresh engine, artifacts on disk: deserialize + eval
  double resume_s = 0.0;  // fresh engine, --resume: pure journal replay
  long cold_trained = 0;
  long cold_crafted = 0;
  long warm_trained = 0;
  long warm_crafted = 0;
  long warm_model_hits = 0;
  long warm_craft_hits = 0;
  long resume_trained = 0;
  long resume_crafted = 0;
  long resume_replayed = 0;
  /// The distributed-execution contract: warm and resumed runs never
  /// retrain or re-craft.
  bool zero_work_ok() const {
    return warm_trained == 0 && warm_crafted == 0 && resume_trained == 0 &&
           resume_crafted == 0;
  }
};

/// Times a miniature fig2-style grid (1 structural cell, PGD at two
/// epsilons, two approximation levels) against a persistent artifact
/// store: cold (empty directory), then warm and resumed — each with a
/// fresh engine and a fresh store object, so nothing survives in memory
/// and the run models a restarted process. Warm reloads models/crafts and
/// re-evaluates; resume replays the unit journal outright and is the
/// headline restart speedup.
ScenarioDistTimings RunScenarioDist() {
  const std::string dir = "axsnn_dist_store.tmp";
  std::filesystem::remove_all(dir);
  core::StaticWorkbench workbench = bench::MiniFig2Workbench();

  scenario::ScenarioGrid grid;
  grid.v_thresholds = {0.25f};
  grid.time_steps = {8};
  grid.attacks = {scenario::AttackSpec{"PGD", {}}};
  grid.epsilons = {0.025, 0.05};
  grid.levels = {0.0, 0.01};

  ScenarioDistTimings t;
  t.cells = static_cast<long>(grid.CellCount());
  t.units = static_cast<long>(grid.epsilons.size());

  {
    scenario::StaticScenarioStore store(dir, workbench);
    scenario::StaticScenarioEngine engine(workbench);
    engine.set_store(&store);
    const auto out = engine.Run(grid);
    t.cold_s = out.stats.wall_seconds;
    t.cold_trained = out.stats.trained_models;
    t.cold_crafted = out.stats.crafted_sets;
  }
  {
    scenario::StaticScenarioStore store(dir, workbench);
    scenario::StaticScenarioEngine engine(workbench);
    engine.set_store(&store);
    const auto out = engine.Run(grid);
    t.warm_s = out.stats.wall_seconds;
    t.warm_trained = out.stats.trained_models;
    t.warm_crafted = out.stats.crafted_sets;
    t.warm_model_hits = out.stats.store_model_hits;
    t.warm_craft_hits = out.stats.store_craft_hits;
  }
  {
    scenario::StaticScenarioStore store(dir, workbench);
    scenario::StaticScenarioEngine engine(workbench);
    engine.set_store(&store);
    scenario::RunOptions options;
    options.resume = true;
    const auto out = engine.Run(grid, options);
    t.resume_s = out.stats.wall_seconds;
    t.resume_trained = out.stats.trained_models;
    t.resume_crafted = out.stats.crafted_sets;
    t.resume_replayed = out.stats.replayed_units;
  }
  std::filesystem::remove_all(dir);
  return t;
}

}  // namespace
}  // namespace axsnn

int main(int argc, char** argv) {
  int repeats = 50;
  if (argc > 1) {
    // Full-string validation: "50x" or "" must not silently become 0 repeats.
    const auto parsed = axsnn::runtime::ParseLongStrict(argv[1]);
    if (!parsed || *parsed <= 0 || *parsed > 1000000) {
      std::fprintf(stderr,
                   "usage: %s [repeats]  (positive integer, got \"%s\")\n",
                   argv[0], argv[1]);
      return 2;
    }
    repeats = static_cast<int>(*parsed);
  }

  std::printf("== runtime micro-benchmark ==\n");
  std::printf("hardware threads: %d\n", axsnn::runtime::DefaultThreadCount());
  const auto& cpu = axsnn::kernels::DetectCpuFeatures();
  const char* simd_tier =
      axsnn::kernels::SimdTierName(axsnn::kernels::ActiveSimdTier());
  std::printf(
      "simd tier: %s (cpuid: avx2=%d fma=%d avx_vnni=%d avx512_vnni=%d)\n",
      simd_tier, cpu.avx2, cpu.fma, cpu.avx_vnni, cpu.avx512_vnni);

  const auto scaling = axsnn::RunScaling(repeats);
  const double base = scaling.front().seconds_per_pass;
  std::printf("\npool scaling (forward pass [8,16,1,16,16], %d repeats):\n",
              repeats);
  std::printf("  threads   ms/pass   speedup\n");
  for (const auto& p : scaling)
    std::printf("  %7d   %7.3f   %6.2fx\n", p.threads,
                p.seconds_per_pass * 1e3, base / p.seconds_per_pass);

  const auto counts = axsnn::CountAllocations();
  std::printf("\nheap allocations per forward pass:\n");
  std::printf("  Forward (allocating):        %ld\n",
              counts.allocating_forward);
  std::printf("  ForwardShared (first pass):  %ld\n",
              counts.shared_first_pass);
  std::printf("  ForwardShared (steady):      %ld\n",
              counts.shared_steady_state);

  const auto kernels = axsnn::RunKernelComparison(repeats);
  std::printf("\nkernel backends (forward, ms/pass):\n");
  std::printf("  conv2d  fp32 %7.3f   int8 %7.3f   speedup %5.2fx\n",
              kernels.conv_fp32_ms, kernels.conv_int8_ms,
              kernels.conv_fp32_ms / kernels.conv_int8_ms);
  std::printf("  dense   fp32 %7.3f   int8 %7.3f   speedup %5.2fx\n",
              kernels.dense_fp32_ms, kernels.dense_int8_ms,
              kernels.dense_fp32_ms / kernels.dense_int8_ms);

  const auto dispatch = axsnn::RunDispatchComparison(repeats);
  std::printf("\nkernel dispatch at %.0f%% spike density (ms/pass):\n",
              dispatch.density * 100.0);
  const auto print_modes = [](const char* name, const auto& m) {
    std::printf("  %-11s naive %7.3f   sparse %7.3f   "
                "simd %7.3f   auto %7.3f   best %5.2fx\n",
                name, m.naive_ms, m.sparse_ms, m.simd_ms, m.auto_ms,
                m.best_speedup());
  };
  print_modes("conv2d fp32", dispatch.conv_fp32);
  print_modes("conv2d int8", dispatch.conv_int8);
  print_modes("dense  fp32", dispatch.dense_fp32);
  print_modes("dense  int8", dispatch.dense_int8);

  // Dispatch contract: on int8 layers the auto mode must never lose to the
  // naive reference — a regression here (e.g. a dense fallback that packs
  // more than it saves) is exactly what this harness guards. 10% margin
  // absorbs timer noise on shared runners.
  bool dispatch_ok = true;
  const auto check_auto = [&](const char* name, const auto& m) {
    const bool ok = m.auto_ms <= m.naive_ms * 1.10;
    if (!ok) dispatch_ok = false;
    std::printf("  assert %-11s auto %7.3f <= 1.10 * naive %7.3f : %s\n",
                name, m.auto_ms, m.naive_ms, ok ? "PASS" : "FAIL");
  };
  check_auto("conv2d int8", dispatch.conv_int8);
  check_auto("dense  int8", dispatch.dense_int8);

  const auto tiers = axsnn::RunSimdTierSweep(repeats);
  std::printf("\nsimd tier sweep (forced simd, ms/pass, 10%% density):\n");
  for (const auto& p : tiers)
    std::printf("  %-9s conv fp32 %7.3f   conv int8 %7.3f   "
                "dense fp32 %7.3f   dense int8 %7.3f\n",
                p.tier, p.conv_fp32_ms, p.conv_int8_ms, p.dense_fp32_ms,
                p.dense_int8_ms);

  const auto conv_backward = axsnn::RunConvBackward(repeats);
  std::printf("\nconv backward (Conv2d::Backward, 3x3 pad 1, ms/call, "
              "simd tier %s, %d hardware threads):\n",
              simd_tier, axsnn::runtime::DefaultThreadCount());
  std::printf("  layer          N  C_in C_out  HxW  density threads   "
              "naive      simd   speedup\n");
  for (const auto& p : conv_backward)
    std::printf("  %-12s %4ld %4ld %5ld %3ldx%-3ld %6.3f %5d %9.3f %9.3f "
                "%7.2fx\n",
                p.layer, p.n, p.c_in, p.c_out, p.hw, p.hw, p.density,
                p.threads, p.naive_ms, p.simd_ms, p.naive_ms / p.simd_ms);

  const auto dist = axsnn::RunScenarioDist();
  std::printf("\nscenario dist (%ld cells, %ld units; persistent store, "
              "fresh engine per run):\n",
              dist.cells, dist.units);
  std::printf("  cold   (empty store)  %7.3f s   (%ld trainings, %ld crafts)\n",
              dist.cold_s, dist.cold_trained, dist.cold_crafted);
  std::printf("  warm   (store reuse)  %7.3f s   (%ld trainings, %ld crafts; "
              "%ld model + %ld craft store hits)\n",
              dist.warm_s, dist.warm_trained, dist.warm_crafted,
              dist.warm_model_hits, dist.warm_craft_hits);
  std::printf("  resume (journal)      %7.3f s   (%ld trainings, %ld crafts; "
              "%ld units replayed)\n",
              dist.resume_s, dist.resume_trained, dist.resume_crafted,
              dist.resume_replayed);
  std::printf("  warm speedup   %7.2fx\n", dist.cold_s / dist.warm_s);
  std::printf("  resume speedup %7.2fx\n", dist.cold_s / dist.resume_s);
  std::printf("  assert warm+resume recompute nothing : %s\n",
              dist.zero_work_ok() ? "PASS" : "FAIL");

  if (FILE* f = std::fopen("BENCH_runtime.json", "w")) {
    std::fprintf(f, "{\n  \"workload\": \"static_net_forward[8,16,1,16,16]\",\n");
    std::fprintf(f, "  \"repeats\": %d,\n", repeats);
    std::fprintf(f, "  \"simd_tier\": \"%s\",\n", simd_tier);
    std::fprintf(f, "  \"pool_scaling\": [\n");
    for (std::size_t i = 0; i < scaling.size(); ++i)
      std::fprintf(f, "    {\"threads\": %d, \"ms_per_pass\": %.4f}%s\n",
                   scaling[i].threads, scaling[i].seconds_per_pass * 1e3,
                   i + 1 < scaling.size() ? "," : "");
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"allocations_per_forward\": {\n");
    std::fprintf(f, "    \"forward_allocating\": %ld,\n",
                 counts.allocating_forward);
    std::fprintf(f, "    \"forward_shared_first_pass\": %ld,\n",
                 counts.shared_first_pass);
    std::fprintf(f, "    \"forward_shared_steady_state\": %ld\n",
                 counts.shared_steady_state);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"int8_kernels\": {\n");
    std::fprintf(f, "    \"conv2d_fp32_ms\": %.4f,\n", kernels.conv_fp32_ms);
    std::fprintf(f, "    \"conv2d_int8_ms\": %.4f,\n", kernels.conv_int8_ms);
    std::fprintf(f, "    \"conv2d_speedup\": %.3f,\n",
                 kernels.conv_fp32_ms / kernels.conv_int8_ms);
    std::fprintf(f, "    \"dense_fp32_ms\": %.4f,\n", kernels.dense_fp32_ms);
    std::fprintf(f, "    \"dense_int8_ms\": %.4f,\n", kernels.dense_int8_ms);
    std::fprintf(f, "    \"dense_speedup\": %.3f\n",
                 kernels.dense_fp32_ms / kernels.dense_int8_ms);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"kernel_dispatch\": {\n");
    std::fprintf(f, "    \"spike_density\": %.2f,\n", dispatch.density);
    const auto emit_modes = [f](const char* name, const auto& m,
                                const char* tail) {
      std::fprintf(f,
                   "    \"%s\": {\"naive_ms\": %.4f, "
                   "\"sparse_ms\": %.4f, \"simd_ms\": %.4f, "
                   "\"auto_ms\": %.4f, \"best_speedup\": %.3f}%s\n",
                   name, m.naive_ms, m.sparse_ms, m.simd_ms, m.auto_ms,
                   m.best_speedup(), tail);
    };
    emit_modes("conv2d_fp32", dispatch.conv_fp32, ",");
    emit_modes("conv2d_int8", dispatch.conv_int8, ",");
    emit_modes("dense_fp32", dispatch.dense_fp32, ",");
    emit_modes("dense_int8", dispatch.dense_int8, ",");
    std::fprintf(f, "    \"int8_auto_never_slower_than_naive\": %s\n",
                 dispatch_ok ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"kernel_simd\": [\n");
    for (std::size_t i = 0; i < tiers.size(); ++i)
      std::fprintf(f,
                   "    {\"tier\": \"%s\", \"conv2d_fp32_ms\": %.4f, "
                   "\"conv2d_int8_ms\": %.4f, \"dense_fp32_ms\": %.4f, "
                   "\"dense_int8_ms\": %.4f}%s\n",
                   tiers[i].tier, tiers[i].conv_fp32_ms, tiers[i].conv_int8_ms,
                   tiers[i].dense_fp32_ms, tiers[i].dense_int8_ms,
                   i + 1 < tiers.size() ? "," : "");
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"conv_backward\": {\n");
    std::fprintf(f, "    \"hardware_threads\": %d,\n",
                 axsnn::runtime::DefaultThreadCount());
    std::fprintf(f, "    \"simd_tier\": \"%s\",\n", simd_tier);
    std::fprintf(f, "    \"points\": [\n");
    for (std::size_t i = 0; i < conv_backward.size(); ++i) {
      const auto& p = conv_backward[i];
      std::fprintf(f,
                   "      {\"layer\": \"%s\", \"n\": %ld, \"c_in\": %ld, "
                   "\"c_out\": %ld, \"hw\": %ld, \"density\": %.3f, "
                   "\"threads\": %d, \"naive_ms\": %.4f, \"simd_ms\": %.4f, "
                   "\"speedup\": %.3f}%s\n",
                   p.layer, p.n, p.c_in, p.c_out, p.hw, p.density, p.threads,
                   p.naive_ms, p.simd_ms, p.naive_ms / p.simd_ms,
                   i + 1 < conv_backward.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  },\n");
    std::fprintf(f, "  \"scenario_dist\": {\n");
    std::fprintf(f, "    \"cells\": %ld,\n", dist.cells);
    std::fprintf(f, "    \"work_units\": %ld,\n", dist.units);
    std::fprintf(f, "    \"cold_s\": %.4f,\n", dist.cold_s);
    std::fprintf(f, "    \"warm_s\": %.4f,\n", dist.warm_s);
    std::fprintf(f, "    \"resume_s\": %.4f,\n", dist.resume_s);
    std::fprintf(f, "    \"warm_speedup\": %.3f,\n", dist.cold_s / dist.warm_s);
    std::fprintf(f, "    \"resume_speedup\": %.3f,\n",
                 dist.cold_s / dist.resume_s);
    std::fprintf(f, "    \"cold_trained\": %ld,\n", dist.cold_trained);
    std::fprintf(f, "    \"cold_crafted\": %ld,\n", dist.cold_crafted);
    std::fprintf(f, "    \"warm_trained\": %ld,\n", dist.warm_trained);
    std::fprintf(f, "    \"warm_crafted\": %ld,\n", dist.warm_crafted);
    std::fprintf(f, "    \"resume_trained\": %ld,\n", dist.resume_trained);
    std::fprintf(f, "    \"resume_crafted\": %ld,\n", dist.resume_crafted);
    std::fprintf(f, "    \"resume_replayed_units\": %ld,\n",
                 dist.resume_replayed);
    std::fprintf(f, "    \"warm_and_resume_recompute_nothing\": %s\n",
                 dist.zero_work_ok() ? "true" : "false");
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_runtime.json\n");
  }
  if (!dispatch_ok) {
    std::fprintf(stderr,
                 "FAIL: int8 auto dispatch slower than naive (see table)\n");
    return 1;
  }
  if (!dist.zero_work_ok()) {
    std::fprintf(stderr,
                 "FAIL: warm/resumed scenario run recomputed work "
                 "(see scenario dist table)\n");
    return 1;
  }
  return 0;
}
