// Tests for the runtime subsystem and its determinism contract:
//  * ThreadPool / ParallelFor execute every index exactly once, propagate
//    exceptions, and spread nested batches over idle workers;
//  * chunk partitioning and reductions are bit-identical at any pool size;
//  * full evaluation pipelines (AccuracyStatic / LogitsTemporal) produce
//    identical results with pools of size 1, 2 and hardware_concurrency;
//  * Network::Clone and StateDict/LoadStateDict round-trip weights exactly;
//  * Network::ForwardShared reuses its workspace (allocation-free steady
//    state) and matches the allocating Forward bit for bit.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/dvs_gesture.hpp"
#include "data/event.hpp"
#include "data/synthetic_mnist.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/workspace.hpp"
#include "snn/inference.hpp"
#include "snn/models.hpp"
#include "snn/trainer.hpp"

namespace axsnn {
namespace {

// --- ThreadPool basics ------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  runtime::ThreadPool pool(4);
  constexpr long kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.Run(kTasks, [&](long i) { hits[static_cast<std::size_t>(i)]++; });
  for (long i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  runtime::ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  long sum = 0;  // no synchronization needed: everything runs inline
  pool.Run(100, [&](long i) { sum += i; });
  EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  runtime::ThreadPool pool(2);
  EXPECT_THROW(pool.Run(8,
                        [&](long i) {
                          if (i == 3) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The pool stays usable after a failed batch.
  std::atomic<long> count{0};
  pool.Run(8, [&](long) { count++; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, InlineRunFinishesEveryTaskBeforeRethrowing) {
  // A pool of one runs its batch inline; it must keep the queued branch's
  // contract: every task runs, then the first exception is rethrown.
  runtime::ThreadPool pool(1);
  std::vector<int> ran(8, 0);
  try {
    pool.Run(8, [&](long i) {
      ran[static_cast<std::size_t>(i)] = 1;
      if (i == 2) throw std::runtime_error("task 2");
      if (i == 5) throw std::logic_error("task 5");
    });
    FAIL() << "expected the task exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 2");  // the first error, not the last
  }
  for (std::size_t i = 0; i < ran.size(); ++i)
    EXPECT_EQ(ran[i], 1) << "task " << i << " never ran";
}

// A task that calls Run queues its batch behind the outer one; the workers
// the outer batch leaves idle must pick up its chunks.
TEST(ThreadPool, NestedRunUsesIdleWorkers) {
  runtime::ThreadPool pool(4);
  constexpr int kOuter = 2;
  constexpr long kInner = 16;

  std::mutex mutex;
  std::set<std::thread::id> executors[kOuter];
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.Run(kOuter, [&](long o) {
    EXPECT_TRUE(runtime::ThreadPool::InParallelRegion());
    pool.Run(kInner, [&, o](long i) {
      // Long enough for the two idle workers to claim shares of both inner
      // batches before either outer thread finishes its batch alone.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      hits[static_cast<std::size_t>(o * kInner + i)]++;
      std::lock_guard<std::mutex> lock(mutex);
      executors[o].insert(std::this_thread::get_id());
    });
  });
  EXPECT_FALSE(runtime::ThreadPool::InParallelRegion());

  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << i;
  for (int o = 0; o < kOuter; ++o)
    EXPECT_GE(executors[o].size(), 2u)
        << "outer task " << o << "'s inner batch ran single-threaded";
}

TEST(ThreadPool, DeepNestingCompletesAndPropagatesExceptions) {
  runtime::ThreadPool pool(4);
  constexpr long kA = 3, kB = 4, kC = 5;

  std::vector<std::atomic<int>> hits(kA * kB * kC);
  auto three_levels = [&](bool throw_innermost) {
    pool.Run(kA, [&](long a) {
      pool.Run(kB, [&, a](long b) {
        pool.Run(kC, [&, a, b](long c) {
          hits[static_cast<std::size_t>((a * kB + b) * kC + c)]++;
          if (throw_innermost && a == 1 && b == 2 && c == 3)
            throw std::runtime_error("innermost");
        });
      });
    });
  };

  three_levels(false);
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << i;

  // The exception unwinds through every level; the batches it passes
  // through still drain, so every leaf runs exactly once more.
  try {
    three_levels(true);
    ADD_FAILURE() << "the innermost exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "innermost");
  }
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 2) << i;

  // The pool stays usable afterwards.
  std::atomic<long> count{0};
  pool.Run(8, [&](long) { count++; });
  EXPECT_EQ(count.load(), 8);
}

// --- ThreadPool multi-producer Run ------------------------------------------

// Regression for the silent single-threaded degrade: a second thread calling
// Run while another batch was in flight used to execute its whole batch
// inline. With the FIFO batch queue, both submitters' batches must be
// executed by more than one thread.
TEST(ThreadPool, ConcurrentSubmittersBothSeePoolParallelism) {
  runtime::ThreadPool pool(4);
  constexpr int kSubmitters = 2;
  constexpr long kTasks = 32;

  std::mutex mutex;
  std::set<std::thread::id> executors[kSubmitters];
  std::atomic<long> counts[kSubmitters] = {};

  // Hand-rolled barrier so both Runs are in flight simultaneously.
  std::atomic<int> ready{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      ready.fetch_add(1);
      while (ready.load() < kSubmitters) std::this_thread::yield();
      pool.Run(kTasks, [&, s](long) {
        // Long enough for the workers to wake up and claim shares of both
        // queued batches before any single thread finishes one alone.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        counts[s].fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mutex);
        executors[s].insert(std::this_thread::get_id());
      });
    });
  }
  for (auto& t : submitters) t.join();

  for (int s = 0; s < kSubmitters; ++s) {
    EXPECT_EQ(counts[s].load(), kTasks) << "submitter " << s;
    EXPECT_GE(executors[s].size(), 2u)
        << "submitter " << s << "'s batch ran single-threaded";
  }
}

TEST(ThreadPool, ConcurrentSubmittersStress) {
  // Many small racing batches from several threads: exactly-once execution
  // must hold for every batch (and TSan must stay quiet on the queue).
  runtime::ThreadPool pool(4);
  constexpr int kSubmitters = 4;
  constexpr int kRounds = 50;

  std::atomic<long> grand_total{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      long expected = 0;
      std::atomic<long> mine{0};
      for (int r = 0; r < kRounds; ++r) {
        const long n = 1 + (s * 31 + r * 17) % 23;  // varied batch sizes
        expected += n;
        pool.Run(n, [&](long) { mine.fetch_add(1, std::memory_order_relaxed); });
      }
      EXPECT_EQ(mine.load(), expected) << "submitter " << s;
      grand_total.fetch_add(mine.load());
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_GT(grand_total.load(), 0);
}

// Regression for the SetGlobalThreads use-after-free: resizing the global
// pool used to destroy it while other threads were mid-Run on it. With
// refcounted epoch retirement, in-flight users keep their pool alive.
TEST(ThreadPool, SetGlobalThreadsWhileRunning) {
  std::atomic<bool> stop{false};
  std::atomic<long> executed{0};
  constexpr int kRunners = 2;

  std::vector<std::thread> runners;
  for (int r = 0; r < kRunners; ++r) {
    runners.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto pool = runtime::GlobalPool();  // hold across the whole Run
        pool->Run(16, [&](long) {
          executed.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    runtime::SetGlobalThreads(2 + (i & 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& t : runners) t.join();
  runtime::SetGlobalThreads(0);  // restore default for later tests

  EXPECT_GT(executed.load(), 0);
  EXPECT_EQ(executed.load() % 16, 0) << "a Run lost or duplicated tasks";
}

// --- AXSNN_THREADS / strict integer parsing ---------------------------------

TEST(ThreadPool, ParseLongStrictValidatesWholeString) {
  EXPECT_EQ(runtime::ParseLongStrict("42").value_or(-1), 42);
  EXPECT_EQ(runtime::ParseLongStrict("-3").value_or(+1), -3);
  EXPECT_EQ(runtime::ParseLongStrict(" 7").value_or(-1), 7);  // strtol skip
  EXPECT_FALSE(runtime::ParseLongStrict("").has_value());
  EXPECT_FALSE(runtime::ParseLongStrict("4abc").has_value());
  EXPECT_FALSE(runtime::ParseLongStrict("abc").has_value());
  EXPECT_FALSE(runtime::ParseLongStrict("4 ").has_value());
  EXPECT_FALSE(runtime::ParseLongStrict("99999999999999999999").has_value());
}

TEST(ThreadPool, DefaultThreadCountRejectsGarbageEnv) {
  const char* saved = std::getenv("AXSNN_THREADS");
  const std::string saved_value = saved ? saved : "";

  ::setenv("AXSNN_THREADS", "4abc", 1);
  EXPECT_THROW(runtime::DefaultThreadCount(), std::invalid_argument);
  ::setenv("AXSNN_THREADS", "0", 1);
  EXPECT_THROW(runtime::DefaultThreadCount(), std::invalid_argument);
  ::setenv("AXSNN_THREADS", "-2", 1);
  EXPECT_THROW(runtime::DefaultThreadCount(), std::invalid_argument);
  ::setenv("AXSNN_THREADS", "4", 1);
  EXPECT_EQ(runtime::DefaultThreadCount(), 4);

  if (saved)
    ::setenv("AXSNN_THREADS", saved_value.c_str(), 1);
  else
    ::unsetenv("AXSNN_THREADS");
}

// --- ParallelFor determinism ------------------------------------------------

TEST(ParallelFor, ChunkBoundariesDependOnlyOnRange) {
  // Identical chunk sets at different pool sizes — the determinism backbone.
  const long grain = runtime::DefaultGrain(1000);
  for (int threads : {1, 3, 8}) {
    runtime::ThreadPool pool(threads);
    std::vector<std::pair<long, long>> chunks(
        static_cast<std::size_t>(runtime::NumChunks(1000, grain)));
    runtime::ParallelForChunks(
        0, 1000,
        [&](long c, long lo, long hi) {
          chunks[static_cast<std::size_t>(c)] = {lo, hi};
        },
        0, &pool);
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      EXPECT_EQ(chunks[c].first, static_cast<long>(c) * grain);
      EXPECT_EQ(chunks[c].second,
                std::min<long>(1000, static_cast<long>(c + 1) * grain));
    }
  }
}

TEST(ParallelFor, SumIsBitIdenticalAcrossPoolSizes) {
  // A sum whose result depends on accumulation order when done naively.
  std::vector<double> values;
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) values.push_back(rng.Uniform(-1e6, 1e6));

  auto sum_with = [&](int threads) {
    runtime::ThreadPool pool(threads);
    return runtime::ParallelSum(
        0, static_cast<long>(values.size()),
        [&](long lo, long hi) {
          double s = 0.0;
          for (long i = lo; i < hi; ++i)
            s += values[static_cast<std::size_t>(i)];
          return s;
        },
        0, &pool);
  };
  const double serial = sum_with(1);
  EXPECT_EQ(serial, sum_with(2));
  EXPECT_EQ(serial, sum_with(5));
  EXPECT_EQ(serial, sum_with(16));
}

// --- Workspace --------------------------------------------------------------

TEST(Workspace, SlotReferencesAreStableAndStorageIsReused) {
  runtime::Workspace ws;
  Tensor& a = ws.Acquire(0, {4, 4});
  const float* data_a = a.data();
  Tensor& b = ws.Acquire(7, {2, 2});  // growing the arena must not move slot 0
  (void)b;
  EXPECT_EQ(&ws.Slot(0), &a);
  EXPECT_EQ(ws.slot_count(), 8u);
  // Shrinking then re-growing within capacity keeps the heap block.
  ws.Acquire(0, {2, 2});
  Tensor& a2 = ws.Acquire(0, {4, 4});
  EXPECT_EQ(a2.data(), data_a);
  EXPECT_EQ(a2.shape(), (Shape{4, 4}));
}

// --- End-to-end determinism across pool sizes -------------------------------

snn::Network MakeTinyStaticNet() {
  snn::StaticNetOptions opts;
  opts.height = 16;
  opts.width = 16;
  opts.conv1_channels = 4;
  opts.conv2_channels = 8;
  opts.conv3_channels = 8;
  opts.hidden = 32;
  return snn::BuildStaticNet(opts);
}

TEST(RuntimeDeterminism, AccuracyStaticIndependentOfPoolSize) {
  data::SyntheticMnistOptions d;
  d.count = 64;
  d.seed = 11;
  data::StaticDataset ds = data::MakeSyntheticMnist(d);

  std::vector<int> pool_sizes = {1, 2, runtime::DefaultThreadCount()};
  std::vector<float> accuracies;
  std::vector<std::vector<int>> predictions;
  for (int threads : pool_sizes) {
    runtime::SetGlobalThreads(threads);
    snn::Network net = MakeTinyStaticNet();
    accuracies.push_back(snn::AccuracyStatic(net, ds.images, ds.labels, 6,
                                             snn::Encoding::kRate, 42, 16));
    predictions.push_back(snn::PredictStatic(net, ds.images, 6,
                                             snn::Encoding::kRate, 42, 16));
  }
  runtime::SetGlobalThreads(0);  // restore default for later tests
  for (std::size_t i = 1; i < accuracies.size(); ++i) {
    EXPECT_EQ(accuracies[0], accuracies[i])
        << "pool size " << pool_sizes[i] << " changed the accuracy";
    EXPECT_EQ(predictions[0], predictions[i])
        << "pool size " << pool_sizes[i] << " changed the predictions";
  }
}

TEST(RuntimeDeterminism, LogitsTemporalIndependentOfPoolSize) {
  data::DvsGestureOptions d;
  d.count = 8;
  d.seed = 3;
  data::EventDataset ds = data::MakeSyntheticDvsGesture(d);
  Tensor frames = data::BinDataset(ds, 8);

  snn::DvsNetOptions opts;
  opts.height = ds.height;
  opts.width = ds.width;

  std::vector<int> pool_sizes = {1, 2, runtime::DefaultThreadCount()};
  std::vector<Tensor> logits;
  for (int threads : pool_sizes) {
    runtime::SetGlobalThreads(threads);
    snn::Network net = snn::BuildDvsNet(opts);
    logits.push_back(snn::LogitsTemporal(net, frames));
  }
  runtime::SetGlobalThreads(0);
  for (std::size_t i = 1; i < logits.size(); ++i) {
    ASSERT_EQ(logits[0].shape(), logits[i].shape());
    EXPECT_TRUE(logits[0].AllClose(logits[i], 0.0f))
        << "pool size " << pool_sizes[i] << " changed the logits";
  }
}

// Training from inside a pool task spreads its layer loops over the idle
// workers; the fixed chunking must keep every weight bit of the top-level,
// single-thread run.
TEST(RuntimeDeterminism, NestedTrainingMatchesTopLevel) {
  data::SyntheticMnistOptions sd;
  sd.count = 32;
  sd.seed = 13;
  const data::StaticDataset static_set = data::MakeSyntheticMnist(sd);

  data::DvsGestureOptions dd;
  dd.count = 8;
  dd.seed = 5;
  const data::EventDataset dvs_set = data::MakeSyntheticDvsGesture(dd);
  constexpr long kBins = 6;
  const Tensor frames = data::BinDataset(dvs_set, kBins);

  using State = std::map<std::string, Tensor>;
  auto train_static = [&] {
    snn::Network net = MakeTinyStaticNet();
    snn::TrainConfig cfg;
    cfg.epochs = 1;
    cfg.batch_size = 16;
    cfg.time_steps = 4;
    snn::FitStatic(net, static_set.images, static_set.labels, cfg);
    return net.StateDict();
  };
  auto train_dvs = [&] {
    snn::DvsNetOptions opts;
    opts.height = dvs_set.height;
    opts.width = dvs_set.width;
    snn::Network net = snn::BuildDvsNet(opts);
    snn::TrainConfig cfg;
    cfg.epochs = 1;
    cfg.batch_size = 4;
    cfg.time_steps = kBins;
    snn::FitTemporal(net, frames, dvs_set.labels, cfg);
    return net.StateDict();
  };

  runtime::SetGlobalThreads(1);
  const State static_top = train_static();
  const State dvs_top = train_dvs();

  // Two outer tasks on a pool of four leave two workers idle for the
  // nested layer loops.
  runtime::SetGlobalThreads(4);
  State static_nested, dvs_nested;
  runtime::GlobalPool()->Run(2, [&](long i) {
    if (i == 0)
      static_nested = train_static();
    else
      dvs_nested = train_dvs();
  });
  runtime::SetGlobalThreads(0);  // restore default for later tests

  auto expect_bit_identical = [](const State& a, const State& b,
                                 const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (const auto& [key, tensor] : a) {
      auto it = b.find(key);
      ASSERT_NE(it, b.end()) << what << " " << key;
      ASSERT_EQ(tensor.shape(), it->second.shape()) << what << " " << key;
      EXPECT_EQ(std::memcmp(tensor.data(), it->second.data(),
                            sizeof(float) *
                                static_cast<std::size_t>(tensor.numel())),
                0)
          << what << " " << key << " differs after nested training";
    }
  };
  expect_bit_identical(static_top, static_nested, "static");
  expect_bit_identical(dvs_top, dvs_nested, "dvs");
}

// --- Clone / StateDict round-trips ------------------------------------------

TEST(RuntimeDeterminism, CloneMatchesOriginalExactly) {
  data::SyntheticMnistOptions d;
  d.count = 32;
  d.seed = 21;
  data::StaticDataset ds = data::MakeSyntheticMnist(d);

  snn::Network net = MakeTinyStaticNet();
  snn::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 16;
  cfg.time_steps = 4;
  snn::FitStatic(net, ds.images, ds.labels, cfg);

  snn::Network clone = net.Clone();
  Rng rng_a(5), rng_b(5);
  Tensor logits_a = snn::LogitsStatic(net, ds.images, 4,
                                      snn::Encoding::kDirect, rng_a);
  Tensor logits_b = snn::LogitsStatic(clone, ds.images, 4,
                                      snn::Encoding::kDirect, rng_b);
  EXPECT_TRUE(logits_a.AllClose(logits_b, 0.0f));
}

TEST(RuntimeDeterminism, StateDictRoundTripIsExact) {
  snn::Network net = MakeTinyStaticNet();
  auto state = net.StateDict();
  EXPECT_FALSE(state.empty());

  snn::Network rebuilt = MakeTinyStaticNet();
  // Perturb, then restore: LoadStateDict must reproduce every scalar.
  for (Tensor* p : rebuilt.Params()) p->Scale(1.5f);
  rebuilt.LoadStateDict(state);

  auto params = net.Params();
  auto restored = rebuilt.Params();
  ASSERT_EQ(params.size(), restored.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    ASSERT_EQ(params[i]->shape(), restored[i]->shape());
    for (long j = 0; j < params[i]->numel(); ++j)
      ASSERT_EQ((*params[i])[j], (*restored[i])[j])
          << "param " << i << " element " << j;
  }
}

// --- Allocation-free forward path -------------------------------------------

TEST(ForwardShared, MatchesAllocatingForwardBitwise) {
  snn::Network net = MakeTinyStaticNet();
  Rng rng(9);
  Tensor x = Tensor::Uniform({4, 2, 1, 16, 16}, 0.0f, 1.0f, rng);
  snn::Network net2 = net.Clone();
  Tensor via_forward = net.Forward(x, false);
  const Tensor& via_shared = net2.ForwardShared(x, false);
  EXPECT_TRUE(via_forward.AllClose(via_shared, 0.0f));
}

TEST(ForwardShared, ReusesWorkspaceBuffersInSteadyState) {
  snn::Network net = MakeTinyStaticNet();
  Rng rng(9);
  Tensor x = Tensor::Uniform({4, 2, 1, 16, 16}, 0.0f, 1.0f, rng);
  const Tensor& first = net.ForwardShared(x, false);
  const Tensor* out_ptr = &first;
  const float* data_ptr = first.data();
  for (int pass = 0; pass < 3; ++pass) {
    const Tensor& again = net.ForwardShared(x, false);
    EXPECT_EQ(&again, out_ptr) << "output slot changed between passes";
    EXPECT_EQ(again.data(), data_ptr) << "output storage was reallocated";
  }
}

}  // namespace
}  // namespace axsnn
