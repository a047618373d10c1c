// Serving probe of the static_grid traced run: open-loop single-sample
// traffic to an InferenceServer serving the grid's trained model. The
// kernels/snn layers run here at B = 1..max_batch, inference only, where
// per-call overheads (density probe, packing, pool fan-out) dominate.
//
// One generator thread (the caller) submits on a seeded Poisson schedule
// and one collector thread waits for the replies in order. The server has
// one worker, so replies complete in submission order and the collector's
// timestamps are exact. Latency counts from when a request was due, so a
// stall also charges the requests queued behind it.
#include <atomic>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>

#include "probes.hpp"
#include "serve/server.hpp"
#include "snn/loss.hpp"
#include "tensor/random.hpp"

namespace perfbench {

namespace {

using namespace axsnn;

/// Fixed serving configuration and traffic ladder.
struct Plan {
  serve::ServerOptions server;
  long slots = 512;  ///< request objects, each bound to one encoded sample
  /// About half the burst capacity of a 4-core avx2-vnni machine: small
  /// batches (B ~ 1-4), so p50/p99 show per-call cost.
  double reference_qps = 1000.0;
  int reference_windows = 3;
  int bursts = 3;
  /// About 20 B=1 service times; met at light load, missed once the queue
  /// grows faster than batching can drain it.
  double p99_limit_ms = 20.0;
  /// Ladder 800/s .. 2760/s in 10% steps (a 25% gain moves >= 2 rungs).
  double ladder_min_qps = 800.0;
  double ladder_step = 1.1;
  int ladder_rungs = 14;
  long probe_requests = 3000;
  /// Latency percentiles are taken per window of this many consecutive
  /// requests (p99: 10 samples beyond it).
  long window = 1000;
};

Plan MakePlan(bool reduced) {
  Plan p;
  p.server.workers = 1;
  p.server.max_batch = 16;
  p.server.max_delay = std::chrono::microseconds(100);
  p.server.queue_capacity = 4096;
  if (reduced) {
    p.slots = 64;
    p.ladder_rungs = 4;
    p.probe_requests = 300;
    p.window = 100;
  }
  return p;
}

/// One request slot: a reusable request bound to one encoded sample, plus
/// that sample's B=1 reference logits.
struct Slot {
  serve::InferRequest request;
  Tensor reference;
};

/// Outcome of one open-loop session.
struct Session {
  std::vector<double> latency_ms;  ///< per collected request, from due
  std::vector<double> lag_ms;      ///< generator lateness per send
  long sent = 0;
  long backlog_max = 0;     ///< most requests in flight seen by the generator
  bool overloaded = false;  ///< a slot was still in flight when due again
  long failed = 0;
  long mismatched = 0;
  double wall_s = 0.0;  ///< first due to last reply
};

/// Drives `due_s` (offsets from session start, ascending) through the
/// server: this thread generates, one collector thread waits in order.
Session RunSession(serve::InferenceServer& server, std::vector<Slot>& slots,
                   const std::vector<double>& due_s) {
  const long n = static_cast<long>(due_s.size());
  const long slot_count = static_cast<long>(slots.size());
  constexpr long kDone = 1L << 40;  // flag bit: generator finished
  std::atomic<long> submitted{0};
  std::atomic<long> collected{0};
  Session session;
  session.latency_ms.reserve(static_cast<std::size_t>(n));
  session.lag_ms.reserve(static_cast<std::size_t>(n));
  const Clock::time_point start = Clock::now();
  auto due = [&](long j) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           due_s[static_cast<std::size_t>(j)]));
  };

  Clock::time_point last_done = start;
  std::thread collector([&] {
    for (long j = 0;; ++j) {
      long s = submitted.load(std::memory_order_acquire);
      while ((s & ~kDone) <= j) {
        if (s & kDone) return;
        submitted.wait(s, std::memory_order_acquire);
        s = submitted.load(std::memory_order_acquire);
      }
      Slot& slot = slots[static_cast<std::size_t>(j % slot_count)];
      slot.request.Wait();
      last_done = Clock::now();
      session.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(last_done - due(j)).count());
      if (!slot.request.ok()) {
        ++session.failed;
      } else if (slot.request.logits.numel() != slot.reference.numel() ||
                 std::memcmp(slot.request.logits.data(), slot.reference.data(),
                             static_cast<std::size_t>(slot.reference.numel()) *
                                 sizeof(float)) != 0) {
        ++session.mismatched;
      }
      collected.store(j + 1, std::memory_order_release);
    }
  });

  long j = 0;
  for (; j < n; ++j) {
    if (j - collected.load(std::memory_order_acquire) >= slot_count) {
      session.overloaded = true;
      break;
    }
    std::this_thread::sleep_until(due(j));
    session.lag_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - due(j)).count());
    server.Submit(slots[static_cast<std::size_t>(j % slot_count)].request);
    submitted.store(j + 1, std::memory_order_release);
    submitted.notify_one();
    session.backlog_max = std::max(
        session.backlog_max, j + 1 - collected.load(std::memory_order_acquire));
  }
  session.sent = j;
  submitted.store(j | kDone, std::memory_order_release);
  submitted.notify_one();
  collector.join();
  session.wall_s = std::chrono::duration<double>(last_done - start).count();
  return session;
}

/// Seeded Poisson arrivals at `qps` for `count` requests.
std::vector<double> PoissonSchedule(double qps, long count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> due(static_cast<std::size_t>(count));
  double t = 0.0;
  for (double& d : due) {
    t += -std::log(1.0 - rng.Uniform()) / qps;
    d = t;
  }
  return due;
}

/// Correctness accounting for one session: every sent request is an
/// attempted operation; a failed or non-identical reply fails it.
void Account(const Session& session, Result& result) {
  result.attempted += session.sent;
  if (session.failed > 0)
    result.Violation(std::to_string(session.failed) + " requests failed",
                     session.failed);
  if (session.mismatched > 0)
    result.Violation(std::to_string(session.mismatched) +
                         " replies differ from their B=1 reference logits",
                     session.mismatched);
}

/// Percentile q of each consecutive `window`-request slice of `latency_ms`
/// (one slice when there are fewer than two windows' worth).
std::vector<double> WindowPercentiles(const std::vector<double>& latency_ms,
                                      long window, double q) {
  std::vector<double> out;
  const long n = static_cast<long>(latency_ms.size());
  for (long lo = 0; lo + window <= n; lo += window)
    out.push_back(Percentile(
        std::vector<double>(latency_ms.begin() + lo,
                            latency_ms.begin() + lo + window),
        q));
  if (out.size() < 2) out = {Percentile(latency_ms, q)};
  return out;
}

/// A ladder rung passes when the median window meets the p99 limit and the
/// backlog does not grow: the generator never found a slot still in
/// flight, and the last window's median latency is within the limit too.
bool RungPasses(const Session& session, const Plan& plan) {
  if (session.overloaded) return false;
  return Median(WindowPercentiles(session.latency_ms, plan.window, 99.0)) <=
             plan.p99_limit_ms &&
         WindowPercentiles(session.latency_ms, plan.window, 50.0).back() <=
             plan.p99_limit_ms;
}

double Rung(const Plan& plan, int k) {
  return plan.ladder_min_qps * std::pow(plan.ladder_step, k);
}

}  // namespace

void ProbeServing(const snn::Network& model, const Tensor& images,
                  long time_steps, std::uint64_t seed, bool reduced,
                  Result& result) {
  const Plan plan = MakePlan(reduced);
  {
    std::ostringstream os;
    os << "serving probe: workers " << plan.server.workers << ", max_batch "
       << plan.server.max_batch << ", max_delay "
       << plan.server.max_delay.count() << " us, queue "
       << plan.server.queue_capacity << "; " << plan.slots
       << " rate-encoded requests (T " << time_steps
       << ") over the test images; open loop, Poisson arrivals, 1 generator"
       << " + 1 collector thread; reference " << plan.reference_qps
       << "/s, p99 limit " << plan.p99_limit_ms << " ms, ladder "
       << plan.ladder_min_qps << "/s x " << plan.ladder_step << "^k, k < "
       << plan.ladder_rungs;
    result.Context(os.str());
  }

  // Request pool: test image i % N with its own spike draw, and its B=1
  // reference logits.
  std::vector<Slot> slots(static_cast<std::size_t>(plan.slots));
  snn::Network reference = model.Clone();
  Shape image_shape = images.shape();
  image_shape.erase(image_shape.begin());
  const long pixels = images.numel() / images.dim(0);
  for (long i = 0; i < plan.slots; ++i) {
    Slot& slot = slots[static_cast<std::size_t>(i)];
    Tensor image(image_shape);
    std::memcpy(image.data(), images.data() + (i % images.dim(0)) * pixels,
                static_cast<std::size_t>(pixels) * sizeof(float));
    serve::EncodeStaticRequest(slot.request, image, time_steps,
                               snn::Encoding::kRate,
                               seed * 7919ULL + static_cast<std::uint64_t>(i));
    Shape batched = slot.request.frames.shape();
    batched.insert(batched.begin() + 1, 1);
    Tensor logits = snn::ReadoutMean(
        reference.ForwardShared(slot.request.frames.Reshaped(batched), false));
    slot.reference = logits.Reshaped({logits.dim(1)});
  }
  serve::InferenceServer server(model, plan.server);
  const std::vector<double> burst(static_cast<std::size_t>(plan.slots), 0.0);
  Account(RunSession(server, slots, burst), result);  // warm-up

  // Reference rate: p50/p99 per window (median window), server counters,
  // and every heap allocation in the process during the first window.
  std::uint64_t schedule_seed = seed * 0x9e3779b97f4a7c15ULL;
  const serve::ServerStats before = server.stats();
  std::vector<double> p50, p99, lag;
  long backlog_max = 0, sent = 0, allocs = 0;
  for (int w = 0; w < plan.reference_windows; ++w) {
    const std::vector<double> due =
        PoissonSchedule(plan.reference_qps, plan.window, ++schedule_seed);
    const long allocs_before = AllocCounter::Count();
    AllocCounter::Enable(w == 0);
    const Session window = RunSession(server, slots, due);
    server.Drain();
    AllocCounter::Enable(false);
    if (w == 0) allocs = AllocCounter::Count() - allocs_before;
    Account(window, result);
    p50.push_back(Percentile(window.latency_ms, 50.0));
    p99.push_back(Percentile(window.latency_ms, 99.0));
    lag.insert(lag.end(), window.lag_ms.begin(), window.lag_ms.end());
    backlog_max = std::max(backlog_max, window.backlog_max);
    if (w == 0) sent = window.sent;
  }
  const serve::ServerStats after = server.stats();
  const double batches = static_cast<double>(after.batches - before.batches);
  const double mean_batch =
      batches > 0 ? static_cast<double>(after.batched_samples -
                                        before.batched_samples) / batches
                  : 0.0;
  result.Set("serve.p50_ms", Median(p50), "ms");
  result.Set("serve.p99_ms", Median(p99), "ms");
  result.Set("serve.batches", batches, "count");
  result.Set("serve.mean_batch", mean_batch, "count");
  result.Set("serve.failed", static_cast<double>(after.failed - before.failed),
             "count");
  result.Set("serve.rejected",
             static_cast<double>(after.rejected - before.rejected), "count");
  result.Set("serve.generator_lag_ms", Percentile(lag, 99.0), "ms");
  result.Set("serve.backlog_max", static_cast<double>(backlog_max), "count");
  result.Set("serve.allocs_per_request",
             static_cast<double>(allocs) / static_cast<double>(sent), "count");

  // Bursts: every request due at once; the makespan is the drain time.
  std::vector<double> makespans;
  for (int b = 0; b < plan.bursts; ++b) {
    const Session session = RunSession(server, slots, burst);
    Account(session, result);
    makespans.push_back(session.wall_s);
  }
  result.Set("serve.burst_s", Median(makespans), "s");

  // Ladder: binary search for the highest passing rung (below saturation
  // the p99 stays far under the limit, so the passing rungs form a prefix).
  int lo = -1, hi = plan.ladder_rungs;
  std::ostringstream probes;
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const Session probe = RunSession(
        server, slots,
        PoissonSchedule(Rung(plan, mid), plan.probe_requests, ++schedule_seed));
    server.Drain();
    Account(probe, result);
    const bool pass = RungPasses(probe, plan);
    probes << " " << std::lround(Rung(plan, mid)) << (pass ? ":pass" : ":fail");
    (pass ? lo : hi) = mid;
  }
  result.Set("serve.max_qps", lo < 0 ? 0.0 : Rung(plan, lo), "1/s");
  result.Context("serving probe: ladder" + probes.str());

  // Service time of one batch at the realized mean batch size.
  const long b = std::clamp<long>(std::lround(mean_batch), 1,
                                  plan.server.max_batch);
  const Shape& frame_shape = slots[0].request.frames.shape();  // [T, ...]
  const long frame = slots[0].request.frames.numel() / time_steps;
  Shape batch_shape = frame_shape;
  batch_shape.insert(batch_shape.begin() + 1, b);
  Tensor x(batch_shape);
  for (long t = 0; t < time_steps; ++t)
    for (long i = 0; i < b; ++i)
      std::memcpy(x.data() + (t * b + i) * frame,
                  slots[static_cast<std::size_t>(i)].request.frames.data() +
                      t * frame,
                  static_cast<std::size_t>(frame) * sizeof(float));
  std::vector<double> ms;
  reference.ForwardShared(x, false);
  for (int r = 0; r < 20; ++r) {
    const auto start = Clock::now();
    reference.ForwardShared(x, false);
    ms.push_back(1e3 * SecondsSince(start));
  }
  result.Set("serve.service_ms", Median(ms), "ms");
  server.Drain();
}

}  // namespace perfbench
