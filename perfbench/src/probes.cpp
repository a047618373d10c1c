#include "probes.hpp"

#include <algorithm>
#include <cstring>

#include "kernels/conv2d_kernels.hpp"
#include "kernels/dense_kernels.hpp"
#include "kernels/dispatch.hpp"
#include "runtime/workspace.hpp"
#include "snn/conv2d.hpp"
#include "snn/dense.hpp"

namespace perfbench {

using axsnn::Shape;
using axsnn::Tensor;
namespace kernels = axsnn::kernels;
namespace snn = axsnn::snn;

Tensor Head(const Tensor& t, long count) {
  Shape shape = t.shape();
  const long row = t.numel() / shape[0];
  shape[0] = count;
  Tensor out(shape);
  std::memcpy(out.data(), t.data(),
              static_cast<std::size_t>(count * row) * sizeof(float));
  return out;
}

void ProbeForward(snn::Network& net, const Tensor& input, int reps,
                  const std::string& prefix, const std::string& suffix,
                  Result& result, std::vector<Tensor>* captured) {
  const std::size_t n = net.size();
  std::vector<Tensor> acts(n + 1);
  acts[0] = input;
  std::vector<std::vector<double>> ms(n);
  for (int r = 0; r < reps + 1; ++r) {  // first pass warms the workspaces
    for (std::size_t i = 0; i < n; ++i) {
      const auto start = Clock::now();
      net.layer(i).ForwardInto(acts[i], acts[i + 1], /*train=*/false);
      if (r > 0) ms[i].push_back(1e3 * SecondsSince(start));
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    result.Set(prefix + "." + net.layer(i).Name() + "." + suffix,
               Median(ms[i]), "ms");
  if (captured != nullptr) captured->assign(acts.begin(), acts.end() - 1);
}

void ProbeBackward(snn::Network& net, const Tensor& input, int reps,
                   const std::string& prefix, Result& result) {
  const std::size_t n = net.size();
  std::vector<Tensor> acts(n + 1);
  acts[0] = input;
  std::vector<std::vector<double>> ms(n);
  for (int r = 0; r < reps + 1; ++r) {
    for (std::size_t i = 0; i < n; ++i)
      net.layer(i).ForwardInto(acts[i], acts[i + 1], /*train=*/true);
    Tensor grad = Tensor::Full(acts[n].shape(), 1e-3f);
    for (std::size_t i = n; i-- > 0;) {
      const auto start = Clock::now();
      grad = net.layer(i).Backward(grad);
      if (r > 0) ms[i].push_back(1e3 * SecondsSince(start));
    }
    net.ZeroGrad();
  }
  for (std::size_t i = 0; i < n; ++i)
    result.Set(prefix + "." + net.layer(i).Name() + ".bwd_ms", Median(ms[i]),
               "ms");
}

namespace {

double NonzeroCount(const Tensor& x) {
  return static_cast<double>(kernels::Density(x.data(), x.numel())) *
         static_cast<double>(x.numel());
}

/// Median-of-`reps` time of `run` with the global kernel mode forced.
template <typename Run>
double TimeMode(kernels::KernelMode mode, int reps, Run&& run) {
  kernels::ScopedKernelMode scoped(mode);
  run(mode);  // warm-up: sizes scratch for this mode
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    run(mode);
    ms.push_back(1e3 * SecondsSince(start));
  }
  return Median(ms);
}

}  // namespace

void ProbeKernels(snn::Network& net, const std::vector<Tensor>& captured,
                  int reps, const std::string& prefix, bool densities_only,
                  Result& result) {
  static const std::pair<kernels::KernelMode, const char*> kModes[] = {
      {kernels::KernelMode::kNaive, "naive_ms"},
      {kernels::KernelMode::kSparse, "sparse_ms"},
      {kernels::KernelMode::kSimd, "simd_ms"},
  };
  double macs = 0.0, nnz_macs = 0.0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const Tensor& x = captured[i];
    const std::string row = prefix + "." + net.layer(i).Name() + ".";
    if (auto* conv = dynamic_cast<snn::Conv2d*>(&net.layer(i))) {
      result.Set(row + "density",
                 kernels::Density(x.data(), x.numel()), "ratio");
      if (densities_only) continue;
      const kernels::Conv2dGeom geom{conv->in_channels(),
                                     conv->out_channels(), conv->kernel(),
                                     conv->kernel() / 2};
      Tensor out(conv->OutputShape(x.shape()));
      axsnn::runtime::Workspace scratch;
      for (const auto& [mode, name] : kModes)
        result.Set(row + name, TimeMode(mode, reps, [&](kernels::KernelMode m) {
                     kernels::Conv2dForward(conv->weight(), conv->bias(), x,
                                            out, geom, m, scratch);
                   }),
                   "ms");
      const double kk = static_cast<double>(conv->kernel() * conv->kernel());
      macs += static_cast<double>(out.numel()) *
              static_cast<double>(conv->in_channels()) * kk;
      nnz_macs += NonzeroCount(x) * static_cast<double>(conv->out_channels()) *
                  kk;
    } else if (auto* dense = dynamic_cast<snn::Dense*>(&net.layer(i))) {
      result.Set(row + "density",
                 kernels::Density(x.data(), x.numel()), "ratio");
      if (densities_only) continue;
      Tensor out(dense->OutputShape(x.shape()));
      axsnn::runtime::Workspace scratch;
      for (const auto& [mode, name] : kModes)
        result.Set(row + name, TimeMode(mode, reps, [&](kernels::KernelMode m) {
                     kernels::DenseForward(dense->weight(), dense->bias(), x,
                                           out, m, scratch);
                   }),
                   "ms");
      macs += static_cast<double>(out.numel()) *
              static_cast<double>(dense->in_features());
      nnz_macs += NonzeroCount(x) * static_cast<double>(dense->out_features());
    }
  }
  if (!densities_only) {
    result.Set("kernels.macs", macs, "count");
    result.Set("kernels.nnz_macs", nnz_macs, "count");
  }
}

double AllocsPerForward(snn::Network& net, const Tensor& input) {
  constexpr int kPasses = 8;
  net.ForwardShared(input, false);  // first pass sizes the workspace
  net.ForwardShared(input, false);
  const long before = AllocCounter::Count();
  AllocCounter::Enable(true);
  for (int r = 0; r < kPasses; ++r) net.ForwardShared(input, false);
  AllocCounter::Enable(false);
  return static_cast<double>(AllocCounter::Count() - before) / kPasses;
}

}  // namespace perfbench
