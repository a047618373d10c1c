#include "snn/lif_layer.hpp"

#include <array>
#include <vector>

#include "runtime/parallel_for.hpp"
#include "tensor/check.hpp"

namespace axsnn::snn {

LifLayer::LifLayer(std::string name, LifParams params)
    : name_(std::move(name)), params_(params) {
  params_.Validate();
}

void LifLayer::set_params(LifParams params) {
  params.Validate();
  params_ = params;
  cached_membrane_ = Tensor();
  cached_spikes_ = Tensor();
}

void LifLayer::set_params_raw(LifParams params) {
  params_ = params;  // no Validate(): faulted values pass through verbatim
  cached_membrane_ = Tensor();
  cached_spikes_ = Tensor();
}

Shape LifLayer::OutputShape(const Shape& in) const {
  AXSNN_CHECK(in.size() >= 2, "LifLayer expects [T, B, F...]");
  return in;
}

void LifLayer::ForwardInto(const Tensor& x, Tensor& out, bool /*train*/) {
  SizeOutput(x, out);
  const long t_steps = x.dim(0);
  const long n = x.numel() / t_steps;  // neurons x batch

  cached_membrane_.ResizeTo(x.shape());
  cached_spikes_.ResizeTo(x.shape());

  const float* xd = x.data();
  float* ud = cached_membrane_.data();
  float* sd = cached_spikes_.data();
  float* od = out.data();
  const float beta = params_.beta;
  const float vth = params_.v_threshold;
  const float vreset = params_.v_reset;

  // The time recursion is sequential; parallelism is across neurons. The
  // spike statistics are reduced per fixed chunk and combined in chunk
  // order, so they are bit-identical at any pool size (and match the serial
  // left-to-right accumulation).
  const long grain = runtime::DefaultGrain(n);
  stat_partials_.resize(static_cast<std::size_t>(runtime::NumChunks(n, grain)));
  std::vector<std::array<double, 3>>& partials = stat_partials_;
  runtime::ParallelForChunks(
      0, n,
      [&](long chunk, long lo, long hi) {
        double spikes = 0.0;
        double membrane = 0.0;
        double drive = 0.0;
        for (long i = lo; i < hi; ++i) {
          float u_prev = 0.0f;
          float s_prev = 0.0f;
          for (long t = 0; t < t_steps; ++t) {
            const long off = t * n + i;
            // Hard reset: a spike at t-1 pulls the membrane back to v_reset.
            const float u_carry = s_prev > 0.0f ? vreset : u_prev;
            const float u_t = beta * u_carry + xd[off];
            const float s_t = u_t >= vth ? 1.0f : 0.0f;
            ud[off] = u_t;
            sd[off] = s_t;
            od[off] = s_t;
            spikes += s_t;
            membrane += u_t;
            if (u_t > 0.0f) drive += u_t;
            u_prev = u_t;
            s_prev = s_t;
          }
        }
        partials[static_cast<std::size_t>(chunk)] = {spikes, membrane, drive};
      },
      grain);

  double total_spikes = 0.0;
  double total_membrane = 0.0;
  double total_drive = 0.0;
  for (const auto& p : partials) {
    total_spikes += p[0];
    total_membrane += p[1];
    total_drive += p[2];
  }

  const double count = static_cast<double>(x.numel());
  last_total_spikes_ = total_spikes;
  last_mean_rate_ = static_cast<float>(total_spikes / count);
  last_mean_membrane_ = static_cast<float>(total_membrane / count);
  last_mean_drive_ = static_cast<float>(total_drive / count);
}

Tensor LifLayer::Backward(const Tensor& grad_out) {
  AXSNN_CHECK(!cached_membrane_.empty(),
              "LifLayer::Backward called before Forward");
  const Tensor& u = cached_membrane_;
  const Tensor& s = cached_spikes_;
  AXSNN_CHECK(grad_out.shape() == u.shape(),
              "LifLayer::Backward gradient shape mismatch");

  const long t_steps = u.dim(0);
  const long n = u.numel() / t_steps;
  Tensor grad_in(u.shape());

  const float* ud = u.data();
  const float* sd = s.data();
  const float* gd = grad_out.data();
  float* gi = grad_in.data();
  const float beta = params_.beta;
  const float vth = params_.v_threshold;
  const float alpha = params_.surrogate_alpha;

  // Reverse-time recursion per neuron. With hard reset,
  //   u[t+1] = beta * (1 - s[t]) * u[t] + beta * v_reset * s[t] + x[t+1]
  // so d u[t+1]/d u[t] = beta (1 - s[t]) and
  //    d u[t+1]/d s[t] = beta (v_reset - u[t]).
  runtime::ParallelFor(0, n, [&](long i) {
    float du_next = 0.0f;  // dL/du[t+1] flowing backwards
    for (long t = t_steps - 1; t >= 0; --t) {
      const long off = t * n + i;
      const float u_t = ud[off];
      const float s_t = sd[off];
      // Total gradient reaching the spike s[t]: from the layer output and
      // from the reset path of the next membrane update.
      const float ds = gd[off] + du_next * beta * (params_.v_reset - u_t);
      // Spike -> membrane via surrogate; plus the leak path from u[t+1].
      const float du =
          ds * SurrogateGrad(u_t, vth, alpha) + du_next * beta * (1.0f - s_t);
      gi[off] = du;  // du[t]/dx[t] = 1
      du_next = du;
    }
  });
  return grad_in;
}

std::unique_ptr<Layer> LifLayer::Clone() const {
  return std::make_unique<LifLayer>(name_, params_);
}

}  // namespace axsnn::snn
