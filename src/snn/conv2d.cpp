#include "snn/conv2d.hpp"

#include <cmath>

#include "approx/int8_backend.hpp"
#include "kernels/conv2d_kernels.hpp"
#include "tensor/check.hpp"

namespace axsnn::snn {

Conv2d::Conv2d(std::string name, long in_channels, long out_channels,
               long kernel, long pad, Rng& rng)
    : name_(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      pad_(pad) {
  AXSNN_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0,
              "Conv2d dimensions must be positive");
  AXSNN_CHECK(pad >= 0 && pad < kernel, "Conv2d pad must be in [0, kernel)");
  const float fan_in =
      static_cast<float>(in_channels * kernel * kernel);
  const float bound = std::sqrt(6.0f / fan_in);  // Kaiming-uniform
  weight_ = Tensor::Uniform({out_channels, in_channels, kernel, kernel},
                            -bound, bound, rng);
  bias_ = Tensor::Zeros({out_channels});
  dweight_ = Tensor::Zeros(weight_.shape());
  dbias_ = Tensor::Zeros(bias_.shape());
}

Shape Conv2d::OutputShape(const Shape& in) const {
  AXSNN_CHECK(in.size() >= 3, "Conv2d expects [*, C, H, W]");
  const std::size_t r = in.size();
  const long c_in = in[r - 3];
  const long h = in[r - 2];
  const long w = in[r - 1];
  AXSNN_CHECK(c_in == in_channels_,
              "Conv2d " << name_ << ": got " << c_in << " input channels, want "
                        << in_channels_);
  const long h_out = h + 2 * pad_ - kernel_ + 1;
  const long w_out = w + 2 * pad_ - kernel_ + 1;
  AXSNN_CHECK(h_out > 0 && w_out > 0, "Conv2d output would be empty");
  Shape out_shape(in.begin(), in.end() - 3);
  out_shape.push_back(out_channels_);
  out_shape.push_back(h_out);
  out_shape.push_back(w_out);
  return out_shape;
}

void Conv2d::EnableInt8Kernel(std::span<const float> row_scales) {
  qweight_ = QuantizedTensor::FromWeights(weight_, row_scales);
}

void Conv2d::ForwardInto(const Tensor& x, Tensor& out, bool train) {
  SizeOutput(x, out);
  if (train || grad_cache()) {
    cached_input_ = x;  // vector copy-assign: reuses capacity in steady state
  } else {
    // Invalidate, don't just skip: a stale cache from an earlier training
    // pass would let Backward silently differentiate the wrong activations
    // instead of throwing.
    cached_input_ = Tensor();
  }
  const kernels::Conv2dGeom geom{in_channels_, out_channels_, kernel_, pad_};
  if (!qweight_.empty()) {
    approx::Int8Conv2dForward(qweight_, bias_, x, out, geom, kernel_mode_,
                              *scratch_);
    return;
  }
  kernels::Conv2dForward(weight_, bias_, x, out, geom, kernel_mode_,
                         *scratch_);
}

Tensor Conv2d::Backward(const Tensor& grad_out) {
  AXSNN_CHECK(!cached_input_.empty(),
              "Conv2d::Backward called before Forward");
  AXSNN_CHECK(grad_out.shape() == OutputShape(cached_input_.shape()),
              "Conv2d::Backward gradient shape mismatch");
  Tensor grad_in(cached_input_.shape());
  const kernels::Conv2dGeom geom{in_channels_, out_channels_, kernel_, pad_};
  kernels::Conv2dBackward(weight_, cached_input_, grad_out, grad_in, dweight_,
                          dbias_, geom, kernel_mode_, *scratch_);
  return grad_in;
}

std::unique_ptr<Layer> Conv2d::Clone() const {
  auto copy = std::make_unique<Conv2d>(*this);
  copy->cached_input_ = Tensor();  // drop activation cache (kernel scratch
  return copy;                     // starts fresh by LocalScratch copy);
}                                  // qweight_ is kept

}  // namespace axsnn::snn
