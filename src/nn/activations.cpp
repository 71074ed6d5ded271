// Activation functions and derivatives (see activations.hpp).
#include "nn/activations.hpp"

#include <cstdint>
#include <span>

#include "tensor/ops.hpp"

namespace refit {

namespace {

/// Elements per sample of an [N, ...] shape.
std::size_t per_sample(const Shape& s) { return shape_numel(s) / s[0]; }

/// `s` with its batch extent replaced by `n`.
Shape with_batch(Shape s, std::size_t n) {
  s[0] = n;
  return s;
}

}  // namespace

Shape ReLU::size_train_caches(const Shape& in) {
  per_sample_ = per_sample(in);
  mask_.resize(shape_numel(in));
  return in;
}

// `v > 0` is false for NaN, so NaN inputs map to 0 and block their gradient.
Tensor ReLU::forward_chunk(const Tensor& x, std::size_t offset, bool train) {
  Tensor y = x;
  float* yp = y.data();
  const std::size_t n = y.numel();
  if (train) {
    check_chunk(offset, x.dim(0));
    REFIT_CHECK_MSG(n == x.dim(0) * per_sample_,
                    "ReLU " << name() << ": input differs from the batch's");
    std::uint8_t* mp = mask_.data() + offset * per_sample_;
    for (std::size_t i = 0; i < n; ++i) {
      const bool pos = yp[i] > 0.0f;
      mp[i] = pos;
      yp[i] = keep_or_zero(pos, yp[i]);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i)
      yp[i] = keep_or_zero(yp[i] > 0.0f, yp[i]);
  }
  return y;
}

Tensor ReLU::backward_chunk(const Tensor& grad_out, std::size_t offset) {
  check_chunk(offset, grad_out.dim(0));
  REFIT_CHECK_MSG(grad_out.numel() == grad_out.dim(0) * per_sample_,
                  "ReLU " << name() << ": backward/forward shape mismatch");
  Tensor gx = grad_out;
  float* gp = gx.data();
  const std::uint8_t* mp = mask_.data() + offset * per_sample_;
  for (std::size_t i = 0; i < gx.numel(); ++i)
    gp[i] = keep_or_zero(mp[i] != 0, gp[i]);
  return gx;
}

Shape Flatten::size_train_caches(const Shape& in) {
  REFIT_CHECK(in.size() >= 2);
  input_shape_ = in;
  return {in[0], per_sample(in)};
}

Tensor Flatten::forward_chunk(const Tensor& x, std::size_t offset,
                              bool train) {
  REFIT_CHECK(x.rank() >= 2);
  if (train) check_chunk(offset, x.dim(0));
  const std::size_t batch = x.dim(0);
  return x.reshaped({batch, x.numel() / batch});
}

Tensor Flatten::backward_chunk(const Tensor& grad_out, std::size_t offset) {
  check_chunk(offset, grad_out.dim(0));
  return grad_out.reshaped(with_batch(input_shape_, grad_out.dim(0)));
}

Shape MaxPool2D::size_train_caches(const Shape& in) {
  const Shape out = maxpool2d_shape(in, window_, stride_);
  input_shape_ = in;
  per_sample_ = per_sample(out);
  argmax_.resize(shape_numel(out));
  return out;
}

Tensor MaxPool2D::forward_chunk(const Tensor& x, std::size_t offset,
                                bool train) {
  if (!train) {
    std::vector<std::size_t> argmax;
    return maxpool2d(x, window_, stride_, argmax);
  }
  check_chunk(offset, x.dim(0));
  REFIT_CHECK_MSG(x.shape() == with_batch(input_shape_, x.dim(0)),
                  "MaxPool2D " << name() << ": input differs from the batch's");
  return maxpool2d(x, window_, stride_,
                   std::span<std::size_t>(argmax_).subspan(
                       offset * per_sample_, x.dim(0) * per_sample_));
}

Tensor MaxPool2D::backward_chunk(const Tensor& grad_out, std::size_t offset) {
  check_chunk(offset, grad_out.dim(0));
  const std::size_t n = grad_out.dim(0);
  return maxpool2d_backward(grad_out, with_batch(input_shape_, n),
                            std::span<const std::size_t>(argmax_).subspan(
                                offset * per_sample_, n * per_sample_));
}

}  // namespace refit
