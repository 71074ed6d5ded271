// Activation functions and derivatives (see activations.hpp).
#include "nn/activations.hpp"

#include <bit>
#include <cstdint>

#include "tensor/ops.hpp"

namespace refit {

namespace {

/// x where keep holds, +0 elsewhere — an AND with an all-ones/all-zeros
/// mask, so the compiler cannot turn the select into a branch that
/// mispredicts on half-negative activations (GCC 12 at -O2 compiles a
/// plain `keep ? x : 0.0f` to one, about five times slower here).
float keep_or_zero(bool keep, float x) {
  const std::uint32_t mask = 0u - static_cast<std::uint32_t>(keep);
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(x) & mask);
}

}  // namespace

// `v > 0` is false for NaN, so NaN inputs map to 0 and block their gradient.
Tensor ReLU::forward(const Tensor& x, bool train) {
  Tensor y = x;
  float* yp = y.data();
  const std::size_t n = y.numel();
  if (train) {
    mask_.resize(n);
    std::uint8_t* mp = mask_.data();
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

Tensor ReLU::backward(const Tensor& grad_out) {
  REFIT_CHECK_MSG(mask_.size() == grad_out.numel(),
                  "ReLU " << name() << ": backward/forward shape mismatch");
  Tensor gx = grad_out;
  float* gp = gx.data();
  const std::uint8_t* mp = mask_.data();
  for (std::size_t i = 0; i < gx.numel(); ++i)
    gp[i] = keep_or_zero(mp[i] != 0, gp[i]);
  return gx;
}

Tensor Flatten::forward(const Tensor& x, bool train) {
  REFIT_CHECK(x.rank() >= 2);
  if (train) input_shape_ = x.shape();
  const std::size_t batch = x.dim(0);
  return x.reshaped({batch, x.numel() / batch});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  REFIT_CHECK_MSG(!input_shape_.empty(),
                  "Flatten " << name() << ": backward before forward(train)");
  return grad_out.reshaped(input_shape_);
}

Tensor MaxPool2D::forward(const Tensor& x, bool train) {
  std::vector<std::size_t> argmax;
  Tensor y = maxpool2d(x, window_, stride_, argmax);
  if (train) {
    input_shape_ = x.shape();
    argmax_ = std::move(argmax);
  }
  return y;
}

Tensor MaxPool2D::backward(const Tensor& grad_out) {
  REFIT_CHECK_MSG(!argmax_.empty(),
                  "MaxPool2D " << name()
                               << ": backward before forward(train)");
  return maxpool2d_backward(grad_out, input_shape_, argmax_);
}

}  // namespace refit
