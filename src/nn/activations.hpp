// Parameter-free layers: ReLU, Flatten, MaxPool2D.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.hpp"

namespace refit {

/// Elementwise rectifier.
class ReLU final : public Layer {
 public:
  explicit ReLU(std::string name) : Layer(std::move(name)) {}

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] const char* kind() const override { return "relu"; }

 private:
  std::vector<std::uint8_t> mask_;  ///< 1 where the forward input was > 0
};

/// Collapse [N, ...] to [N, features].
class Flatten final : public Layer {
 public:
  explicit Flatten(std::string name) : Layer(std::move(name)) {}

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] const char* kind() const override { return "flatten"; }

 private:
  Shape input_shape_;
};

/// Non-overlapping (or strided) 2-D max pooling.
class MaxPool2D final : public Layer {
 public:
  MaxPool2D(std::string name, std::size_t window, std::size_t stride)
      : Layer(std::move(name)), window_(window), stride_(stride) {}

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] const char* kind() const override { return "maxpool"; }

 private:
  std::size_t window_;
  std::size_t stride_;
  Shape input_shape_;
  std::vector<std::size_t> argmax_;
};

}  // namespace refit
