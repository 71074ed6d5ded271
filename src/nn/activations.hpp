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

  Tensor forward_chunk(const Tensor& x, std::size_t offset,
                       bool train) override;
  Tensor backward_chunk(const Tensor& grad_out, std::size_t offset) override;
  [[nodiscard]] const char* kind() const override { return "relu"; }

 protected:
  Shape size_train_caches(const Shape& in) override;

 private:
  std::size_t per_sample_ = 0;
  std::vector<std::uint8_t> mask_;  ///< 1 where the forward input was > 0
};

/// Collapse [N, ...] to [N, features].
class Flatten final : public Layer {
 public:
  explicit Flatten(std::string name) : Layer(std::move(name)) {}

  Tensor forward_chunk(const Tensor& x, std::size_t offset,
                       bool train) override;
  Tensor backward_chunk(const Tensor& grad_out, std::size_t offset) override;
  [[nodiscard]] const char* kind() const override { return "flatten"; }

 protected:
  Shape size_train_caches(const Shape& in) override;

 private:
  Shape input_shape_;
};

/// Non-overlapping (or strided) 2-D max pooling.
class MaxPool2D final : public Layer {
 public:
  MaxPool2D(std::string name, std::size_t window, std::size_t stride)
      : Layer(std::move(name)), window_(window), stride_(stride) {}

  Tensor forward_chunk(const Tensor& x, std::size_t offset,
                       bool train) override;
  Tensor backward_chunk(const Tensor& grad_out, std::size_t offset) override;
  [[nodiscard]] const char* kind() const override { return "maxpool"; }

 protected:
  Shape size_train_caches(const Shape& in) override;

 private:
  std::size_t window_;
  std::size_t stride_;
  Shape input_shape_;
  std::size_t per_sample_ = 0;  ///< pooled outputs per sample
  /// Per output, its window maximum's index within its chunk's input.
  std::vector<std::size_t> argmax_;
};

}  // namespace refit
