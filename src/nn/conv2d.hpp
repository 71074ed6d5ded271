// 2-D convolution implemented as im2col + GEMM.
//
// The kernel bank is stored as a [C·k·k, OC] matrix so that, exactly like a
// Dense layer, crossbar rows are inputs and columns are output neurons
// (output channels). Each input channel spans a contiguous block of k² rows
// — the re-mapping engine permutes whole blocks when re-ordering channels.
#pragma once

#include "nn/layer.hpp"
#include "tensor/ops.hpp"

namespace refit {

class Conv2D final : public MatrixLayer {
 public:
  /// `in_*` describe the input activation [N, C, H, W]; same-padding by
  /// default (pad = kernel/2) keeps H×W when stride is 1.
  Conv2D(std::string name, std::size_t in_channels, std::size_t in_h,
         std::size_t in_w, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t pad, const StoreFactory& factory,
         Rng& rng);

  Tensor forward_chunk(const Tensor& x, std::size_t offset,
                       bool train) override;
  Tensor backward_chunk(const Tensor& grad_out, std::size_t offset) override;
  [[nodiscard]] const char* kind() const override { return "conv"; }

  [[nodiscard]] std::size_t out_neurons() const override { return oc_; }
  [[nodiscard]] std::size_t in_neurons() const override {
    return geom_.in_channels;
  }
  [[nodiscard]] std::size_t rows_per_in_neuron() const override {
    return geom_.kernel * geom_.kernel;
  }

  [[nodiscard]] const ConvGeometry& geometry() const { return geom_; }
  [[nodiscard]] std::size_t out_h() const { return geom_.out_h(); }
  [[nodiscard]] std::size_t out_w() const { return geom_.out_w(); }

 protected:
  Shape size_train_caches(const Shape& in) override;

 private:
  void check_input(const Shape& in) const;

  ConvGeometry geom_;
  std::size_t oc_;
};

}  // namespace refit
