// Fully-connected layer: y = x·W + b with W on a WeightStore.
#pragma once

#include "nn/layer.hpp"

namespace refit {

class Dense final : public MatrixLayer {
 public:
  /// He-normal initialized dense layer; the weight matrix [in, out] is
  /// created through `factory` so it can live on crossbars.
  Dense(std::string name, std::size_t in, std::size_t out,
        const StoreFactory& factory, Rng& rng);

  Tensor forward_chunk(const Tensor& x, std::size_t offset,
                       bool train) override;
  Tensor backward_chunk(const Tensor& grad_out, std::size_t offset) override;
  [[nodiscard]] const char* kind() const override { return "dense"; }

  [[nodiscard]] std::size_t out_neurons() const override { return out_; }
  [[nodiscard]] std::size_t in_neurons() const override { return in_; }
  [[nodiscard]] std::size_t rows_per_in_neuron() const override { return 1; }

 protected:
  Shape size_train_caches(const Shape& in) override;

 private:
  void check_input(const Shape& in) const;

  std::size_t in_;
  std::size_t out_;
};

}  // namespace refit
