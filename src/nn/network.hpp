// Sequential network container.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layer.hpp"
#include "nn/loss.hpp"

namespace refit {

/// A feed-forward stack of layers trained with backpropagation.
class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  /// Append a layer; returns a reference for convenient chaining/config.
  Layer& add(std::unique_ptr<Layer> layer);

  /// Run the stack. `train` makes layers cache activations for backward().
  Tensor forward(const Tensor& x, bool train = false);

  /// Backpropagate the loss gradient; parameter gradients accumulate into
  /// each layer. Returns the gradient w.r.t. the network input.
  Tensor backward(const Tensor& grad_logits);

  /// One training step's gradients: forward(images, true), the mean
  /// softmax cross-entropy against `labels` and backward, accumulated into
  /// every layer's parameter gradients; returns the logits. Two pool jobs:
  /// the forward, loss and input gradients of fixed 2-sample chunks across
  /// lanes, then every weight-gradient item (accumulate_weight_grads). The
  /// gradients and logits are bit-identical to the whole-batch calls, at
  /// any thread count.
  Tensor train_gradients(const Tensor& images,
                         const std::vector<std::uint8_t>& labels);

  /// References to every trainable parameter (rebuilt on each call).
  [[nodiscard]] std::vector<Param> params();

  /// The crossbar-mappable layers in network order.
  [[nodiscard]] std::vector<MatrixLayer*> matrix_layers();

  void zero_grad();

  [[nodiscard]] std::size_t size() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i);

  /// Mean classification accuracy over a sample set: one pool job over
  /// fixed 16-sample chunks, each lane running the whole forward on its
  /// chunks. Every output row depends on its own sample only, so the
  /// result does not depend on the chunking or the thread count.
  double evaluate(const Tensor& inputs,
                  const std::vector<std::uint8_t>& labels);

  /// Total number of weight-matrix elements (paper's "weight amount").
  [[nodiscard]] std::size_t weight_count();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Slice rows [begin, end) of a [N, ...] tensor into a new tensor.
Tensor slice_batch(const Tensor& data, std::size_t begin, std::size_t end);

}  // namespace refit
