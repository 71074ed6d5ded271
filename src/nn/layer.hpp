// Layer interfaces for the REFIT neural-network training framework (S2).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "nn/weight_store.hpp"
#include "tensor/tensor.hpp"

namespace refit {

class Rng;

/// Reference to one trainable parameter of a layer.
///
/// Weight matrices live behind a WeightStore (possibly on crossbars);
/// biases are plain tensors held in the peripheral neuron circuitry, so
/// they never suffer RRAM faults (matching the paper's model, where only
/// the matrices are on the crossbar).
struct Param {
  std::string name;
  WeightStore* store = nullptr;  ///< non-null for crossbar-capable matrices
  Tensor* value = nullptr;       ///< non-null for plain (peripheral) params
  Tensor* grad = nullptr;        ///< accumulated gradient, same shape
};

/// Base class for all layers.
///
/// Training runs in sample chunks (Network::train_gradients): begin_train
/// sizes the caches for the whole batch on the caller, then each chunk's
/// forward_chunk and backward_chunk fill and read the rows of its samples,
/// so chunks of one batch may run on different pool lanes. The whole-batch
/// forward(x, true) / backward(gy) is the one-chunk case of the same code.
class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Compute the layer output for a whole batch. `train` sizes the caches
  /// for x's batch and fills them for backward().
  Tensor forward(const Tensor& x, bool train);
  /// Propagate the whole batch's output gradient after forward(x, true);
  /// accumulates parameter gradients and returns the input gradient.
  virtual Tensor backward(const Tensor& grad_out);

  /// Size the training caches for a batch of input shape `in` ([N, ...]);
  /// returns the output shape. Runs on the caller before any chunk.
  Shape begin_train(const Shape& in);
  /// Forward of the batch's samples [offset, offset + x.dim(0)). With
  /// `train`, writes only those samples' cache rows.
  virtual Tensor forward_chunk(const Tensor& x, std::size_t offset,
                               bool train) = 0;
  /// Input gradient of the samples at `offset`, after their forward_chunk.
  /// A matrix layer also keeps the output gradient for its weight gradient
  /// (accumulate_weight_grads).
  virtual Tensor backward_chunk(const Tensor& grad_out,
                                std::size_t offset) = 0;

  /// Append references to this layer's trainable parameters.
  virtual void collect_params(std::vector<Param>& out) { (void)out; }
  /// Zero all accumulated parameter gradients.
  virtual void zero_grad() {}
  /// Short kind tag ("dense", "conv", "relu", ...).
  [[nodiscard]] virtual const char* kind() const = 0;

  [[nodiscard]] const std::string& name() const { return name_; }

 protected:
  /// begin_train's layer-specific part: size the caches, return the output
  /// shape.
  virtual Shape size_train_caches(const Shape& in) = 0;
  /// Throws unless begin_train sized a batch that holds `count` samples
  /// at `offset`.
  void check_chunk(std::size_t offset, std::size_t count) const;

 private:
  std::string name_;
  std::size_t train_batch_ = 0;
};

/// A layer whose weights form a 2-D matrix [fan_in, fan_out] mapped onto
/// crossbars, plus a peripheral bias; Dense and Conv2D implement this. The
/// re-mapping engine operates on these layers only.
///
/// Both compute y = A·W + b on GEMM rows A (a sample's input for Dense, its
/// im2col patches for Conv2D). The training chunks keep their A rows and
/// output-gradient rows; the weight gradient Aᵀ·gy and the bias gradient
/// then run as independent items over the whole batch (grad_item_*).
class MatrixLayer : public Layer {
 public:
  /// He-normal [fan_in, fan_out] weights created through `factory`, so
  /// they can live on crossbars; zero bias.
  MatrixLayer(std::string name, std::size_t fan_in, std::size_t fan_out,
              const StoreFactory& factory, Rng& rng);

  /// The one-chunk backward, then this layer's weight-gradient items.
  Tensor backward(const Tensor& grad_out) final;
  void collect_params(std::vector<Param>& out) final;
  void zero_grad() final;

  [[nodiscard]] WeightStore& weights() { return *store_; }
  [[nodiscard]] const WeightStore& weights() const { return *store_; }
  [[nodiscard]] Tensor& bias() { return bias_; }

  /// Logical output-neuron count (= matrix columns).
  [[nodiscard]] virtual std::size_t out_neurons() const = 0;
  /// Logical input-neuron count. For Dense this equals the matrix rows;
  /// for Conv2D it is the number of input channels (each spanning a block
  /// of kernel² rows).
  [[nodiscard]] virtual std::size_t in_neurons() const = 0;
  /// Matrix rows contributed by each input neuron (1 for Dense,
  /// kernel² for Conv2D).
  [[nodiscard]] virtual std::size_t rows_per_in_neuron() const = 0;

  /// The batch's weight-gradient items: row blocks of at most gemm::kMC
  /// rows of W's gradient, then one bias item. Items write disjoint
  /// gradient rows and read only the chunks' saved rows, so any lane may
  /// run any item once every chunk's backward finished.
  [[nodiscard]] std::size_t grad_items() const;
  /// Scalar-op estimate of item k (its weight in the lane balance).
  [[nodiscard]] std::size_t grad_item_cost(std::size_t k) const;
  void run_grad_item(std::size_t k);

 protected:
  /// Size the gradient caches for `batch` samples of `rows_per_sample`
  /// GEMM rows each.
  void size_grad_caches(std::size_t batch, std::size_t rows_per_sample);
  /// y = a·W_eff + b through the store (fused on a crossbar backend).
  [[nodiscard]] Tensor affine(const Tensor& a);
  /// Keep the GEMM rows of the samples at `offset` for the weight gradient.
  void save_inputs(std::size_t offset, const Tensor& a);
  /// Keep the output-gradient rows of the samples at `offset`.
  void save_output_grads(std::size_t offset, const Tensor& gy);

 private:
  std::unique_ptr<WeightStore> store_;
  Tensor bias_;
  Tensor wgrad_;
  Tensor bgrad_;
  std::size_t rows_per_sample_ = 0;
  std::size_t grad_rows_ = 0;  ///< batch × rows_per_sample
  /// The batch's GEMM rows transposed, [fan_in, grad_rows_]: the weight
  /// gradient's left-hand side, so its items read row blocks in place.
  std::vector<float> at_;
  /// The batch's output-gradient rows, packed as the gemm right-hand panel.
  std::vector<float> gy_panels_;
};

/// Every item of every layer's weight gradient in one pool job balanced by
/// cost. Each gradient element is one k-ascending sum over the whole batch,
/// so the result is bit-identical at any thread count and any chunking.
void accumulate_weight_grads(const std::vector<MatrixLayer*>& layers);

}  // namespace refit
