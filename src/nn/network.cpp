// Network container: forward / backward / update (see network.hpp).
#include "nn/network.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "common/thread_pool.hpp"

namespace refit {

namespace {

/// Samples per train_gradients work item. A constant, not a function of
/// the pool size, so that the per-call counters (store.fused_forward.calls)
/// and every artifact stay the same at any thread count: a batch of 8 is
/// four items, one per lane of a 4-thread pool.
constexpr std::size_t kTrainChunk = 2;

}  // namespace

Layer& Network::add(std::unique_ptr<Layer> layer) {
  REFIT_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *layers_.back();
}

Tensor Network::forward(const Tensor& x, bool train) {
  REFIT_CHECK_MSG(!layers_.empty(), "forward on empty network");
  Tensor cur = x;
  for (auto& layer : layers_) cur = layer->forward(cur, train);
  return cur;
}

Tensor Network::backward(const Tensor& grad_logits) {
  REFIT_CHECK_MSG(!layers_.empty(), "backward on empty network");
  Tensor cur = grad_logits;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    cur = (*it)->backward(cur);
  return cur;
}

Tensor Network::train_gradients(const Tensor& images,
                                const std::vector<std::uint8_t>& labels) {
  REFIT_CHECK_MSG(!layers_.empty(), "train_gradients on empty network");
  const std::size_t n = images.rank() >= 2 ? images.dim(0) : 0;
  REFIT_CHECK(n > 0 && labels.size() == n);
  // Every read-out cache is made current and every training cache sized
  // for the whole batch here, so the lanes below write only their own
  // samples' rows (Layer::begin_train).
  for (MatrixLayer* ml : matrix_layers()) ml->weights().prepare_forward();
  Shape shape = images.shape();
  for (auto& layer : layers_) shape = layer->begin_train(shape);
  REFIT_CHECK_MSG(shape.size() == 2, "logits must be [batch, classes]");
  Tensor logits(shape);
  const std::size_t classes = shape[1];
  const std::size_t chunks = (n + kTrainChunk - 1) / kTrainChunk;
  parallel_for(chunks, [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) {
      const std::size_t begin = c * kTrainChunk;
      const std::size_t end = std::min(begin + kTrainChunk, n);
      Tensor cur = slice_batch(images, begin, end);
      for (auto& layer : layers_) cur = layer->forward_chunk(cur, begin, true);
      std::copy(cur.data(), cur.data() + cur.numel(),
                logits.data() + begin * classes);
      cur = softmax_cross_entropy_chunk(
                cur, std::span(labels).subspan(begin, end - begin), n)
                .grad_logits;
      for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        cur = (*it)->backward_chunk(cur, begin);
    }
  });
  accumulate_weight_grads(matrix_layers());
  return logits;
}

std::vector<Param> Network::params() {
  std::vector<Param> out;
  for (auto& layer : layers_) layer->collect_params(out);
  return out;
}

std::vector<MatrixLayer*> Network::matrix_layers() {
  std::vector<MatrixLayer*> out;
  for (auto& layer : layers_) {
    if (auto* ml = dynamic_cast<MatrixLayer*>(layer.get())) out.push_back(ml);
  }
  return out;
}

void Network::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

Layer& Network::layer(std::size_t i) {
  REFIT_CHECK(i < layers_.size());
  return *layers_[i];
}

double Network::evaluate(const Tensor& inputs,
                         const std::vector<std::uint8_t>& labels) {
  // Samples per work item: 4 lanes × 16 samples keep as many activations
  // in flight as one 64-sample batch.
  constexpr std::size_t kChunk = 16;
  const std::size_t n = inputs.dim(0);
  REFIT_CHECK(labels.size() == n && n > 0);
  // Every read-out cache is made current here, so the lanes below only
  // read store state (WeightStore::forward_matmul), and a train=false
  // forward caches nothing in the layers.
  for (MatrixLayer* ml : matrix_layers()) ml->weights().prepare_forward();
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  std::vector<std::size_t> correct(chunks, 0);
  parallel_for(chunks, [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) {
      const std::size_t begin = c * kChunk;
      const Tensor logits = forward(
          slice_batch(inputs, begin, std::min(begin + kChunk, n)),
          /*train=*/false);
      const std::size_t cols = logits.dim(1);
      std::size_t hits = 0;
      for (std::size_t i = 0; i < logits.dim(0); ++i) {
        const float* row = logits.data() + i * cols;
        const float* mx = std::max_element(row, row + cols);
        if (static_cast<std::size_t>(mx - row) == labels[begin + i]) ++hits;
      }
      correct[c] = hits;
    }
  });
  std::size_t total = 0;
  for (const std::size_t k : correct) total += k;
  return static_cast<double>(total) / static_cast<double>(n);
}

std::size_t Network::weight_count() {
  std::size_t total = 0;
  for (auto* ml : matrix_layers()) total += shape_numel(ml->weights().shape());
  return total;
}

Tensor slice_batch(const Tensor& data, std::size_t begin, std::size_t end) {
  REFIT_CHECK(data.rank() >= 2 && begin < end && end <= data.dim(0));
  Shape s = data.shape();
  const std::size_t per_row = data.numel() / s[0];
  s[0] = end - begin;
  Tensor out(s);
  std::copy(data.data() + begin * per_row, data.data() + end * per_row,
            out.data());
  return out;
}

}  // namespace refit
