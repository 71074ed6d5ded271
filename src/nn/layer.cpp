// Layer base classes: the whole-batch calls as one chunk, and the matrix
// layers' weight-gradient items (see layer.hpp).
#include "nn/layer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace refit {

Tensor Layer::forward(const Tensor& x, bool train) {
  if (train) (void)begin_train(x.shape());
  return forward_chunk(x, 0, train);
}

Tensor Layer::backward(const Tensor& grad_out) {
  REFIT_CHECK_MSG(grad_out.rank() >= 1 && grad_out.dim(0) == train_batch_,
                  name() << ": backward of " << shape_to_string(grad_out.shape())
                         << " after forward(train) of " << train_batch_
                         << " samples");
  return backward_chunk(grad_out, 0);
}

Shape Layer::begin_train(const Shape& in) {
  REFIT_CHECK_MSG(!in.empty() && in[0] > 0,
                  name() << ": bad batch " << shape_to_string(in));
  train_batch_ = 0;  // a failed sizing leaves no batch to chunk
  Shape out = size_train_caches(in);
  train_batch_ = in[0];
  return out;
}

void Layer::check_chunk(std::size_t offset, std::size_t count) const {
  REFIT_CHECK_MSG(count > 0 && offset + count <= train_batch_,
                  name() << ": samples [" << offset << ", " << offset + count
                         << ") outside the forward(train) batch of "
                         << train_batch_);
}

MatrixLayer::MatrixLayer(std::string name, std::size_t fan_in,
                         std::size_t fan_out, const StoreFactory& factory,
                         Rng& rng)
    : Layer(std::move(name)),
      bias_({fan_out}),
      wgrad_({fan_in, fan_out}),
      bgrad_({fan_out}) {
  REFIT_CHECK(fan_in > 0 && fan_out > 0);
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  store_ = factory(this->name(),
                   Tensor::randn({fan_in, fan_out}, rng, stddev));
  REFIT_CHECK(store_ != nullptr);
}

Tensor MatrixLayer::backward(const Tensor& grad_out) {
  Tensor gx = Layer::backward(grad_out);
  accumulate_weight_grads({this});
  return gx;
}

void MatrixLayer::collect_params(std::vector<Param>& out) {
  out.push_back(Param{name() + ".W", store_.get(), nullptr, &wgrad_});
  out.push_back(Param{name() + ".b", nullptr, &bias_, &bgrad_});
}

void MatrixLayer::zero_grad() {
  wgrad_.zero();
  bgrad_.zero();
}

Tensor MatrixLayer::affine(const Tensor& a) {
  Tensor y = store_->forward_matmul(a);
  add_row_vector(y, bias_);
  return y;
}

void MatrixLayer::size_grad_caches(std::size_t batch,
                                   std::size_t rows_per_sample) {
  rows_per_sample_ = rows_per_sample;
  grad_rows_ = batch * rows_per_sample;
  at_.resize(wgrad_.dim(0) * grad_rows_);
  // Tail lanes of the last strip are never written, so they stay zero
  // while the batch keeps its size.
  const std::size_t panel = gemm::packed_size(grad_rows_, wgrad_.dim(1));
  if (gy_panels_.size() != panel) gy_panels_.assign(panel, 0.0f);
}

void MatrixLayer::save_inputs(std::size_t offset, const Tensor& a) {
  const std::size_t m = wgrad_.dim(0);
  const std::size_t row0 = offset * rows_per_sample_;
  REFIT_CHECK(a.rank() == 2 && a.dim(1) == m &&
              row0 + a.dim(0) <= grad_rows_);
  gemm::pack_at_rows(a.data(), a.dim(0), m, 0, m, at_.data() + row0,
                     grad_rows_);
}

void MatrixLayer::save_output_grads(std::size_t offset, const Tensor& gy) {
  const std::size_t n = wgrad_.dim(1);
  const std::size_t row0 = offset * rows_per_sample_;
  REFIT_CHECK(gy.rank() == 2 && gy.dim(1) == n &&
              row0 + gy.dim(0) <= grad_rows_);
  for (std::size_t r = 0; r < gy.dim(0); ++r) {
    const float* src = gy.data() + r * n;
    for (std::size_t j0 = 0; j0 < n; j0 += gemm::kNR) {
      std::memcpy(&gy_panels_[gemm::packed_index(grad_rows_, row0 + r, j0)],
                  src + j0, std::min(gemm::kNR, n - j0) * sizeof(float));
    }
  }
}

std::size_t MatrixLayer::grad_items() const {
  return (wgrad_.dim(0) + gemm::kMC - 1) / gemm::kMC + 1;
}

std::size_t MatrixLayer::grad_item_cost(std::size_t k) const {
  const std::size_t m = wgrad_.dim(0), n = wgrad_.dim(1);
  if (k + 1 == grad_items()) return grad_rows_ * n;  // the bias sums
  const std::size_t rows = std::min(gemm::kMC, m - k * gemm::kMC);
  return 2 * rows * grad_rows_ * n;
}

void MatrixLayer::run_grad_item(std::size_t k) {
  const std::size_t m = wgrad_.dim(0), n = wgrad_.dim(1), kk = grad_rows_;
  if (k + 1 == grad_items()) {
    // Column sums of gy from a zero start, rows ascending, read from the
    // packed strips.
    Tensor sums({n});
    for (std::size_t j0 = 0; j0 < n; j0 += gemm::kNR) {
      const float* strip = &gy_panels_[gemm::packed_index(kk, 0, j0)];
      const std::size_t nvalid = std::min(gemm::kNR, n - j0);
      for (std::size_t r = 0; r < kk; ++r)
        for (std::size_t j = 0; j < nvalid; ++j)
          sums[j0 + j] += strip[r * gemm::kNR + j];
    }
    bgrad_ += sums;
    return;
  }
  // Rows [i0, i1) of Aᵀ·gy, as matmul_tn computes them: every element one
  // k-ascending sum over the whole batch, with the zero skip.
  static obs::Counter flops =
      obs::MetricsRegistry::instance().counter("tensor.gemm.flops", "flop");
  const std::size_t i0 = k * gemm::kMC;
  const std::size_t rows = std::min(gemm::kMC, m - i0);
  flops.add(2 * rows * kk * n);
  std::vector<float> block(rows * n);
  gemm::run(rows, kk, n, at_.data() + i0 * kk, kk, gy_panels_.data(),
            block.data(), n, /*zero_skip=*/true);
  float* w = wgrad_.data() + i0 * n;
  for (std::size_t e = 0; e < block.size(); ++e) w[e] += block[e];
}

void accumulate_weight_grads(const std::vector<MatrixLayer*>& layers) {
  std::vector<std::pair<MatrixLayer*, std::size_t>> items;
  std::vector<std::size_t> cost;
  for (MatrixLayer* layer : layers) {
    for (std::size_t k = 0; k < layer->grad_items(); ++k) {
      items.emplace_back(layer, k);
      cost.push_back(layer->grad_item_cost(k));
    }
  }
  parallel_for_weighted(cost, [&](std::size_t i) {
    items[i].first->run_grad_item(items[i].second);
  });
}

}  // namespace refit
