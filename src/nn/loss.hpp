// Softmax + cross-entropy loss head (the paper's classification objective).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace refit {

/// Loss value plus the gradient w.r.t. the logits.
struct LossResult {
  double loss = 0.0;        ///< mean cross-entropy over the batch
  Tensor grad_logits;       ///< [B, C], already divided by batch size
  std::size_t correct = 0;  ///< argmax hits (for accuracy tracking)
};

/// Row-wise numerically-stable softmax of a [B, C] logits matrix.
Tensor softmax_rows(const Tensor& logits);

/// Mean softmax cross-entropy; labels are class indices in [0, C). The
/// one-chunk case of softmax_cross_entropy_chunk.
LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<std::uint8_t>& labels);

/// softmax_cross_entropy over one chunk of a `batch`-sample batch: the
/// logits and labels of the chunk's samples only. The loss and the
/// gradient rows are divided by `batch`, so every gradient row carries the
/// bits the whole-batch call gives it; `correct` counts the chunk's hits.
LossResult softmax_cross_entropy_chunk(const Tensor& logits,
                                       std::span<const std::uint8_t> labels,
                                       std::size_t batch);

/// Fraction of rows whose argmax equals the label.
double accuracy(const Tensor& logits, const std::vector<std::uint8_t>& labels);

}  // namespace refit
