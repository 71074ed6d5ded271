// Loss functions (see loss.hpp).
#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace refit {

Tensor softmax_rows(const Tensor& logits) {
  REFIT_CHECK(logits.rank() == 2);
  const std::size_t rows = logits.dim(0), cols = logits.dim(1);
  Tensor p = logits;
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = p.data() + i * cols;
    const float mx = *std::max_element(row, row + cols);
    double denom = 0.0;
    for (std::size_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - mx);
      denom += row[j];
    }
    const auto inv = static_cast<float>(1.0 / denom);
    for (std::size_t j = 0; j < cols; ++j) row[j] *= inv;
  }
  return p;
}

LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<std::uint8_t>& labels) {
  REFIT_CHECK(logits.rank() == 2);
  return softmax_cross_entropy_chunk(logits, labels, logits.dim(0));
}

LossResult softmax_cross_entropy_chunk(const Tensor& logits,
                                       std::span<const std::uint8_t> labels,
                                       std::size_t batch) {
  REFIT_CHECK(logits.rank() == 2);
  const std::size_t rows = logits.dim(0), cols = logits.dim(1);
  REFIT_CHECK_MSG(labels.size() == rows, "label count mismatch");
  REFIT_CHECK(rows <= batch);
  LossResult res;
  res.grad_logits = softmax_rows(logits);
  double loss = 0.0;
  const auto inv_batch = static_cast<float>(1.0 / static_cast<double>(batch));
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t y = labels[i];
    REFIT_CHECK_MSG(y < cols, "label " << y << " out of range " << cols);
    float* row = res.grad_logits.data() + i * cols;
    // Accuracy bookkeeping before mutating the row.
    const float* mx = std::max_element(row, row + cols);
    if (static_cast<std::size_t>(mx - row) == y) ++res.correct;
    loss -= std::log(std::max(row[y], 1e-12f));
    row[y] -= 1.0f;
    for (std::size_t j = 0; j < cols; ++j) row[j] *= inv_batch;
  }
  res.loss = loss / static_cast<double>(batch);
  return res;
}

double accuracy(const Tensor& logits,
                const std::vector<std::uint8_t>& labels) {
  REFIT_CHECK(logits.rank() == 2 && logits.dim(0) == labels.size());
  const std::size_t rows = logits.dim(0), cols = logits.dim(1);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    const float* row = logits.data() + i * cols;
    const float* mx = std::max_element(row, row + cols);
    if (static_cast<std::size_t>(mx - row) == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(rows);
}

}  // namespace refit
