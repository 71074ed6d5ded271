// Numeric kernels on Tensors: GEMM variants for forward/backward propagation,
// im2col/col2im for convolution, max-pooling, and small layout helpers.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace refit {

/// x where keep holds, +0 elsewhere — an AND with an all-ones/all-zeros
/// mask, so the compiler cannot turn the select into a branch that
/// mispredicts on data-dependent masks (GCC 12 at -O2 compiles a plain
/// `keep ? x : 0.0f` to one, about five times slower on half-negative
/// activations).
inline float keep_or_zero(bool keep, float x) {
  const std::uint32_t mask = 0u - static_cast<std::uint32_t>(keep);
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(x) & mask);
}

/// C = A·B with A:[m,k], B:[k,n] → C:[m,n].
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = Aᵀ·B with A:[k,m], B:[k,n] → C:[m,n]  (weight-gradient GEMM).
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// C = A·Bᵀ with A:[m,k], B:[n,k] → C:[m,n]  (input-gradient GEMM).
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// Transpose a rank-2 tensor.
Tensor transpose(const Tensor& m);

/// Add a length-n bias vector to every row of an [m,n] matrix.
void add_row_vector(Tensor& m, const Tensor& bias);

/// Geometry of a 2-D convolution / pooling window.
struct ConvGeometry {
  std::size_t in_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel = 0;
  std::size_t stride = 1;
  std::size_t pad = 0;

  [[nodiscard]] std::size_t out_h() const {
    REFIT_CHECK(in_h + 2 * pad >= kernel);
    return (in_h + 2 * pad - kernel) / stride + 1;
  }
  [[nodiscard]] std::size_t out_w() const {
    REFIT_CHECK(in_w + 2 * pad >= kernel);
    return (in_w + 2 * pad - kernel) / stride + 1;
  }
  [[nodiscard]] std::size_t patch_len() const {
    return in_channels * kernel * kernel;
  }
};

/// Unfold [N,C,H,W] input into the patches matrix
/// [N·OH·OW, C·k·k]; row order is (n, oh, ow), column order (c, kh, kw).
Tensor im2col(const Tensor& input, const ConvGeometry& g);

/// Fold a patches-matrix gradient back into an input gradient [N,C,H,W]
/// (accumulating overlapping windows). Inverse of im2col's scatter pattern.
Tensor col2im(const Tensor& cols, std::size_t batch, const ConvGeometry& g);

/// Reorder a [N·OH·OW, OC] row matrix into an [N, OC, OH, OW] tensor.
Tensor rows_to_nchw(const Tensor& rows, std::size_t batch, std::size_t oc,
                    std::size_t oh, std::size_t ow);

/// Inverse of rows_to_nchw.
Tensor nchw_to_rows(const Tensor& t);

/// Output shape of maxpool2d over an [N,C,H,W] input.
Shape maxpool2d_shape(const Shape& input, std::size_t window,
                      std::size_t stride);

/// 2-D max pooling over [N,C,H,W]; returns pooled output and writes the
/// flat input index of each window's maximum into `argmax` (one per output
/// element). Strict `>`: ties go to the window's first maximum, and NaN is
/// never selected; an all-NaN or all −∞ window yields −∞ at its first
/// element.
Tensor maxpool2d(const Tensor& input, std::size_t window, std::size_t stride,
                 std::span<std::size_t> argmax);
/// maxpool2d into a vector resized to the output's numel.
Tensor maxpool2d(const Tensor& input, std::size_t window, std::size_t stride,
                 std::vector<std::size_t>& argmax);

/// Scatter pooled gradients back through the recorded argmax indices.
Tensor maxpool2d_backward(const Tensor& grad_out, const Shape& input_shape,
                          std::span<const std::size_t> argmax);

}  // namespace refit
