// Serial tensor kernels — GEMM, conv lowering and pooling (see ops.hpp).
#include "tensor/ops.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"
#include "tensor/gemm.hpp"

namespace refit {

namespace {

void check_rank2(const Tensor& t, const char* name) {
  REFIT_CHECK_MSG(t.rank() == 2,
                  name << " must be rank-2, got " << shape_to_string(t.shape()));
}

void count_gemm_flops(std::size_t m, std::size_t k, std::size_t n) {
  static obs::Counter flops =
      obs::MetricsRegistry::instance().counter("tensor.gemm.flops", "flop");
  flops.add(2 * m * k * n);
}

}  // namespace

// All three GEMMs run on the packed-panel core in tensor/gemm.hpp: the
// right-hand side is packed into kNR-wide column strips once per call, then
// a kMR×kNR register-blocked micro-kernel streams each strip against blocks
// of A rows. Every element keeps its k-ascending accumulation order, so
// results are bit-identical to the pre-blocking kernels (see
// docs/kernels.md).

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_rank2(a, "a");
  check_rank2(b, "b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  REFIT_CHECK_MSG(b.dim(0) == k, "inner dims mismatch: " << k << " vs "
                                                         << b.dim(0));
  Tensor c({m, n});
  count_gemm_flops(m, k, n);
  std::vector<float>& panels = gemm::scratch(0);
  panels.resize(gemm::packed_size(k, n));
  gemm::pack_b(b.data(), k, n, panels.data());
  // The zero skip matters: post-ReLU activations are sparse.
  gemm::run(m, k, n, a.data(), k, panels.data(), c.data(), n,
            /*zero_skip=*/true);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check_rank2(a, "a");
  check_rank2(b, "b");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  REFIT_CHECK_MSG(b.dim(0) == k, "inner dims mismatch in matmul_tn");
  Tensor c({m, n});
  count_gemm_flops(m, k, n);
  // Transpose-pack A so the micro-kernel reads it row-major instead of
  // walking columns at stride m.
  std::vector<float>& arows = gemm::scratch(1);
  arows.resize(m * k);
  gemm::pack_at_rows(a.data(), k, m, 0, m, arows.data(), k);
  std::vector<float>& panels = gemm::scratch(0);
  panels.resize(gemm::packed_size(k, n));
  gemm::pack_b(b.data(), k, n, panels.data());
  gemm::run(m, k, n, arows.data(), k, panels.data(), c.data(), n,
            /*zero_skip=*/true);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check_rank2(a, "a");
  check_rank2(b, "b");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  REFIT_CHECK_MSG(b.dim(1) == k, "inner dims mismatch in matmul_nt");
  Tensor c({m, n});
  count_gemm_flops(m, k, n);
  // The pre-blocking nt kernel had no zero skip; keep its exact FP path.
  std::vector<float>& panels = gemm::scratch(0);
  if (m <= gemm::kMC) {
    // One row block, as in a train chunk's input gradient: each packed
    // strip is read by one kernel pass only, so a group of strips is
    // packed and used while it is in cache instead of packing all of B.
    constexpr std::size_t kGroupCols = 8 * gemm::kNR;
    for (std::size_t j0 = 0; j0 < n; j0 += kGroupCols) {
      const std::size_t cols = std::min(kGroupCols, n - j0);
      panels.resize(gemm::packed_size(k, cols));
      gemm::pack_bt(b.data() + j0 * k, cols, k, panels.data());
      gemm::run(m, k, cols, a.data(), k, panels.data(), c.data() + j0, n,
                /*zero_skip=*/false);
    }
    return c;
  }
  panels.resize(gemm::packed_size(k, n));
  gemm::pack_bt(b.data(), n, k, panels.data());
  gemm::run(m, k, n, a.data(), k, panels.data(), c.data(), n,
            /*zero_skip=*/false);
  return c;
}

Tensor transpose(const Tensor& m) {
  check_rank2(m, "m");
  const std::size_t r = m.dim(0), c = m.dim(1);
  Tensor t({c, r});
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) t.at(j, i) = m.at(i, j);
  return t;
}

void add_row_vector(Tensor& m, const Tensor& bias) {
  check_rank2(m, "m");
  REFIT_CHECK(bias.rank() == 1 && bias.dim(0) == m.dim(1));
  const std::size_t rows = m.dim(0), cols = m.dim(1);
  float* mp = m.data();
  const float* bp = bias.data();
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = mp + i * cols;
    for (std::size_t j = 0; j < cols; ++j) row[j] += bp[j];
  }
}

// im2col and col2im walk each patch as (c, kh) kernel rows. A kernel row
// of output column x is the K floats at x·stride of the zero-padded input
// row, so each input row is padded into a local buffer once per
// (c, kh, y) and the x loop runs without bounds tests.

namespace {

/// Runs fn(kernel width), the width a compile-time constant for the 3×3
/// kernels every model here uses: the K-float patch-row loops then unroll,
/// which makes im2col and col2im 2–3x faster than with a run-time width.
template <typename Fn>
void with_kernel_width(std::size_t kernel, Fn&& fn) {
  if (kernel == 3) {
    fn(std::integral_constant<std::size_t, 3>{});
  } else {
    fn(kernel);
  }
}

}  // namespace

Tensor im2col(const Tensor& input, const ConvGeometry& g) {
  REFIT_CHECK(input.rank() == 4);
  const std::size_t batch = input.dim(0);
  REFIT_CHECK(input.dim(1) == g.in_channels && input.dim(2) == g.in_h &&
              input.dim(3) == g.in_w);
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t plen = g.patch_len();
  const std::size_t plane = g.in_h * g.in_w;
  Tensor cols({batch * oh * ow, plen});
  float* cp = cols.data();
  const float* ip = input.data();
  with_kernel_width(g.kernel, [&](auto kern) {
    std::vector<float> padded(g.in_w + 2 * g.pad, 0.0f);  // pads stay 0
    for (std::size_t n = 0; n < batch; ++n) {
      const float* img = ip + n * g.in_channels * plane;
      for (std::size_t y = 0; y < oh; ++y) {
        float* out = cp + (n * oh + y) * ow * plen;
        for (std::size_t c = 0; c < g.in_channels; ++c) {
          for (std::size_t kh = 0; kh < kern; ++kh) {
            float* dst = out + (c * kern + kh) * kern;
            const std::size_t in_y = y * g.stride + kh;  // padded row
            if (in_y < g.pad || in_y >= g.in_h + g.pad) {
              for (std::size_t x = 0; x < ow; ++x)
                for (std::size_t kw = 0; kw < kern; ++kw)
                  dst[x * plen + kw] = 0.0f;
              continue;
            }
            std::copy_n(img + c * plane + (in_y - g.pad) * g.in_w, g.in_w,
                        padded.data() + g.pad);
            for (std::size_t x = 0; x < ow; ++x) {
              const float* src = padded.data() + x * g.stride;
              for (std::size_t kw = 0; kw < kern; ++kw)
                dst[x * plen + kw] = src[kw];
            }
          }
        }
      }
    }
  });
  return cols;
}

Tensor col2im(const Tensor& cols, std::size_t batch, const ConvGeometry& g) {
  REFIT_CHECK(cols.rank() == 2);
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t plen = g.patch_len();
  const std::size_t plane = g.in_h * g.in_w;
  REFIT_CHECK(cols.dim(0) == batch * oh * ow && cols.dim(1) == plen);
  Tensor input({batch, g.in_channels, g.in_h, g.in_w});
  const float* cp = cols.data();
  float* ip = input.data();
  // The padded row carries an input row's running sums through one
  // (c, kh, y) pass; its pad slots collect the taps that fall outside and
  // are never written back. Every input element receives its terms in
  // ascending (y, x) order.
  with_kernel_width(g.kernel, [&](auto kern) {
    std::vector<float> padded(g.in_w + 2 * g.pad, 0.0f);
    for (std::size_t n = 0; n < batch; ++n) {
      float* img = ip + n * g.in_channels * plane;
      for (std::size_t y = 0; y < oh; ++y) {
        const float* in = cp + (n * oh + y) * ow * plen;
        for (std::size_t c = 0; c < g.in_channels; ++c) {
          for (std::size_t kh = 0; kh < kern; ++kh) {
            const std::size_t in_y = y * g.stride + kh;  // padded row
            if (in_y < g.pad || in_y >= g.in_h + g.pad) continue;
            float* row = img + c * plane + (in_y - g.pad) * g.in_w;
            std::copy_n(row, g.in_w, padded.data() + g.pad);
            const float* src = in + (c * kern + kh) * kern;
            for (std::size_t x = 0; x < ow; ++x) {
              float* acc = padded.data() + x * g.stride;
              for (std::size_t kw = 0; kw < kern; ++kw)
                acc[kw] += src[x * plen + kw];
            }
            std::copy_n(padded.data() + g.pad, g.in_w, row);
          }
        }
      }
    }
  });
  return input;
}

Tensor rows_to_nchw(const Tensor& rows, std::size_t batch, std::size_t oc,
                    std::size_t oh, std::size_t ow) {
  REFIT_CHECK(rows.rank() == 2 && rows.dim(0) == batch * oh * ow &&
              rows.dim(1) == oc);
  Tensor out({batch, oc, oh, ow});
  const float* rp = rows.data();
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t y = 0; y < oh; ++y)
      for (std::size_t x = 0; x < ow; ++x) {
        const float* row = rp + ((n * oh + y) * ow + x) * oc;
        for (std::size_t c = 0; c < oc; ++c) out.at4(n, c, y, x) = row[c];
      }
  return out;
}

Tensor nchw_to_rows(const Tensor& t) {
  REFIT_CHECK(t.rank() == 4);
  const std::size_t batch = t.dim(0), oc = t.dim(1), oh = t.dim(2),
                    ow = t.dim(3);
  Tensor rows({batch * oh * ow, oc});
  float* rp = rows.data();
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t y = 0; y < oh; ++y)
      for (std::size_t x = 0; x < ow; ++x) {
        float* row = rp + ((n * oh + y) * ow + x) * oc;
        for (std::size_t c = 0; c < oc; ++c) row[c] = t.at4(n, c, y, x);
      }
  return rows;
}

Shape maxpool2d_shape(const Shape& input, std::size_t window,
                      std::size_t stride) {
  REFIT_CHECK(input.size() == 4 && window > 0 && stride > 0);
  REFIT_CHECK(input[2] >= window && input[3] >= window);
  return {input[0], input[1], (input[2] - window) / stride + 1,
          (input[3] - window) / stride + 1};
}

Tensor maxpool2d(const Tensor& input, std::size_t window, std::size_t stride,
                 std::span<std::size_t> argmax) {
  Tensor out(maxpool2d_shape(input.shape(), window, stride));
  REFIT_CHECK(argmax.size() == out.numel());
  const std::size_t ch = input.dim(1), ih = input.dim(2), iw = input.dim(3);
  const std::size_t oh = out.dim(2), ow = out.dim(3);
  // The running maximum and its index update through conditional selects
  // (maxss and cmov at -O2) rather than the branch that mispredicted on
  // activations.
  for (std::size_t n = 0; n < input.dim(0); ++n) {
    for (std::size_t c = 0; c < ch; ++c) {
      const std::size_t plane = (n * ch + c) * ih;
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = (plane + y * stride) * iw + x * stride;
          for (std::size_t wy = 0; wy < window; ++wy) {
            for (std::size_t wx = 0; wx < window; ++wx) {
              const std::size_t flat =
                  (plane + y * stride + wy) * iw + x * stride + wx;
              const float v = input[flat];
              const bool take = v > best;
              best = take ? v : best;
              best_idx = take ? flat : best_idx;
            }
          }
          const std::size_t oi = ((n * ch + c) * oh + y) * ow + x;
          out[oi] = best;
          argmax[oi] = best_idx;
        }
      }
    }
  }
  return out;
}

Tensor maxpool2d(const Tensor& input, std::size_t window, std::size_t stride,
                 std::vector<std::size_t>& argmax) {
  argmax.resize(shape_numel(maxpool2d_shape(input.shape(), window, stride)));
  return maxpool2d(input, window, stride, std::span<std::size_t>(argmax));
}

Tensor maxpool2d_backward(const Tensor& grad_out, const Shape& input_shape,
                          std::span<const std::size_t> argmax) {
  REFIT_CHECK(grad_out.numel() == argmax.size());
  Tensor grad_in(input_shape);
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    REFIT_DCHECK(argmax[i] < grad_in.numel());
    grad_in[argmax[i]] += grad_out[i];
  }
  return grad_in;
}

}  // namespace refit
