// Unit tests for tensor kernels (src/tensor/ops.hpp): GEMM variants and
// both micro-kernels against the naive loops, the masked zero skip and the
// finite-panel rule that drops it, im2col/col2im against their per-tap
// reference, pooling.
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/dense.hpp"
#include "obs/metrics.hpp"
#include "rcs/crossbar_store.hpp"
#include "tensor/gemm.hpp"

namespace refit {
namespace {

TEST(Matmul, Known2x2) {
  Tensor a({2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor b({2, 2}, std::vector<float>{5, 6, 7, 8});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Matmul, RectangularShapes) {
  Tensor a({1, 3}, std::vector<float>{1, 2, 3});
  Tensor b({3, 2}, std::vector<float>{1, 0, 0, 1, 1, 1});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(c.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 5.0f);
}

TEST(Matmul, InnerDimMismatchThrows) {
  Tensor a({2, 3}), b({2, 3});
  EXPECT_THROW(matmul(a, b), CheckError);
}

TEST(Matmul, TransposeVariantsAgree) {
  Rng rng(1);
  Tensor a = Tensor::randn({4, 6}, rng);
  Tensor b = Tensor::randn({6, 5}, rng);
  Tensor ref = matmul(a, b);
  // matmul_tn(Aᵀstored, B): store A as [6,4] = aᵀ.
  Tensor at = transpose(a);
  Tensor c1 = matmul_tn(at, b);
  // matmul_nt(A, Bᵀstored): store B as [5,6] = bᵀ.
  Tensor bt = transpose(b);
  Tensor c2 = matmul_nt(a, bt);
  ASSERT_EQ(c1.shape(), ref.shape());
  ASSERT_EQ(c2.shape(), ref.shape());
  for (std::size_t i = 0; i < ref.numel(); ++i) {
    EXPECT_NEAR(c1[i], ref[i], 1e-4);
    EXPECT_NEAR(c2[i], ref[i], 1e-4);
  }
}

TEST(Transpose, Involution) {
  Rng rng(2);
  Tensor a = Tensor::randn({3, 7}, rng);
  Tensor att = transpose(transpose(a));
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], att[i]);
}

TEST(AddRowVector, Broadcasts) {
  Tensor m({2, 3}, 1.0f);
  Tensor b({3}, std::vector<float>{1, 2, 3});
  add_row_vector(m, b);
  EXPECT_FLOAT_EQ(m.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(m.at(1, 2), 4.0f);
}

TEST(ConvGeometry, OutputDims) {
  ConvGeometry g{3, 16, 16, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 16u);
  EXPECT_EQ(g.out_w(), 16u);
  EXPECT_EQ(g.patch_len(), 27u);
  ConvGeometry g2{1, 8, 8, 2, 2, 0};
  EXPECT_EQ(g2.out_h(), 4u);
}

TEST(Im2col, IdentityKernelGeometry) {
  // 1×1 kernel, no pad: im2col is a pure reshape.
  Rng rng(3);
  Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
  ConvGeometry g{3, 4, 4, 1, 1, 0};
  Tensor cols = im2col(x, g);
  EXPECT_EQ(cols.shape(), (Shape{2 * 16, 3}));
  // Row (n=0, y=1, x=2), channel 2 must equal x[0,2,1,2].
  EXPECT_FLOAT_EQ(cols.at(1 * 4 + 2, 2), x.at4(0, 2, 1, 2));
}

TEST(Im2col, ZeroPadding) {
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  ConvGeometry g{1, 2, 2, 3, 1, 1};
  Tensor cols = im2col(x, g);
  EXPECT_EQ(cols.shape(), (Shape{4, 9}));
  // Output location (0,0): top-left patch has the corner value at its
  // center-bottom-right region; the top-left patch element is padding.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);   // padded
  EXPECT_FLOAT_EQ(cols.at(0, 4), 1.0f);   // center = x(0,0)
  EXPECT_FLOAT_EQ(cols.at(0, 8), 4.0f);   // bottom-right = x(1,1)
}

TEST(Col2im, AdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property that
  // makes the convolution backward pass correct.
  Rng rng(4);
  const ConvGeometry g{2, 5, 5, 3, 2, 1};
  Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  Tensor cols = im2col(x, g);
  Tensor y = Tensor::randn(cols.shape(), rng);
  Tensor back = col2im(y, 2, g);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols.numel(); ++i)
    lhs += static_cast<double>(cols[i]) * y[i];
  for (std::size_t i = 0; i < x.numel(); ++i)
    rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(RowsNchw, RoundTrip) {
  Rng rng(5);
  Tensor t = Tensor::randn({2, 3, 4, 5}, rng);
  Tensor rows = nchw_to_rows(t);
  EXPECT_EQ(rows.shape(), (Shape{2 * 4 * 5, 3}));
  Tensor back = rows_to_nchw(rows, 2, 3, 4, 5);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], back[i]);
}

TEST(MaxPool, ForwardValues) {
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  std::vector<std::size_t> argmax;
  Tensor y = maxpool2d(x, 2, 2, argmax);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_EQ(argmax[0], 1u);
}

TEST(MaxPool, BackwardScattersToArgmax) {
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  std::vector<std::size_t> argmax;
  Tensor y = maxpool2d(x, 2, 2, argmax);
  Tensor gy(y.shape(), 1.0f);
  Tensor gx = maxpool2d_backward(gy, x.shape(), argmax);
  // Max of each 2×2 window is its bottom-right element.
  EXPECT_FLOAT_EQ(gx[5], 1.0f);
  EXPECT_FLOAT_EQ(gx[7], 1.0f);
  EXPECT_FLOAT_EQ(gx[13], 1.0f);
  EXPECT_FLOAT_EQ(gx[15], 1.0f);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx.sum(), 4.0f);
}

TEST(MaxPool, NanWindowKeepsGradientInWindow) {
  // Image 1 is all NaN: its window has no maximum, so it must pick its own
  // first element, not element 0 of the batch (image 0's).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor x({2, 1, 2, 2}, std::vector<float>{1, 2, 3, 4, nan, nan, nan, nan});
  std::vector<std::size_t> argmax;
  const Tensor y = maxpool2d(x, 2, 2, argmax);
  EXPECT_EQ(argmax, (std::vector<std::size_t>{3, 4}));
  EXPECT_FLOAT_EQ(y[0], 4.0f);
  const Tensor gx = maxpool2d_backward(Tensor(y.shape(), 1.0f), x.shape(),
                                       argmax);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(gx[i], (i == 3 || i == 4) ? 1.0f : 0.0f) << i;
}

TEST(MaxPool, MatchesNaiveReferenceOnSpecialValues) {
  // Ties, NaN, ±inf and all −inf windows against a per-window reference:
  // strict >, the first maximum wins, NaN is never picked, and a window
  // with no maximum picks its first element.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float pool[] = {nan, inf, -inf, 1.0f, 1.0f, -2.0f, 0.0f, -0.0f};
  Rng rng(19);
  Tensor x({3, 2, 5, 6});
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = pool[rng.uniform_index(8)];
  for (std::size_t i = 0; i < 4; ++i) x.at4(2, 1, i / 2, i % 2) = -inf;
  for (const std::size_t stride : {std::size_t{1}, std::size_t{2}}) {
    std::vector<std::size_t> argmax;
    const Tensor y = maxpool2d(x, 2, stride, argmax);
    for (std::size_t n = 0; n < 3; ++n)
      for (std::size_t c = 0; c < 2; ++c)
        for (std::size_t oy = 0; oy < y.dim(2); ++oy)
          for (std::size_t ox = 0; ox < y.dim(3); ++ox) {
            const std::size_t first =
                ((n * 2 + c) * 5 + oy * stride) * 6 + ox * stride;
            float best = -inf;
            std::size_t idx = first;
            for (std::size_t wy = 0; wy < 2; ++wy)
              for (std::size_t wx = 0; wx < 2; ++wx) {
                const std::size_t f = first + wy * 6 + wx;
                if (x[f] > best) {
                  best = x[f];
                  idx = f;
                }
              }
            const std::size_t oi = ((n * 2 + c) * y.dim(2) + oy) * y.dim(3) + ox;
            EXPECT_EQ(argmax[oi], idx) << "stride " << stride << " out " << oi;
            const float got = y[oi];
            EXPECT_EQ(std::memcmp(&got, &best, sizeof(float)), 0)
                << "stride " << stride << " out " << oi;
          }
  }
}

TEST(MaxPool, OverlappingWindows) {
  Tensor x({1, 1, 3, 3});
  x.at4(0, 0, 1, 1) = 10.0f;  // center wins every window
  std::vector<std::size_t> argmax;
  Tensor y = maxpool2d(x, 2, 1, argmax);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y[i], 10.0f);
  Tensor gy(y.shape(), 1.0f);
  Tensor gx = maxpool2d_backward(gy, x.shape(), argmax);
  EXPECT_FLOAT_EQ(gx.at4(0, 0, 1, 1), 4.0f);  // all four windows accumulate
}

TEST(MatmulProperty, ZeroSkipsDoNotChangeResult) {
  // The GEMM kernels skip zero multipliers; a sparse A must give the same
  // result as a dense reference computed elementwise.
  Rng rng(6);
  Tensor a = Tensor::randn({8, 8}, rng);
  for (std::size_t i = 0; i < a.numel(); i += 3) a[i] = 0.0f;
  Tensor b = Tensor::randn({8, 8}, rng);
  Tensor c = matmul(a, b);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < 8; ++k)
        acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), acc, 1e-4);
    }
}

// ---- Blocked GEMM vs the pre-blocking kernels -----------------------------

// Serial copies of the exact pre-blocking loop bodies (i-k-j with zero skip
// for matmul / matmul_tn, 4-wide j-register blocking without skip for
// matmul_nt). Deterministic mode must reproduce their results bit for bit.

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* crow = c.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor naive_matmul_tn(const Tensor& a, const Tensor& b) {
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = a.data()[kk * m + i];
      if (av == 0.0f) continue;
      const float* brow = b.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor naive_matmul_nt(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* crow = c.data() + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b.data() + j * k;
      const float* b1 = b.data() + (j + 1) * k;
      const float* b2 = b.data() + (j + 2) * k;
      const float* b3 = b.data() + (j + 3) * k;
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        acc0 += av * b0[kk];
        acc1 += av * b1[kk];
        acc2 += av * b2[kk];
        acc3 += av * b3[kk];
      }
      crow[j] = acc0;
      crow[j + 1] = acc1;
      crow[j + 2] = acc2;
      crow[j + 3] = acc3;
    }
    for (; j < n; ++j) {
      const float* brow = b.data() + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = acc;
    }
  }
  return c;
}

struct PoolGuard {
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

bool same_bits(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data(), y.data(), x.numel() * sizeof(float)) == 0;
}

/// Random matrix with zeros sprinkled in (every 5th element) so the
/// zero-skip path is exercised.
Tensor sparse_randn(Shape shape, Rng& rng) {
  Tensor t = Tensor::randn(std::move(shape), rng);
  for (std::size_t i = 0; i < t.numel(); i += 5) t[i] = 0.0f;
  return t;
}

// Odd shapes: non-multiples of the kMR/kNR register block and the row
// block, degenerate m=1 / k=1 / n=1, and exact-multiple controls. Most m
// are not multiples of kMR = 8, so every row-tail kernel runs.
struct GemmShape {
  std::size_t m, k, n;
};
const GemmShape kOddShapes[] = {
    {1, 1, 1},    {1, 7, 1},     {3, 5, 2},    {4, 8, 8},    {5, 9, 11},
    {1, 64, 9},   {31, 1, 8},    {33, 17, 31}, {64, 64, 64}, {127, 129, 63},
    {7, 12, 16},  {9, 3, 7},     {15, 20, 9},  {17, 6, 24},  {70, 40, 13},
    {8, 1, 3},    {100, 11, 17},
};

/// C = A·packed(B) through the portable micro-kernel, row-major A of
/// leading dimension k.
Tensor portable_run(const Tensor& a, const std::vector<float>& bp,
                    std::size_t m, std::size_t k, std::size_t n,
                    bool zero_skip) {
  Tensor c({m, n});
  gemm::detail::run_portable(m, k, n, a.data(), k, bp.data(), c.data(), n,
                             zero_skip);
  return c;
}

/// The portable kernel on each of the three packings: matmul, matmul_tn
/// (A transposed back to row-major) and matmul_nt.
Tensor portable_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  std::vector<float> bp(gemm::packed_size(k, n));
  gemm::pack_b(b.data(), k, n, bp.data());
  return portable_run(a, bp, m, k, n, /*zero_skip=*/true);
}

Tensor portable_matmul_tn(const Tensor& at, const Tensor& b) {
  const std::size_t k = at.dim(0), m = at.dim(1), n = b.dim(1);
  Tensor a({m, k});
  gemm::pack_at_rows(at.data(), k, m, 0, m, a.data(), k);
  std::vector<float> bp(gemm::packed_size(k, n));
  gemm::pack_b(b.data(), k, n, bp.data());
  return portable_run(a, bp, m, k, n, /*zero_skip=*/true);
}

Tensor portable_matmul_nt(const Tensor& a, const Tensor& bt) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = bt.dim(0);
  std::vector<float> bp(gemm::packed_size(k, n));
  gemm::pack_bt(bt.data(), n, k, bp.data());
  return portable_run(a, bp, m, k, n, /*zero_skip=*/false);
}

TEST(GemmBlocked, DeterministicBitIdenticalToNaiveAcrossShapes) {
  PoolGuard pool_guard;
  Rng rng(11);
  for (const auto& sh : kOddShapes) {
    const Tensor a = sparse_randn({sh.m, sh.k}, rng);
    const Tensor b = sparse_randn({sh.k, sh.n}, rng);
    const Tensor at = transpose(a);   // [k, m] for matmul_tn
    const Tensor bt = transpose(b);   // [n, k] for matmul_nt
    const Tensor ref = naive_matmul(a, b);
    const Tensor ref_tn = naive_matmul_tn(at, b);
    const Tensor ref_nt = naive_matmul_nt(a, bt);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool::set_global_threads(threads);
      EXPECT_TRUE(same_bits(matmul(a, b), ref))
          << sh.m << "x" << sh.k << "x" << sh.n << " @" << threads;
      EXPECT_TRUE(same_bits(matmul_tn(at, b), ref_tn))
          << "tn " << sh.m << "x" << sh.k << "x" << sh.n << " @" << threads;
      EXPECT_TRUE(same_bits(matmul_nt(a, bt), ref_nt))
          << "nt " << sh.m << "x" << sh.k << "x" << sh.n << " @" << threads;
      // The portable kernel, whichever one gemm::kernel_isa() dispatched.
      EXPECT_TRUE(same_bits(portable_matmul(a, b), ref))
          << "portable " << sh.m << "x" << sh.k << "x" << sh.n << " @"
          << threads;
      EXPECT_TRUE(same_bits(portable_matmul_tn(at, b), ref_tn))
          << "portable tn " << sh.m << "x" << sh.k << "x" << sh.n << " @"
          << threads;
      EXPECT_TRUE(same_bits(portable_matmul_nt(a, bt), ref_nt))
          << "portable nt " << sh.m << "x" << sh.k << "x" << sh.n << " @"
          << threads;
    }
  }
}

TEST(GemmBlocked, PackedIndexMatchesPackB) {
  // packed_index is the scatter contract used by the fused faulty-forward
  // producer; it must agree with pack_b's layout element for element.
  Rng rng(13);
  const std::size_t k = 9, n = 19;
  const Tensor b = Tensor::randn({k, n}, rng);
  std::vector<float> bp(gemm::packed_size(k, n), -1.0f);
  gemm::pack_b(b.data(), k, n, bp.data());
  for (std::size_t kk = 0; kk < k; ++kk)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(bp[gemm::packed_index(k, kk, j)], b.at(kk, j));
}

TEST(GemmBlocked, RowRangePackMatchesMatmulTnRows) {
  // A weight-gradient item: rows [i0, i1) of Aᵀ·B from an A held in row
  // chunks (a train step's sample chunks), each packed at its k offset.
  PoolGuard pool_guard;
  Rng rng(17);
  for (const auto& sh : kOddShapes) {
    const Tensor at = sparse_randn({sh.k, sh.m}, rng);  // A, [k, m]
    const Tensor b = sparse_randn({sh.k, sh.n}, rng);
    const Tensor ref = matmul_tn(at, b);
    std::vector<float> bp(gemm::packed_size(sh.k, sh.n));
    gemm::pack_b(b.data(), sh.k, sh.n, bp.data());
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool::set_global_threads(threads);
      for (const std::size_t block : {std::size_t{5}, gemm::kMC}) {
        for (std::size_t i0 = 0; i0 < sh.m; i0 += block) {
          const std::size_t rows = std::min(block, sh.m - i0);
          std::vector<float> a_rows(rows * sh.k);
          for (std::size_t k0 = 0; k0 < sh.k; k0 += 3) {
            const std::size_t kc = std::min<std::size_t>(3, sh.k - k0);
            gemm::pack_at_rows(at.data() + k0 * sh.m, kc, sh.m, i0, i0 + rows,
                               a_rows.data() + k0, sh.k);
          }
          std::vector<float> c(rows * sh.n);
          gemm::run(rows, sh.k, sh.n, a_rows.data(), sh.k, bp.data(),
                    c.data(), sh.n, /*zero_skip=*/true);
          EXPECT_EQ(std::memcmp(c.data(), ref.data() + i0 * sh.n,
                                c.size() * sizeof(float)),
                    0)
              << sh.m << "x" << sh.k << "x" << sh.n << " rows " << i0
              << "+" << rows << " @" << threads;
        }
      }
    }
  }
}

// ---- Masked zero skip -------------------------------------------------------

/// Operands on which skipping a zero term and adding its product differ:
/// A columns of +0/−0 face B rows of +inf, −inf and NaN (0·inf is NaN), and
/// negative A columns face all-zero B rows (their products are −0).
/// Every fourth column is each kind; the rest stay random.
void plant_skip_specials(Tensor& a, Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  for (std::size_t kk = 0; kk < k; ++kk) {
    if (kk % 4 == 0) {
      for (std::size_t i = 0; i < m; ++i)
        a.at(i, kk) = (i + kk) % 2 == 0 ? 0.0f : -0.0f;
      for (std::size_t j = 0; j < n; ++j)
        b.at(kk, j) = specials[(kk / 4 + j) % 3];
    } else if (kk % 4 == 1) {
      for (std::size_t i = 0; i < m; ++i)
        a.at(i, kk) = -0.5f - std::fabs(a.at(i, kk));
      for (std::size_t j = 0; j < n; ++j) b.at(kk, j) = 0.0f;
    }
  }
}

TEST(GemmBlocked, MaskedZeroSkipIsExact) {
  PoolGuard pool_guard;
  Rng rng(15);
  // k = 2 leaves every C element a skipped term plus a −0 product.
  const GemmShape shapes[] = {{8, 2, 8},   {13, 10, 19}, {3, 4, 5},
                              {70, 33, 9}, {16, 64, 24}, {1, 5, 1}};
  for (const auto& sh : shapes) {
    Tensor a = Tensor::randn({sh.m, sh.k}, rng);
    Tensor b = Tensor::randn({sh.k, sh.n}, rng);
    plant_skip_specials(a, b);
    const Tensor at = transpose(a);
    const Tensor ref = naive_matmul(a, b);
    const Tensor ref_tn = naive_matmul_tn(at, b);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool::set_global_threads(threads);
      EXPECT_TRUE(same_bits(matmul(a, b), ref))
          << sh.m << "x" << sh.k << "x" << sh.n << " @" << threads;
      EXPECT_TRUE(same_bits(matmul_tn(at, b), ref_tn))
          << "tn " << sh.m << "x" << sh.k << "x" << sh.n << " @" << threads;
      EXPECT_TRUE(same_bits(portable_matmul(a, b), ref))
          << "portable " << sh.m << "x" << sh.k << "x" << sh.n;
      EXPECT_TRUE(same_bits(portable_matmul_tn(at, b), ref_tn))
          << "portable tn " << sh.m << "x" << sh.k << "x" << sh.n;
    }
  }
}

TEST(GemmBlocked, FusedForwardMaskedSkipMatchesMatmul) {
  PoolGuard pool_guard;
  // Zero weight rows program to exactly-zero effective rows, so negative
  // activations facing them produce −0 products; ±0 activations are
  // skipped. 40×24 on 16×16 tiles crosses tile edges both ways.
  const std::size_t k = 40, n = 24;
  Tensor init({k, n});
  for (std::size_t i = 0; i < init.numel(); ++i)
    init[i] = 0.03f * (static_cast<float>(i % 17) - 8.0f);
  for (std::size_t kk = 1; kk < k; kk += 4)
    for (std::size_t j = 0; j < n; ++j) init.at(kk, j) = 0.0f;
  RcsConfig cfg;
  cfg.tile_rows = 16;
  cfg.tile_cols = 16;
  cfg.levels = 64;
  cfg.write_noise_sigma = 0.0;
  cfg.inject_fabrication = false;
  CrossbarWeightStore store(cfg, init, Rng(16));
  const Tensor w = store.effective();
  for (std::size_t kk = 1; kk < k; kk += 4)
    for (std::size_t j = 0; j < n; ++j) ASSERT_EQ(w.at(kk, j), 0.0f);

  Rng rng(17);
  Tensor x = Tensor::randn({11, k}, rng);
  for (std::size_t i = 0; i < x.dim(0); ++i)
    for (std::size_t kk = 0; kk < k; ++kk) {
      if (kk % 4 == 0) x.at(i, kk) = (i + kk) % 2 == 0 ? 0.0f : -0.0f;
      if (kk % 4 == 1) x.at(i, kk) = -0.5f - std::fabs(x.at(i, kk));
    }
  const Tensor ref = naive_matmul(x, w);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::set_global_threads(threads);
    const Tensor fused = store.forward_matmul(x);
    EXPECT_TRUE(same_bits(fused, matmul(x, store.effective())))
        << "threads=" << threads;
    EXPECT_TRUE(same_bits(fused, ref)) << "threads=" << threads;
  }
}

// ---- Finite-panel dispatch --------------------------------------------------

constexpr float kInf = std::numeric_limits<float>::infinity();
const float kNonFinite[] = {kInf, -kInf,
                            std::numeric_limits<float>::quiet_NaN()};

/// C = A·B through gemm::run on a pack_b panel, with the zero skip.
Tensor gemm_run_skip(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  std::vector<float> bp(gemm::packed_size(k, n));
  gemm::pack_b(b.data(), k, n, bp.data());
  Tensor c({m, n});
  gemm::run(m, k, n, a.data(), k, bp.data(), c.data(), n, /*zero_skip=*/true);
  return c;
}

/// gemm::run, matmul and matmul_tn on (a, b) at 1 and 4 threads, each
/// against the naive skip loops and the portable kernel.
void expect_skip_paths_exact(const Tensor& a, const Tensor& b,
                             const std::string& what) {
  PoolGuard pool_guard;
  const Tensor at = transpose(a);
  const Tensor ref = naive_matmul(a, b);
  const Tensor ref_tn = naive_matmul_tn(at, b);
  EXPECT_TRUE(same_bits(portable_matmul(a, b), ref)) << "portable " << what;
  EXPECT_TRUE(same_bits(portable_matmul_tn(at, b), ref_tn))
      << "portable tn " << what;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::set_global_threads(threads);
    EXPECT_TRUE(same_bits(gemm_run_skip(a, b), ref))
        << "run " << what << " @" << threads;
    EXPECT_TRUE(same_bits(matmul(a, b), ref)) << what << " @" << threads;
    EXPECT_TRUE(same_bits(matmul_tn(at, b), ref_tn))
        << "tn " << what << " @" << threads;
  }
}

TEST(GemmBlocked, FinitePanelSkipsWithoutMask) {
  // B stays finite, so every call below with m ≥ kMR runs the plain
  // kernel. Columns of A cycle through three kinds: ±0 (skipped terms),
  // negative entries facing all-zero B rows (−0 products), and one NaN,
  // +inf or −inf entry facing a random B row.
  Rng rng(18);
  for (const std::size_t m : {8, 13, 70, 130}) {
    for (const std::size_t k : {1, 2, 33}) {
      for (const std::size_t n : {9, 19}) {
        Tensor a = Tensor::randn({m, k}, rng);
        Tensor b = Tensor::randn({k, n}, rng);
        for (std::size_t kk = 0; kk < k; ++kk) {
          if (kk % 3 == 0) {
            for (std::size_t i = 0; i < m; ++i)
              a.at(i, kk) = (i + kk) % 2 == 0 ? 0.0f : -0.0f;
          } else if (kk % 3 == 1) {
            for (std::size_t i = 0; i < m; ++i)
              a.at(i, kk) = -0.5f - std::fabs(a.at(i, kk));
            for (std::size_t j = 0; j < n; ++j) b.at(kk, j) = 0.0f;
          } else {
            a.at((kk / 3) % m, kk) = kNonFinite[(kk / 3) % 3];
          }
        }
        expect_skip_paths_exact(a, b, std::to_string(m) + "x" +
                                          std::to_string(k) + "x" +
                                          std::to_string(n));
      }
    }
  }
}

TEST(GemmBlocked, OneNonFiniteEntryKeepsTheMask) {
  // One non-finite B entry faces an A column of ±0. The naive loops skip
  // those terms, so the reference stays finite; the plain kernel would
  // turn 0·inf into NaN. (k−1, n−1) is the last valid column of a
  // tail-padded strip.
  const GemmShape shapes[] = {{13, 33, 19}, {8, 2, 9}, {70, 33, 9}};
  Rng rng(19);
  for (const auto& sh : shapes) {
    const std::pair<std::size_t, std::size_t> slots[] = {
        {0, 0}, {sh.k - 1, sh.n - 1}, {sh.k / 2, sh.n / 2}};
    for (const auto& [kk, j] : slots) {
      for (const float special : kNonFinite) {
        Tensor a = Tensor::randn({sh.m, sh.k}, rng);
        Tensor b = Tensor::randn({sh.k, sh.n}, rng);
        for (std::size_t i = 0; i < sh.m; ++i)
          a.at(i, kk) = i % 2 == 0 ? 0.0f : -0.0f;
        b.at(kk, j) = special;
        const Tensor ref = naive_matmul(a, b);
        for (std::size_t e = 0; e < ref.numel(); ++e)
          ASSERT_TRUE(std::isfinite(ref[e]));
        expect_skip_paths_exact(
            a, b,
            std::to_string(sh.m) + "x" + std::to_string(sh.k) + "x" +
                std::to_string(sh.n) + " B(" + std::to_string(kk) + "," +
                std::to_string(j) + ")=" + std::to_string(special));
      }
    }
  }
}

TEST(GemmBlocked, WeightGradientKeepsTheMaskForNonFiniteGrad) {
  // One +inf output gradient faces a sample whose inputs are all ±0: the
  // weight gradient skips those terms and stays finite.
  PoolGuard pool_guard;
  const std::size_t in = 13, out = 9, batch = 4;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::set_global_threads(threads);
    Rng rng(20);
    Dense d("fc", in, out, software_store_factory(), rng);
    Tensor x = Tensor::randn({batch, in}, rng);
    for (std::size_t i = 0; i < in; ++i)
      x.at(2, i) = i % 2 == 0 ? 0.0f : -0.0f;
    Tensor gy = Tensor::randn({batch, out}, rng);
    gy.at(2, out - 1) = kInf;
    d.zero_grad();
    (void)d.forward(x, true);
    (void)d.backward(gy);
    std::vector<Param> params;
    d.collect_params(params);
    const Tensor& wgrad = *params[0].grad;
    const Tensor ref = naive_matmul_tn(x, gy);
    for (std::size_t e = 0; e < ref.numel(); ++e)
      ASSERT_TRUE(std::isfinite(ref[e]));
    EXPECT_TRUE(same_bits(wgrad, ref)) << "threads=" << threads;
  }
}

TEST(GemmBlocked, FusedForwardKeepsTheMaskForNaNWeight) {
  // A NaN delta reaches the device (the update writes every nonzero
  // delta), so the store's read-out panel holds one NaN effective weight.
  // ±0 activations facing it are skipped.
  PoolGuard pool_guard;
  const std::size_t k = 40, n = 24, nan_row = 21, nan_col = 23;
  Rng rng(21);
  RcsConfig cfg;
  cfg.tile_rows = 16;
  cfg.tile_cols = 16;
  cfg.levels = 64;
  cfg.write_noise_sigma = 0.0;
  cfg.inject_fabrication = false;
  CrossbarWeightStore store(cfg, Tensor::randn({k, n}, rng), Rng(22));
  Tensor delta({k, n});
  delta.at(nan_row, nan_col) = std::numeric_limits<float>::quiet_NaN();
  store.apply_delta(delta);
  const Tensor w = store.effective();
  ASSERT_TRUE(std::isnan(w.at(nan_row, nan_col)));

  Tensor x = Tensor::randn({11, k}, rng);
  for (std::size_t i = 0; i < x.dim(0); ++i)
    x.at(i, nan_row) = i % 2 == 0 ? 0.0f : -0.0f;
  const Tensor ref = naive_matmul(x, w);
  for (std::size_t e = 0; e < ref.numel(); ++e)
    ASSERT_TRUE(std::isfinite(ref[e]));
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::set_global_threads(threads);
    store.prepare_forward();
    const Tensor fused = store.forward_matmul(x);
    EXPECT_TRUE(same_bits(fused, matmul(x, store.effective())))
        << "threads=" << threads;
    EXPECT_TRUE(same_bits(fused, ref)) << "threads=" << threads;
  }
}

TEST(GemmBlocked, MaskedCallsCountsNonFinitePanelsOnly) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  struct RegistryGuard {
    ~RegistryGuard() {
      obs::MetricsRegistry::instance().set_enabled(false);
      obs::MetricsRegistry::instance().reset_for_tests();
    }
  } registry_guard;
  reg.reset_for_tests();
  reg.set_enabled(true);
  const auto masked_calls = [&] {
    for (const obs::MetricSnapshot& s : reg.snapshot())
      if (s.name == "tensor.gemm.masked_calls") return s.count;
    return std::uint64_t{0};
  };
  // Only the AVX kernel has a mask to drop, so only it scans the panel.
  const std::uint64_t scanned =
      std::string(gemm::kernel_isa()) == "avx" ? 1 : 0;
  Rng rng(23);
  const Tensor a = Tensor::randn({gemm::kMR, 5}, rng);
  Tensor b = Tensor::randn({5, 9}, rng);
  (void)matmul(a, b);
  EXPECT_EQ(masked_calls(), 0u);
  b.at(4, 8) = kInf;
  (void)matmul(a, b);
  EXPECT_EQ(masked_calls(), scanned);
  (void)matmul_nt(a, transpose(b));  // no zero skip: nothing to mask
  EXPECT_EQ(masked_calls(), scanned);
  // Below one register block the call keeps the mask without a scan.
  (void)matmul(Tensor::randn({gemm::kMR - 1, 5}, rng), b);
  EXPECT_EQ(masked_calls(), scanned);
}

// ---- im2col / col2im vs the per-tap loops -----------------------------------

// Serial copies of the pre-rewrite loop nests, which tested bounds per
// kernel tap. The row-copy kernels must reproduce them bit for bit; for
// col2im that pins the order in which overlapping windows accumulate.

Tensor naive_im2col(const Tensor& input, const ConvGeometry& g) {
  const std::size_t batch = input.dim(0);
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t plen = g.patch_len();
  Tensor cols({batch * oh * ow, plen});
  float* cp = cols.data();
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x) {
        float* dst = cp + ((n * oh + y) * ow + x) * plen;
        std::size_t idx = 0;
        for (std::size_t c = 0; c < g.in_channels; ++c) {
          for (std::size_t kh = 0; kh < g.kernel; ++kh) {
            const std::ptrdiff_t in_y =
                static_cast<std::ptrdiff_t>(y * g.stride + kh) -
                static_cast<std::ptrdiff_t>(g.pad);
            for (std::size_t kw = 0; kw < g.kernel; ++kw, ++idx) {
              const std::ptrdiff_t in_x =
                  static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                  static_cast<std::ptrdiff_t>(g.pad);
              if (in_y < 0 || in_x < 0 ||
                  in_y >= static_cast<std::ptrdiff_t>(g.in_h) ||
                  in_x >= static_cast<std::ptrdiff_t>(g.in_w)) {
                dst[idx] = 0.0f;
              } else {
                dst[idx] = input.at4(n, c, static_cast<std::size_t>(in_y),
                                     static_cast<std::size_t>(in_x));
              }
            }
          }
        }
      }
    }
  }
  return cols;
}

Tensor naive_col2im(const Tensor& cols, std::size_t batch,
                    const ConvGeometry& g) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t plen = g.patch_len();
  Tensor input({batch, g.in_channels, g.in_h, g.in_w});
  const float* cp = cols.data();
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x) {
        const float* src = cp + ((n * oh + y) * ow + x) * plen;
        std::size_t idx = 0;
        for (std::size_t c = 0; c < g.in_channels; ++c) {
          for (std::size_t kh = 0; kh < g.kernel; ++kh) {
            const std::ptrdiff_t in_y =
                static_cast<std::ptrdiff_t>(y * g.stride + kh) -
                static_cast<std::ptrdiff_t>(g.pad);
            for (std::size_t kw = 0; kw < g.kernel; ++kw, ++idx) {
              const std::ptrdiff_t in_x =
                  static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                  static_cast<std::ptrdiff_t>(g.pad);
              if (in_y >= 0 && in_x >= 0 &&
                  in_y < static_cast<std::ptrdiff_t>(g.in_h) &&
                  in_x < static_cast<std::ptrdiff_t>(g.in_w)) {
                input.at4(n, c, static_cast<std::size_t>(in_y),
                          static_cast<std::size_t>(in_x)) += src[idx];
              }
            }
          }
        }
      }
    }
  }
  return input;
}

TEST(Im2col, RowCopyBitIdenticalToNaive) {
  PoolGuard pool_guard;
  Rng rng(18);
  for (std::size_t kernel : {1, 3, 5}) {
    for (std::size_t stride : {1, 2}) {
      for (std::size_t pad : {0, 1, 2}) {
        for (std::size_t batch : {1, 8}) {
          ConvGeometry g;
          g.in_channels = 3;
          g.in_h = 7;  // non-square
          g.in_w = 10;
          g.kernel = kernel;
          g.stride = stride;
          g.pad = pad;
          const Tensor img = Tensor::randn({batch, 3, 7, 10}, rng);
          const Tensor cols = Tensor::randn(
              {batch * g.out_h() * g.out_w(), g.patch_len()}, rng);
          const Tensor ref = naive_im2col(img, g);
          const Tensor ref_back = naive_col2im(cols, batch, g);
          for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            ThreadPool::set_global_threads(threads);
            EXPECT_TRUE(same_bits(im2col(img, g), ref))
                << "k" << kernel << " s" << stride << " p" << pad << " b"
                << batch << " @" << threads;
            EXPECT_TRUE(same_bits(col2im(cols, batch, g), ref_back))
                << "col2im k" << kernel << " s" << stride << " p" << pad
                << " b" << batch << " @" << threads;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace refit
