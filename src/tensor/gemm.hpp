// Blocked, register-tiled GEMM core shared by the tensor kernels
// (tensor/ops.cpp) and the RCS fused faulty-forward kernel
// (rcs/crossbar_store.cpp).
//
// Layout: the right-hand matrix is packed into column strips of kNR
// contiguous floats per k-step — strip s holds columns [s·kNR, (s+1)·kNR)
// as a k×kNR panel at bp + s·k·kNR, tail lanes zero-padded. The micro-
// kernel then streams one L1-resident strip against kMR rows of A,
// accumulating a kMR×kNR register block down the full k extent.
//
// Determinism: each output element is an independent dot product whose
// additions run in k-ascending order from a zero accumulator — exactly the
// sequence the pre-blocking naive kernels performed — so results are
// bit-identical to them. Every routine here is serial; the pool's jobs
// call them on disjoint outputs. On AVX hosts the zero skip of
// matmul/matmul_tn is a mask rather than a branch, with the same bits,
// and run() drops the mask when the packed right-hand panel is all
// finite: a skipped term's ±0 product then leaves every accumulator's
// bits unchanged (docs/kernels.md).
#pragma once

#include <cstddef>
#include <vector>

namespace refit::gemm {

/// Micro-kernel register block: kMR C rows × kNR C columns held in
/// registers across the whole k extent (one 256-bit vector per C row in
/// the AVX kernel — eight accumulators plus the B row fit the 16 ymm
/// registers).
inline constexpr std::size_t kMR = 8;
inline constexpr std::size_t kNR = 8;

/// Row-block height of run()'s mid loop: bounds the A slab streamed per
/// strip pass to kMC×k floats so it stays L2-resident at bench shapes.
/// Callers that split one GEMM into row-block work items use it too.
inline constexpr std::size_t kMC = 64;

/// Number of kNR-wide column strips covering n columns.
[[nodiscard]] constexpr std::size_t strip_count(std::size_t n) {
  return (n + kNR - 1) / kNR;
}

/// Elements of a packed panel buffer for a k×n right-hand side.
[[nodiscard]] constexpr std::size_t packed_size(std::size_t k, std::size_t n) {
  return strip_count(n) * k * kNR;
}

/// Flat index of element (kk, j) inside a packed panel buffer — the
/// scatter target for producers that pack from non-matrix sources (the
/// fused faulty-forward kernel packs straight from crossbar tiles).
[[nodiscard]] constexpr std::size_t packed_index(std::size_t k, std::size_t kk,
                                                 std::size_t j) {
  return ((j / kNR) * k + kk) * kNR + (j % kNR);
}

/// Pack row-major B[k,n] into strips (tail lanes zeroed).
void pack_b(const float* b, std::size_t k, std::size_t n, float* bp);

/// Pack row-major Bᵀ[n,k] into strips of the implied B[k,n] — the
/// matmul_nt right-hand side (tail lanes zeroed).
void pack_bt(const float* bt, std::size_t n, std::size_t k, float* bp);

/// Rows [i0, i1) of the transpose-pack of column-walked A[k,m] into
/// row-major At[m,k]: at[(i - i0)·ldat + kk] = a[kk·m + i]. Removes
/// matmul_tn's stride-m column walk from the inner loop. With ldat > k, an
/// A that arrives in row chunks packs each chunk at its k offset of one At
/// (a train step's sample chunks do).
void pack_at_rows(const float* a, std::size_t k, std::size_t m,
                  std::size_t i0, std::size_t i1, float* at, std::size_t ldat);

/// C[m,n] (row-major, ldc) = A[m,k] (row-major, lda) · packed B, serially.
/// `zero_skip` replicates the
/// naive kernels' `if (a == 0) continue` (the post-ReLU sparsity
/// shortcut) without changing any bit. With the AVX kernel and m ≥ kMR,
/// a zero-skip call first scans the packed_size(k, n) panel: all finite runs the plain kernel, otherwise the masked
/// one (counted in tensor.gemm.masked_calls).
void run(std::size_t m, std::size_t k, std::size_t n, const float* a,
         std::size_t lda, const float* bp, float* c, std::size_t ldc,
         bool zero_skip);

/// Instruction set of the deterministic micro-kernel this process runs:
/// "avx" (256-bit mul + add, chosen once when the CPU supports AVX) or
/// "portable" (scalar, every other host). Both produce identical bits.
[[nodiscard]] const char* kernel_isa();

/// Thread-local scratch buffer for packed panels (slot 0: right-hand
/// panels, slot 1: transposed A panels). Contents are call-local.
[[nodiscard]] std::vector<float>& scratch(std::size_t slot);

namespace detail {

/// run() pinned to the portable scalar micro-kernel, whatever kernel_isa()
/// says — lets the tests hold both kernels to the same bit-identity
/// contract on one host.
void run_portable(std::size_t m, std::size_t k, std::size_t n, const float* a,
                  std::size_t lda, const float* bp, float* c, std::size_t ldc,
                  bool zero_skip);

}  // namespace detail
}  // namespace refit::gemm
