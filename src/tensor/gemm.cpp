// Packed-panel GEMM micro-kernels behind tensor/gemm.hpp.
#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define REFIT_GEMM_X86 1
#else
#define REFIT_GEMM_X86 0
#endif

namespace refit::gemm {

namespace {

/// One micro-kernel: C[mr, nvalid] = A[mr, k] · one packed strip.
using MicroFn = void (*)(std::size_t k, const float* a, std::size_t lda,
                         const float* bp, float* c, std::size_t ldc,
                         std::size_t nvalid);

/// One kernel family: fn[mr - 1] computes an mr-row block, mr ≤ kMR.
struct MicroSet {
  MicroFn fn[kMR];
};

/// Portable deterministic micro-kernel: MR C rows × kNR C columns
/// accumulated down the whole k extent, additions k-ascending from zero —
/// the exact rounding sequence of the pre-blocking naive kernels. The
/// kNR-wide inner loops carry independent accumulators, so they vectorize
/// without reassociating anything.
template <std::size_t MR, bool ZeroSkip>
void micro_portable(std::size_t k, const float* a, std::size_t lda,
                    const float* bp, float* c, std::size_t ldc,
                    std::size_t nvalid) {
  float acc[MR][kNR] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* brow = bp + kk * kNR;
    for (std::size_t r = 0; r < MR; ++r) {
      const float av = a[r * lda + kk];
      if constexpr (ZeroSkip) {
        if (av == 0.0f) continue;  // post-ReLU activations are sparse
      }
      for (std::size_t j = 0; j < kNR; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t j = 0; j < nvalid; ++j) c[r * ldc + j] = acc[r][j];
}
template <bool ZeroSkip, std::size_t... R>
constexpr MicroSet portable_set(std::index_sequence<R...>) {
  return {{&micro_portable<R + 1, ZeroSkip>...}};
}

#if REFIT_GEMM_X86
/// AVX deterministic micro-kernel: one __m256 accumulator per C row. Each
/// C element still sees one IEEE mul then one add per kk in k order —
/// _mm256_mul_ps/_mm256_add_ps round exactly like scalar * and +, and the
/// target has no FMA to contract them — so the bits match the portable
/// kernel. The zero skip is a mask, not a branch: the product of a zero
/// A entry is replaced by +0, and acc + (+0) == acc bit for bit because
/// an accumulator that starts at +0 never becomes −0 under round-to-
/// nearest (docs/kernels.md). The rows are a pack expansion rather than a
/// loop so every accumulator access has a constant index and the block
/// stays in registers across the k loop.
/// One k step of one C row: sum + a·b, the product masked to +0 where
/// the skip applies.
template <bool ZeroSkip>
__attribute__((target("avx"), always_inline)) inline __m256 avx_step(
    __m256 sum, const float* ap, __m256 b) {
  const __m256 va = _mm256_broadcast_ss(ap);
  __m256 p = _mm256_mul_ps(va, b);
  if constexpr (ZeroSkip) {
    // NEQ_UQ is true for NaN, like the scalar `av == 0` test is false.
    p = _mm256_and_ps(p, _mm256_cmp_ps(va, _mm256_setzero_ps(), _CMP_NEQ_UQ));
  }
  return _mm256_add_ps(sum, p);
}

template <bool ZeroSkip, std::size_t... R>
__attribute__((target("avx"))) void micro_avx_rows(
    std::index_sequence<R...>, std::size_t k, const float* a, std::size_t lda,
    const float* bp, float* c, std::size_t ldc, std::size_t nvalid) {
  constexpr std::size_t MR = sizeof...(R);
  __m256 acc[MR] = {((void)R, _mm256_setzero_ps())...};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const __m256 b = _mm256_loadu_ps(bp + kk * kNR);
    ((acc[R] = avx_step<ZeroSkip>(acc[R], a + R * lda + kk, b)), ...);
  }
  if (nvalid == kNR) {
    (_mm256_storeu_ps(c + R * ldc, acc[R]), ...);
    return;
  }
  float tail[MR][kNR];
  (_mm256_storeu_ps(tail[R], acc[R]), ...);
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t j = 0; j < nvalid; ++j) c[r * ldc + j] = tail[r][j];
}

template <std::size_t MR, bool ZeroSkip>
__attribute__((target("avx"))) void micro_avx(
    std::size_t k, const float* a, std::size_t lda, const float* bp, float* c,
    std::size_t ldc, std::size_t nvalid) {
  micro_avx_rows<ZeroSkip>(std::make_index_sequence<MR>{}, k, a, lda, bp, c,
                           ldc, nvalid);
}
template <bool ZeroSkip, std::size_t... R>
constexpr MicroSet avx_set(std::index_sequence<R...>) {
  return {{&micro_avx<R + 1, ZeroSkip>...}};
}

/// True when no float of p[0, count) is ±inf or NaN; count is a multiple
/// of kNR, as every packed panel's size is. |x| ≥ inf, unordered
/// included, flags a lane.
__attribute__((target("avx"))) bool all_finite_avx(const float* p,
                                                   std::size_t count) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  __m256 bad = _mm256_setzero_ps();
  for (std::size_t i = 0; i < count; i += kNR) {
    const __m256 v = _mm256_and_ps(_mm256_loadu_ps(p + i), abs_mask);
    bad = _mm256_or_ps(bad, _mm256_cmp_ps(v, inf, _CMP_NLT_UQ));
  }
  return _mm256_movemask_ps(bad) == 0;
}
#endif

/// The deterministic kernels of one ISA, indexed by zero_skip, and the
/// panel scan that lets a zero-skip call run det[0] (null: never).
struct DetKernels {
  const char* isa;
  MicroSet det[2];
  bool (*all_finite)(const float* p, std::size_t count);
};

constexpr DetKernels kPortable = {
    "portable",
    {portable_set<false>(std::make_index_sequence<kMR>{}),
     portable_set<true>(std::make_index_sequence<kMR>{})},
    nullptr};

/// Chosen once per process: AVX when the CPU (and OS) support it.
const DetKernels& dispatched() {
#if REFIT_GEMM_X86
  static constexpr DetKernels kAvx = {
      "avx",
      {avx_set<false>(std::make_index_sequence<kMR>{}),
       avx_set<true>(std::make_index_sequence<kMR>{})},
      &all_finite_avx};
  static const DetKernels& chosen =
      __builtin_cpu_supports("avx") ? kAvx : kPortable;
  return chosen;
#else
  return kPortable;
#endif
}

/// The mid loop holds a kMC-row A slab against every (L1-resident) packed
/// strip, which the micro-kernels walk kMR rows at a time.
void drive(const MicroSet& ks, std::size_t m, std::size_t k, std::size_t n,
           const float* a, std::size_t lda, const float* bp, float* c,
           std::size_t ldc) {
  const std::size_t nstrips = strip_count(n);
  for (std::size_t ic = 0; ic < m; ic += kMC) {
    const std::size_t ie = std::min(m, ic + kMC);
    for (std::size_t s = 0; s < nstrips; ++s) {
      const float* strip = bp + s * k * kNR;
      const std::size_t j0 = s * kNR;
      const std::size_t nvalid = std::min(kNR, n - j0);
      for (std::size_t i = ic; i < ie; i += kMR) {
        const std::size_t mr = std::min(kMR, ie - i);
        ks.fn[mr - 1](k, a + i * lda, lda, strip, c + i * ldc + j0, ldc,
                      nvalid);
      }
    }
  }
}

}  // namespace

void pack_b(const float* b, std::size_t k, std::size_t n, float* bp) {
  const std::size_t nstrips = strip_count(n);
  // kk-major walk: reads stream B once; each row scatters into the strip
  // panels.
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* row = b + kk * n;
    for (std::size_t s = 0; s < nstrips; ++s) {
      float* dst = bp + (s * k + kk) * kNR;
      const std::size_t j0 = s * kNR;
      const std::size_t nvalid = std::min(kNR, n - j0);
      std::memcpy(dst, row + j0, nvalid * sizeof(float));
      for (std::size_t r = nvalid; r < kNR; ++r) dst[r] = 0.0f;
    }
  }
}

void pack_bt(const float* bt, std::size_t n, std::size_t k, float* bp) {
  // Strip-major: each strip transposes kNR contiguous Bᵀ rows (L1-resident
  // sources, contiguous reads).
  for (std::size_t s = 0; s < strip_count(n); ++s) {
    float* panel = bp + s * k * kNR;
    const std::size_t j0 = s * kNR;
    const std::size_t nvalid = std::min(kNR, n - j0);
    for (std::size_t r = 0; r < nvalid; ++r) {
      const float* src = bt + (j0 + r) * k;
      for (std::size_t kk = 0; kk < k; ++kk) panel[kk * kNR + r] = src[kk];
    }
    for (std::size_t r = nvalid; r < kNR; ++r)
      for (std::size_t kk = 0; kk < k; ++kk) panel[kk * kNR + r] = 0.0f;
  }
}

void pack_at_rows(const float* a, std::size_t k, std::size_t m,
                  std::size_t i0, std::size_t i1, float* at,
                  std::size_t ldat) {
  for (std::size_t i = i0; i < i1; ++i) {
    float* dst = at + (i - i0) * ldat;
    for (std::size_t kk = 0; kk < k; ++kk) dst[kk] = a[kk * m + i];
  }
}

void run(std::size_t m, std::size_t k, std::size_t n, const float* a,
         std::size_t lda, const float* bp, float* c, std::size_t ldc,
         bool zero_skip) {
  // Against a finite panel a skipped term's +0 or −0 product leaves the
  // accumulator's bits unchanged, so the plain kernel gives the skip's
  // bits (docs/kernels.md). Below one register block the scan costs about
  // what the product does, so those calls keep the mask unscanned.
  const DetKernels& ks = dispatched();
  if (zero_skip && ks.all_finite != nullptr && m >= kMR) {
    if (ks.all_finite(bp, packed_size(k, n))) {
      zero_skip = false;
    } else {
      static obs::Counter masked_calls =
          obs::MetricsRegistry::instance().counter("tensor.gemm.masked_calls",
                                                   "calls");
      masked_calls.add();
    }
  }
  drive(ks.det[zero_skip ? 1 : 0], m, k, n, a, lda, bp, c, ldc);
}

const char* kernel_isa() { return dispatched().isa; }

std::vector<float>& scratch(std::size_t slot) {
  thread_local std::vector<float> buffers[2];
  return buffers[slot < 2 ? slot : 0];
}

namespace detail {

void run_portable(std::size_t m, std::size_t k, std::size_t n, const float* a,
                  std::size_t lda, const float* bp, float* c, std::size_t ldc,
                  bool zero_skip) {
  drive(kPortable.det[zero_skip ? 1 : 0], m, k, n, a, lda, bp, c, ldc);
}

}  // namespace detail
}  // namespace refit::gemm
