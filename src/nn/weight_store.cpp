// Software (ideal) WeightStore (see weight_store.hpp).
#include "nn/weight_store.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "common/serialize.hpp"
#include "common/thread_pool.hpp"
#include "tensor/ops.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define REFIT_UPDATE_X86 1
#else
#define REFIT_UPDATE_X86 0
#endif

namespace refit {

SoftwareWeightStore::SoftwareWeightStore(Tensor init) : w_(std::move(init)) {}

Tensor SoftwareWeightStore::forward_matmul(const Tensor& x) {
  return matmul(x, w_);
}

std::size_t filter_update_run_portable(const UpdatePolicy& policy,
                                       const UpdateRun& run, float* d,
                                       std::uint32_t* programmed,
                                       std::uint32_t first, UpdateStats& st) {
  std::size_t count = 0;
  for (std::size_t k = 0; k < run.n; ++k) {
    float v = run.g[k] * policy.scale;
    if (run.pruned != nullptr && run.pruned[k] != 0) v = 0.0f;
    bool program = policy.full_write;
    if (v == 0.0f) {
      ++(policy.full_write ? st.writes_issued : st.updates_zero);
    } else if ((run.skip != nullptr && run.skip[k] != 0) ||
               std::fabs(v) <
                   (run.thr != nullptr ? run.thr[k] : policy.threshold)) {
      v = 0.0f;  // Algorithm 1, lines 6-8: suppress the write
      ++st.writes_suppressed;
    } else {
      ++st.writes_issued;
      program = true;
    }
    d[k] = v;
    if (program) {
      if (programmed != nullptr)
        programmed[count] = first + static_cast<std::uint32_t>(k);
      ++count;
    }
  }
  return count;
}

namespace {

#if REFIT_UPDATE_X86
/// kLanesOf[m] lists, one byte each from the lowest, the lanes whose bit
/// is set in the 8-bit mask m: the shuffle that left-packs them.
constexpr std::array<std::uint64_t, 256> make_lanes_of() {
  std::array<std::uint64_t, 256> t{};
  for (unsigned m = 0; m < 256; ++m) {
    unsigned at = 0;
    for (unsigned lane = 0; lane < 8; ++lane) {
      if ((m >> lane & 1u) != 0) t[m] |= std::uint64_t{lane} << (8 * at++);
    }
  }
  return t;
}
constexpr std::array<std::uint64_t, 256> kLanesOf = make_lanes_of();

/// Eight bytes as eight 32-bit lanes.
__attribute__((target("avx2"), always_inline)) inline __m256i widen_bytes(
    const std::uint8_t* p) {
  return _mm256_cvtepu8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}

/// The AVX2 body over the run's first n8 cells, n8 a multiple of 8: eight
/// cells per step, the same IEEE mul (no FMA) and double compare as the
/// portable body, every decision a lane mask.
__attribute__((target("avx2,popcnt"))) std::size_t filter_blocks_avx2(
    const UpdatePolicy& policy, const UpdateRun& run, std::size_t n8,
    float* d, std::uint32_t* programmed, std::uint32_t first,
    UpdateStats& st) {
  const __m256 scale = _mm256_set1_ps(policy.scale);
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256d thr = _mm256_set1_pd(policy.threshold);
  const __m256i lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i zero_i = _mm256_setzero_si256();
  const unsigned full = policy.full_write ? 0xffu : 0u;
  std::uint64_t zero = 0, suppressed = 0, issued = 0;
  std::size_t count = 0;
  for (std::size_t k = 0; k < n8; k += 8) {
    __m256 v = _mm256_mul_ps(_mm256_loadu_ps(run.g + k), scale);
    if (run.pruned != nullptr) {  // pruned → +0
      v = _mm256_and_ps(v, _mm256_castsi256_ps(_mm256_cmpeq_epi32(
                               widen_bytes(run.pruned + k), zero_i)));
    }
    const auto zm = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_EQ_OQ)));
    // |v| < thr in double: ordered, so a NaN delta is never held back.
    const __m256 a = _mm256_and_ps(v, abs_mask);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(a));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(a, 1));
    const __m256d tlo = run.thr != nullptr ? _mm256_loadu_pd(run.thr + k) : thr;
    const __m256d thi =
        run.thr != nullptr ? _mm256_loadu_pd(run.thr + k + 4) : thr;
    auto hold = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(lo, tlo, _CMP_LT_OQ)) |
        _mm256_movemask_pd(_mm256_cmp_pd(hi, thi, _CMP_LT_OQ)) << 4);
    if (run.skip != nullptr) {
      hold |= ~static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(
                  _mm256_cmpeq_epi32(widen_bytes(run.skip + k), zero_i)))) &
              0xffu;
    }
    const unsigned sm = hold & ~zm;           // suppressed
    const unsigned am = ~(hold | zm) & 0xffu;  // issued
    const __m256i sv = _mm256_cmpeq_epi32(
        _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(sm)), lane_bit),
        lane_bit);
    _mm256_storeu_ps(d + k, _mm256_andnot_ps(_mm256_castsi256_ps(sv), v));
    const unsigned prog = am | full;
    zero += static_cast<unsigned>(__builtin_popcount(zm & ~full));
    issued += static_cast<unsigned>(__builtin_popcount(am | (zm & full)));
    suppressed += static_cast<unsigned>(__builtin_popcount(sm));
    if (programmed != nullptr) {
      const __m256i at = _mm256_add_epi32(
          _mm256_cvtepu8_epi32(_mm_loadl_epi64(
              reinterpret_cast<const __m128i*>(&kLanesOf[prog]))),
          _mm256_set1_epi32(static_cast<int>(first + k)));
      // count ≤ k, so the eight lanes stay inside the run's n entries.
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(programmed + count), at);
    }
    count += static_cast<unsigned>(__builtin_popcount(prog));
  }
  st.updates_zero += zero;
  st.writes_suppressed += suppressed;
  st.writes_issued += issued;
  return count;
}

/// filter_blocks_avx2, then the tail of fewer than eight cells through the
/// portable body. The split keeps every 256-bit instruction behind one
/// return, where the compiler clears the upper halves: the SSE code after
/// it (the tail, the write chain) would otherwise pay the AVX-SSE
/// transition penalty.
std::size_t filter_update_run_avx2(const UpdatePolicy& policy,
                                   const UpdateRun& run, float* d,
                                   std::uint32_t* programmed,
                                   std::uint32_t first, UpdateStats& st) {
  const std::size_t n8 = run.n & ~std::size_t{7};
  const std::size_t count =
      filter_blocks_avx2(policy, run, n8, d, programmed, first, st);
  if (n8 == run.n) return count;
  UpdateRun tail = run;
  tail.g += n8;
  if (tail.pruned != nullptr) tail.pruned += n8;
  if (tail.skip != nullptr) tail.skip += n8;
  if (tail.thr != nullptr) tail.thr += n8;
  tail.n -= n8;
  return count + filter_update_run_portable(
                     policy, tail, d + n8,
                     programmed != nullptr ? programmed + count : nullptr,
                     first + static_cast<std::uint32_t>(n8), st);
}
#endif

using FilterFn = std::size_t (*)(const UpdatePolicy&, const UpdateRun&,
                                 float*, std::uint32_t*, std::uint32_t,
                                 UpdateStats&);

/// Chosen once per process, like gemm's kernels: AVX2 when the CPU has it.
FilterFn dispatched() {
#if REFIT_UPDATE_X86
  static const FilterFn chosen =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt")
          ? &filter_update_run_avx2
          : &filter_update_run_portable;
  return chosen;
#else
  return &filter_update_run_portable;
#endif
}

/// Cells of one software update item: whole rows, about 8192 cells.
std::size_t software_block_cells(const Tensor& w) {
  const std::size_t row =
      w.rank() == 0 ? 1 : std::max<std::size_t>(1, w.shape().back());
  return row * std::max<std::size_t>(1, 8192 / row);
}

/// The software update as row-block items. Plain floats, identity
/// mapping: logical and physical cells coincide, and a filtered-out delta
/// adds exactly +0, so every cell takes the sum.
class SoftwareUpdate final : public UpdateItems {
 public:
  SoftwareUpdate(Tensor& w, const Tensor& delta, const UpdatePolicy& policy)
      : w_(w),
        delta_(delta),
        policy_(policy),
        block_cells_(software_block_cells(w)),
        stats_(std::max<std::size_t>(
            1, (w.numel() + block_cells_ - 1) / block_cells_)) {}
  [[nodiscard]] std::size_t count() const override { return stats_.size(); }
  [[nodiscard]] std::size_t cost(std::size_t k) const override {
    return std::min(w_.numel(), (k + 1) * block_cells_) - k * block_cells_;
  }
  void run(std::size_t k) override {
    constexpr std::size_t kChunk = 1024;
    float d[kChunk];
    const std::size_t end = std::min(w_.numel(), (k + 1) * block_cells_);
    for (std::size_t at = k * block_cells_; at < end; at += kChunk) {
      UpdateRun run;
      run.g = delta_.data() + at;
      run.pruned = policy_.pruned != nullptr ? policy_.pruned + at : nullptr;
      run.skip = policy_.skip != nullptr ? policy_.skip + at : nullptr;
      run.n = std::min(kChunk, end - at);
      (void)filter_update_run(policy_, run, d, nullptr, 0, stats_[k]);
      float* w = w_.data() + at;
      for (std::size_t c = 0; c < run.n; ++c) w[c] += d[c];
    }
  }
  UpdateStats finish() override {
    UpdateStats total;
    for (const UpdateStats& s : stats_) total += s;
    return total;
  }

 private:
  Tensor& w_;
  const Tensor& delta_;
  const UpdatePolicy policy_;
  const std::size_t block_cells_;
  std::vector<UpdateStats> stats_;
};

}  // namespace

std::size_t filter_update_run(const UpdatePolicy& policy, const UpdateRun& run,
                              float* d, std::uint32_t* programmed,
                              std::uint32_t first, UpdateStats& st) {
  return dispatched()(policy, run, d, programmed, first, st);
}

UpdateStats WeightStore::apply_update(const Tensor& delta,
                                      const UpdatePolicy& policy) {
  std::vector<std::unique_ptr<UpdateItems>> one;
  one.push_back(split_update(delta, policy));
  return apply_updates(one);
}

UpdateStats apply_updates(
    const std::vector<std::unique_ptr<UpdateItems>>& updates) {
  // Flatten to (update, item) pairs; the pool decides only where each runs.
  std::vector<std::pair<std::size_t, std::size_t>> items;
  std::vector<std::size_t> cost;
  for (std::size_t u = 0; u < updates.size(); ++u) {
    for (std::size_t k = 0; k < updates[u]->count(); ++k) {
      items.emplace_back(u, k);
      cost.push_back(updates[u]->cost(k));
    }
  }
  parallel_for_weighted(cost, [&](std::size_t i) {
    updates[items[i].first]->run(items[i].second);
  });
  UpdateStats total;
  for (const auto& u : updates) total += u->finish();
  return total;
}

std::unique_ptr<UpdateItems> SoftwareWeightStore::split_update(
    const Tensor& delta, const UpdatePolicy& policy) {
  REFIT_CHECK_MSG(delta.shape() == w_.shape(),
                  "delta shape mismatch in SoftwareWeightStore");
  return std::make_unique<SoftwareUpdate>(w_, delta, policy);
}

void SoftwareWeightStore::assign(const Tensor& w) {
  REFIT_CHECK_MSG(w.shape() == w_.shape(),
                  "assign shape mismatch in SoftwareWeightStore");
  w_ = w;
}

namespace {
constexpr std::uint64_t kSoftStoreTag = 0x5245464954535753ULL;  // "REFITSWS"
}  // namespace

void SoftwareWeightStore::save_state(std::ostream& os) const {
  ser::write_tag(os, kSoftStoreTag);
  std::vector<std::uint64_t> shape(w_.shape().begin(), w_.shape().end());
  ser::write_vec(os, shape);
  ser::write_vec(os, w_.vec());
}

void SoftwareWeightStore::restore_state(std::istream& is) {
  ser::expect_tag(is, kSoftStoreTag);
  const auto shape64 = ser::read_vec<std::uint64_t>(is);
  Shape shape(shape64.begin(), shape64.end());
  REFIT_CHECK_MSG(shape == w_.shape(),
                  "restore_state() checkpoint shape mismatch");
  auto data = ser::read_vec<float>(is);
  w_ = Tensor(shape, std::move(data));
}

StoreFactory software_store_factory() {
  return [](const std::string&, Tensor init) {
    return std::make_unique<SoftwareWeightStore>(std::move(init));
  };
}

}  // namespace refit
