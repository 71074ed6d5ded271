// Threshold (δw) training, paper §5.1 (see threshold_trainer.hpp).
#include "core/threshold_trainer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "tensor/ops.hpp"

namespace refit {

namespace {

/// One layer's share of Algorithm 1's δw_max: the largest |fl(scale·g[i])|
/// over the entries `pruned` leaves free (every entry when null). A pruned
/// entry contributes +0 through keep_or_zero, not a branch, and kLanes
/// running maxima break the serial compare chain. `v > m ? v : m` keeps m
/// when v is NaN, as std::max(m, v) does, so each lane holds the max of its
/// non-NaN values and the lane split returns what a serial scan would.
template <bool kMasked>
float abs_max_scaled(const float* g, std::size_t n, float scale,
                     const std::uint8_t* pruned) {
  constexpr std::size_t kLanes = 16;
  float m[kLanes] = {};
  auto fold = [&](std::size_t l, std::size_t i) {
    float v = std::fabs(g[i] * scale);
    if constexpr (kMasked) v = keep_or_zero(pruned[i] == 0, v);
    m[l] = v > m[l] ? v : m[l];
  };
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    for (std::size_t l = 0; l < kLanes; ++l) fold(l, i + l);
  for (std::size_t l = 0; i < n; ++i, ++l) fold(l, i);
  float r = 0.0f;
  for (const float v : m) r = v > r ? v : r;
  return r;
}

}  // namespace

ThresholdStepStats ThresholdTrainer::step(
    std::vector<Param>& params, std::size_t iteration,
    const PruneState* prune, const DetectedFaults* detected) const {
  // δw = fl(scale·g): the update items and the bias loop below scale the
  // gradient themselves, so no scaled copy is made.
  const auto scale = static_cast<float>(-lr_.at(iteration));
  ThresholdStepStats stats;

  // Pass 1: the iteration's maximum |δw| across all layers (Algorithm 1)
  // over the entries that may update (pruned ones never write, so they do
  // not set the threshold's scale).
  struct Pending {
    Param* param;
    const PruneMask* mask;
  };
  std::vector<Pending> pending;
  for (auto& p : params) {
    if (p.store == nullptr) continue;  // biases handled below
    REFIT_CHECK(p.grad != nullptr);
    const Tensor& g = *p.grad;
    const PruneMask* mask =
        prune != nullptr ? prune->mask_for(pending.size()) : nullptr;
    REFIT_CHECK(mask == nullptr || mask->pruned.size() == g.numel());
    const float layer_max =
        mask != nullptr
            ? abs_max_scaled<true>(g.data(), g.numel(), scale,
                                   mask->pruned.data())
            : abs_max_scaled<false>(g.data(), g.numel(), scale, nullptr);
    stats.dw_max = std::max(stats.dw_max, static_cast<double>(layer_max));
    pending.push_back({&p, mask});
  }

  // Pass 2: one filter-and-write pass over every store at once (Algorithm
  // 1's threshold, the prune mask and the detected-fault skip): each store
  // splits its update into items on this thread, then one pool job runs
  // them all, balanced across lanes by cost.
  std::vector<std::unique_ptr<UpdateItems>> updates;
  for (std::size_t layer = 0; layer < pending.size(); ++layer) {
    Pending& pd = pending[layer];
    const Tensor& g = *pd.param->grad;
    UpdatePolicy policy;
    policy.scale = scale;
    policy.pruned = pd.mask != nullptr ? pd.mask->pruned.data() : nullptr;
    policy.threshold = cfg_.threshold_ratio * stats.dw_max;
    policy.wear_beta = cfg_.wear_leveling_beta;
    // The original (non-threshold) scheme programs the whole array each
    // update step — zero deltas included — which is what wears cells out.
    policy.full_write = cfg_.threshold_ratio <= 0.0;
    const FaultMatrix* fm =
        detected != nullptr ? detected_for(*detected, layer) : nullptr;
    if (fm != nullptr) {
      REFIT_CHECK(fm->rows() == g.dim(0) && fm->cols() == g.dim(1));
      policy.skip = fm->bytes();
    }
    updates.push_back(pd.param->store->split_update(g, policy));
  }
  stats += apply_updates(updates);

  // Peripheral (bias) parameters update without filtering: they live in
  // CMOS, not on RRAM cells.
  for (auto& p : params) {
    if (p.store != nullptr) continue;
    REFIT_CHECK(p.value != nullptr && p.grad != nullptr &&
                p.value->shape() == p.grad->shape());
    Tensor& v = *p.value;
    const Tensor& g = *p.grad;
    for (std::size_t i = 0; i < v.numel(); ++i) v[i] += g[i] * scale;
  }
  return stats;
}

}  // namespace refit
