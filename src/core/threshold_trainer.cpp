// Threshold (δw) training, paper §5.1 (see threshold_trainer.hpp).
#include "core/threshold_trainer.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

namespace refit {

ThresholdStepStats ThresholdTrainer::step(
    std::vector<Param>& params, std::size_t iteration,
    const PruneState* prune, const DetectedFaults* detected) const {
  const double lr = lr_.at(iteration);
  ThresholdStepStats stats;

  // Pass 1: the raw deltas (δw·LR) of every matrix parameter and the
  // iteration's maximum |δw| across all layers (Algorithm 1) over the
  // entries that may update (pruned ones never write, so they do not set
  // the threshold's scale).
  struct Pending {
    Param* param;
    Tensor delta;
    const PruneMask* mask;
  };
  std::vector<Pending> pending;
  for (auto& p : params) {
    if (p.store == nullptr) continue;  // biases handled below
    REFIT_CHECK(p.grad != nullptr);
    Tensor delta = *p.grad;
    delta *= static_cast<float>(-lr);
    const PruneMask* mask =
        prune != nullptr ? prune->mask_for(pending.size()) : nullptr;
    REFIT_CHECK(mask == nullptr || mask->pruned.size() == delta.numel());
    for (std::size_t i = 0; i < delta.numel(); ++i) {
      if (mask == nullptr || mask->pruned[i] == 0) {
        stats.dw_max =
            std::max(stats.dw_max, static_cast<double>(std::fabs(delta[i])));
      }
    }
    pending.push_back({&p, std::move(delta), mask});
  }

  // Pass 2: one filter-and-write pass over every store at once (Algorithm
  // 1's threshold, the prune mask and the detected-fault skip): each store
  // splits its update into items on this thread, then one pool job runs
  // them all, balanced across lanes by cost.
  std::vector<std::unique_ptr<UpdateItems>> updates;
  for (std::size_t layer = 0; layer < pending.size(); ++layer) {
    Pending& pd = pending[layer];
    UpdatePolicy policy;
    policy.pruned = pd.mask != nullptr ? pd.mask->pruned.data() : nullptr;
    policy.threshold = cfg_.threshold_ratio * stats.dw_max;
    policy.wear_beta = cfg_.wear_leveling_beta;
    // The original (non-threshold) scheme programs the whole array each
    // update step — zero deltas included — which is what wears cells out.
    policy.full_write = cfg_.threshold_ratio <= 0.0;
    const FaultMatrix* fm =
        detected != nullptr ? detected_for(*detected, layer) : nullptr;
    if (fm != nullptr) {
      REFIT_CHECK(fm->rows() == pd.delta.dim(0) &&
                  fm->cols() == pd.delta.dim(1));
      policy.skip = fm->bytes();
    }
    updates.push_back(pd.param->store->split_update(pd.delta, policy));
  }
  stats += apply_updates(updates);

  // Peripheral (bias) parameters update without filtering: they live in
  // CMOS, not on RRAM cells.
  for (auto& p : params) {
    if (p.store != nullptr) continue;
    REFIT_CHECK(p.value != nullptr && p.grad != nullptr);
    Tensor delta = *p.grad;
    delta *= static_cast<float>(-lr);
    *p.value += delta;
  }
  return stats;
}

}  // namespace refit
