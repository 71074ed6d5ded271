// Threshold training (paper §5.1, Algorithm 1).
//
// After back-propagation, weight updates smaller than
// CalculateThreshold(write_amount) are forced to zero so the corresponding
// RRAM cell skips its write. With the paper's θ = 0.01·δw_max this removes
// ~90 % of write operations and extends mean cell lifetime ~15× at a ~1.2×
// iteration-count cost.
#pragma once

#include <cstdint>
#include <vector>

#include "core/prune.hpp"
#include "core/remap.hpp"
#include "nn/layer.hpp"
#include "nn/optimizer.hpp"

namespace refit {

/// Threshold-training knobs.
struct ThresholdConfig {
  /// θ: threshold as a fraction of the iteration's max |δw| (paper: 0.01).
  double threshold_ratio = 0.01;
  /// Wear-leveling term of CalculateThreshold: cells that have been written
  /// more than the layer average get a proportionally higher threshold.
  /// 0 reproduces the paper's flat threshold.
  double wear_leveling_beta = 0.0;
};

/// Statistics of one update step: the stores' write accounting summed.
struct ThresholdStepStats : UpdateStats {
  double dw_max = 0.0;
};

/// Applies SGD updates through the threshold filter of Algorithm 1.
class ThresholdTrainer {
 public:
  ThresholdTrainer(ThresholdConfig cfg, LrSchedule lr)
      : cfg_(cfg), lr_(lr) {}

  /// One update step over `params`. Pruned entries (if `prune` given) and
  /// detected-faulty cells (if `detected` given) never receive writes; the
  /// k-th store-backed param is matrix layer k of both. Bias (peripheral)
  /// parameters are updated unfiltered.
  ThresholdStepStats step(std::vector<Param>& params, std::size_t iteration,
                          const PruneState* prune = nullptr,
                          const DetectedFaults* detected = nullptr) const;

  [[nodiscard]] const ThresholdConfig& config() const { return cfg_; }
  [[nodiscard]] const LrSchedule& schedule() const { return lr_; }

 private:
  ThresholdConfig cfg_;
  LrSchedule lr_;
};

}  // namespace refit
