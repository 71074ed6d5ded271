// Magnitude pruning state and application (see prune.hpp).
#include "core/prune.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace refit {

PruneState PruneState::compute(Network& net, const PruneConfig& cfg) {
  PruneState state;
  if (!cfg.enabled) return state;
  const auto layers = net.matrix_layers();
  for (std::size_t layer = 0; layer < layers.size(); ++layer) {
    MatrixLayer* ml = layers[layer];
    const double sparsity =
        std::string(ml->kind()) == "conv" ? cfg.conv_sparsity
                                          : cfg.fc_sparsity;
    if (sparsity <= 0.0) continue;
    REFIT_CHECK_MSG(sparsity < 1.0, "sparsity must be < 1");
    const Tensor& w = ml->weights().target();
    const std::size_t rows = w.dim(0), cols = w.dim(1);
    const std::size_t n = rows * cols;
    // Threshold at the sparsity-quantile of |w|.
    std::vector<float> mags(n);
    for (std::size_t i = 0; i < n; ++i) mags[i] = std::fabs(w[i]);
    const auto k = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(n - 1),
                         sparsity * static_cast<double>(n)));
    std::vector<float> sorted = mags;
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(k),
                     sorted.end());
    const float cut = sorted[k];
    PruneMask mask;
    mask.rows = rows;
    mask.cols = cols;
    mask.pruned.assign(n, 0);
    std::size_t pruned = 0;
    for (std::size_t i = 0; i < n && pruned < k; ++i) {
      if (mags[i] < cut) {
        mask.pruned[i] = 1;
        ++pruned;
      }
    }
    // Fill up to exactly k with entries equal to the cut (ties).
    for (std::size_t i = 0; i < n && pruned < k; ++i) {
      if (mask.pruned[i] == 0 && mags[i] == cut) {
        mask.pruned[i] = 1;
        ++pruned;
      }
    }
    state.merge_mask(layer, mask);
  }
  return state;
}

const PruneMask* PruneState::mask_for(std::size_t layer) const {
  return layer < masks_.size() && !masks_[layer].pruned.empty()
             ? &masks_[layer]
             : nullptr;
}

void PruneState::apply_to(Network& net) const {
  std::size_t layer = 0;
  for (MatrixLayer* ml : net.matrix_layers()) {
    const PruneMask* mask = mask_for(layer++);
    if (mask == nullptr) continue;
    Tensor w = ml->weights().target();
    bool changed = false;
    for (std::size_t i = 0; i < w.numel(); ++i) {
      if (mask->pruned[i] != 0 && w[i] != 0.0f) {
        w[i] = 0.0f;
        changed = true;
      }
    }
    if (changed) ml->weights().assign(w);
  }
}

void PruneState::merge_mask(std::size_t layer, const PruneMask& mask) {
  if (masks_.size() <= layer) masks_.resize(layer + 1);
  PruneMask& existing = masks_[layer];
  if (existing.pruned.empty()) {
    existing = mask;
    return;
  }
  REFIT_CHECK(existing.pruned.size() == mask.pruned.size());
  for (std::size_t i = 0; i < mask.pruned.size(); ++i) {
    if (mask.pruned[i] != 0) existing.pruned[i] = 1;
  }
}

std::size_t PruneState::total_pruned() const {
  std::size_t n = 0;
  for (const PruneMask& mask : masks_) n += mask.count_pruned();
  return n;
}

}  // namespace refit
