// Magnitude pruning (paper §5.2, following Han et al. [8]): fix the
// smallest-magnitude fraction of each weight matrix to zero. The resulting
// masks are (a) enforced during training — pruned weights receive no
// updates — and (b) the sparsity the re-mapping engine aligns with SA0
// cells.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/network.hpp"

namespace refit {

/// Sparsity targets per layer kind. The paper notes FC layers tolerate far
/// more sparsity than Conv layers (>50 % vs much less), which is why
/// re-mapping pays off for FC but not for Conv.
struct PruneConfig {
  double fc_sparsity = 0.6;
  double conv_sparsity = 0.3;
  bool enabled = true;
  /// Structured (whole-neuron) pruning: remove entire interface neurons —
  /// the producer column and the consumer row-block together — instead of
  /// scattered weights. Structured zeros are what neuron re-ordering can
  /// actually align with faulty columns (see remap.hpp); unstructured
  /// magnitude pruning leaves every column half-unpruned, capping the
  /// achievable collision reduction.
  bool structured = false;
  /// Fraction of each interface's neurons removed when structured.
  double neuron_sparsity = 0.4;
};

/// Pruning mask of one weight matrix; flat row-major bytes, 1 = pruned
/// (the layout UpdatePolicy::pruned reads).
struct PruneMask {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::uint8_t> pruned;

  [[nodiscard]] bool at(std::size_t r, std::size_t c) const {
    return pruned[r * cols + c] != 0;
  }
  [[nodiscard]] std::size_t count_pruned() const {
    return pruned.size() - std::count(pruned.begin(), pruned.end(), 0);
  }
};

/// The pruning state of a network: one mask per matrix layer, indexed like
/// Network::matrix_layers(), and empty until a mask is merged.
class PruneState {
 public:
  PruneState() = default;

  /// Magnitude-prune every matrix layer of `net` based on its current
  /// target weights.
  static PruneState compute(Network& net, const PruneConfig& cfg);

  /// Mask of matrix layer `layer`, or nullptr when that layer is not pruned.
  [[nodiscard]] const PruneMask* mask_for(std::size_t layer) const;

  /// Write zeros into the pruned positions of every masked layer.
  void apply_to(Network& net) const;

  [[nodiscard]] bool empty() const { return masks_.empty(); }
  [[nodiscard]] std::size_t total_pruned() const;

  /// OR `mask` into layer `layer`'s mask (setting it if absent). Used by the
  /// structured pruner, which touches one layer from two interfaces.
  void merge_mask(std::size_t layer, const PruneMask& mask);

 private:
  std::vector<PruneMask> masks_;
};

}  // namespace refit
