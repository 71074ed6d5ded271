// Fault-tolerant re-mapping by neuron re-ordering (paper §5.2).
//
// Re-ordering neuron j of the interface between two matrix layers moves the
// producer's column j and the consumer's input row-block j *together* to a
// new physical slot — the permuted network is isomorphic to the original,
// so no routing hardware is added. The goal (Eq. 3-4) is the permutation
// minimizing Dist(P, F): the number of cells where an unpruned weight
// collides with a stuck cell, so that the network's inherent sparsity
// "absorbs" SA0 faults. The cost here weights each collision by what the
// cell reads under the |w|+sign encoding, so an SA1 cell under a pruned
// weight counts too (build_interface_cost).
//
// Because the placement cost decomposes per (logical neuron j → physical
// slot p) pair once neighboring interfaces are fixed, each interface is a
// linear assignment problem. We provide the paper's random-swap search and
// a genetic algorithm, plus an exact Hungarian solver as an upper bound
// (ablation ABL_REMAP in DESIGN.md).
#pragma once

#include <cstddef>
#include <vector>

#include "core/prune.hpp"
#include "nn/network.hpp"
#include "rram/fault_map.hpp"

namespace refit {

class Rng;

/// Search strategy for the per-interface assignment problem.
enum class RemapAlgorithm { kNone, kGreedySwap, kGenetic, kHungarian };

struct RemapConfig {
  RemapAlgorithm algorithm = RemapAlgorithm::kGreedySwap;
};

/// One re-orderable neuron interface between consecutive matrix layers.
struct RemapInterface {
  MatrixLayer* producer = nullptr;  ///< its columns move
  MatrixLayer* consumer = nullptr;  ///< its input row-blocks move
  std::size_t neurons = 0;
  std::size_t layer = 0;  ///< producer's matrix-layer index (consumer: +1)
};

/// Detected fault maps (physical space) from the on-line detector, indexed
/// like Network::matrix_layers(); an empty matrix means "none detected".
using DetectedFaults = std::vector<FaultMatrix>;

/// Layer `layer`'s detected faults, or nullptr when none were detected.
[[nodiscard]] inline const FaultMatrix* detected_for(const DetectedFaults& d,
                                                     std::size_t layer) {
  return layer < d.size() && !d[layer].empty() ? &d[layer] : nullptr;
}

/// Interfaces of `net` eligible for neuron re-ordering: neuron counts must
/// match across the interface and at least one side must be on crossbars.
std::vector<RemapInterface> find_remap_interfaces(Network& net);

/// Dense M×M assignment cost: cost(j, p) = penalty of placing logical
/// neuron j at physical slot p.
class InterfaceCost {
 public:
  explicit InterfaceCost(std::size_t m) : m_(m), cost_(m * m, 0.0) {}

  [[nodiscard]] std::size_t size() const { return m_; }
  [[nodiscard]] double at(std::size_t j, std::size_t p) const {
    return cost_[j * m_ + p];
  }
  void add(std::size_t j, std::size_t p, double v) { cost_[j * m_ + p] += v; }
  /// Total cost of a full assignment.
  [[nodiscard]] double total(const std::vector<std::size_t>& perm) const;

 private:
  std::size_t m_;
  std::vector<double> cost_;
};

/// Build the assignment cost for one interface from the detected faults and
/// the pruning masks (missing maps/masks contribute zero cost). The cost
/// accounts for the |w|+sign encoding: SA0 under an unpruned weight costs
/// 2; SA1 under a pruned weight costs 2 (it would read ±w_max instead of
/// 0); SA1 under an unpruned weight costs 1.
///
/// Each entry is counted, not summed cell by cell. Over one side's
/// positions of a neuron (the producer's logical rows, or the consumer's
/// b·cols block cells), let SA0_p and SA1_p be where slot p's cells are
/// stuck and P_j where neuron j is pruned; then that side adds
/// 2·|SA0_p ∖ P_j| + |SA1_p| + |SA1_p ∩ P_j| to cost(j, p), each count a
/// popcount over bitsets. Every term is a small integer, exact in double,
/// so the entry has the bits of the per-cell sum.
InterfaceCost build_interface_cost(const RemapInterface& iface,
                                   const DetectedFaults& detected,
                                   const PruneState& prune);

/// Solve the assignment problem with the chosen algorithm.
std::vector<std::size_t> optimize_assignment(const InterfaceCost& cost,
                                             const RemapConfig& cfg, Rng& rng);

/// Exact minimum-cost assignment (Hungarian / Kuhn-Munkres, O(n³)).
std::vector<std::size_t> hungarian_assignment(const InterfaceCost& cost);

/// Outcome of a full-network re-mapping pass.
struct RemapReport {
  std::size_t interfaces = 0;
  double cost_before = 0.0;
  double cost_after = 0.0;
};

/// Optimize every eligible interface (coordinate descent, one sweep) and
/// install the resulting permutations on the crossbar stores. A
/// permutation is installed only if it cuts the interface's collision cost
/// by at least 20 %; otherwise the interface keeps its placement and
/// reports cost_after == cost_before.
RemapReport remap_network(Network& net, const DetectedFaults& detected,
                          const PruneState& prune, const RemapConfig& cfg,
                          Rng& rng);

/// Structured (whole-neuron) pruning over the network's re-mappable
/// interfaces: ranks each interface neuron by the combined L2 norm of its
/// producer column and consumer row-block, then prunes the lowest
/// `neuron_sparsity` fraction of neurons entirely.
PruneState compute_structured_pruning(Network& net, double neuron_sparsity);

}  // namespace refit
