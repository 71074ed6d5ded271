// Fault-tolerant re-mapping by neuron re-ordering (paper §5.2).
//
// Re-ordering neuron j of the interface between two matrix layers moves the
// producer's column j and the consumer's input row-block j *together* to a
// new physical slot — the permuted network is isomorphic to the original,
// so no routing hardware is added. The goal (Eq. 3-4) is the permutation
// minimizing Dist(P, F): the number of cells where an unpruned weight
// collides with a stuck cell, so that the network's inherent sparsity
// "absorbs" SA0 faults.
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

/// Collision cost model.
///  - kPaperExact: Eq. 3 verbatim — an error iff the weight is unpruned and
///    the cell is faulty (any fault kind).
///  - kPhysical: accounts for the |w|+sign encoding — SA0 under an unpruned
///    weight costs 2; SA1 under a pruned weight costs 2 (it would read
///    ±w_max instead of 0); SA1 under an unpruned weight costs 1.
enum class RemapCostModel { kPaperExact, kPhysical };

struct RemapConfig {
  RemapAlgorithm algorithm = RemapAlgorithm::kGreedySwap;
  RemapCostModel cost_model = RemapCostModel::kPhysical;
  /// Random swap attempts per neuron for kGreedySwap.
  std::size_t greedy_trials_per_neuron = 60;
  /// Genetic-algorithm knobs.
  std::size_t ga_population = 24;
  std::size_t ga_generations = 80;
  double ga_mutation_rate = 0.25;
  std::size_t ga_tournament = 3;
  std::size_t ga_elites = 2;
  /// Install a new permutation only if it cuts the collision cost by at
  /// least this fraction. Re-mapping rewrites every moved cell (endurance +
  /// write-noise cost) and invalidates the network's adaptation to the old
  /// fault placement; measured end-to-end (ABL_REMAP), installs below
  /// ~20 % cost more accuracy than they recover, so the default is
  /// conservative.
  double min_improvement = 0.2;
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
/// the pruning masks (missing maps/masks contribute zero cost).
InterfaceCost build_interface_cost(const RemapInterface& iface,
                                   const DetectedFaults& detected,
                                   const PruneState& prune,
                                   RemapCostModel model);

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
/// install the resulting permutations on the crossbar stores.
RemapReport remap_network(Network& net, const DetectedFaults& detected,
                          const PruneState& prune, const RemapConfig& cfg,
                          Rng& rng);

/// Structured (whole-neuron) pruning over the network's re-mappable
/// interfaces: ranks each interface neuron by the combined L2 norm of its
/// producer column and consumer row-block, then prunes the lowest
/// `neuron_sparsity` fraction of neurons entirely.
PruneState compute_structured_pruning(Network& net, double neuron_sparsity);

}  // namespace refit
