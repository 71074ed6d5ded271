// ABL_REMAP — ablation of the §5.2 re-mapping search: compares no re-map,
// the paper's random-swap search, a genetic algorithm, and the exact
// Hungarian assignment, under both pruning granularities (unstructured
// magnitude pruning as in Han et al. [8], and structured whole-neuron
// pruning, which is what neuron re-ordering can actually align with
// column-structured faults — see DESIGN.md §5).
//
// Scenario: FC-only mapping with line-defect faults (dead columns), the
// spatially structured pattern where placement matters.
#include <iostream>

#include "bench_util.hpp"

using namespace refit;
using namespace refit::bench;

namespace {

struct Outcome {
  double peak = 0.0;
  double cost_before = 0.0;
  double cost_after = 0.0;
};

Outcome run_one(const Dataset& data, const VggMiniConfig& vc,
                RemapAlgorithm algo, bool structured, bool remap_enabled,
                std::uint64_t seed) {
  const std::size_t iters = scaled(800);
  FtFlowConfig cfg = cnn_flow(iters);
  cfg.threshold_training = true;
  cfg.detection_enabled = true;
  cfg.detection_period = iters / 6;
  cfg.prune.enabled = true;
  cfg.prune.fc_sparsity = 0.3;
  cfg.prune.conv_sparsity = 0.0;
  cfg.prune.structured = structured;
  cfg.prune.neuron_sparsity = 0.3;
  cfg.remap_enabled = remap_enabled;
  cfg.remap.algorithm = algo;

  RcsConfig rc = rcs_defaults();
  rc.tile_rows = rc.tile_cols = 128;
  rc.inject_fabrication = true;
  rc.fabrication.fraction = 0.40;
  rc.fabrication.spatial = SpatialDistribution::kLineDefects;

  Rng rng(2 + seed);
  RcsSystem sys(rc, Rng(42 + seed));
  Network net = make_vgg_mini(vc, software_store_factory(), sys.factory(),
                              rng);
  const TrainingResult r = FtEngine(cfg).run(net, &sys, data, Rng(3 + seed));
  Outcome o;
  o.peak = r.peak_accuracy;
  for (const auto& ph : r.phases) {
    o.cost_before += ph.remap_cost_before;
    o.cost_after += ph.remap_cost_after;
  }
  return o;
}

/// Two-seed average: single 40%-fault training runs are noisy.
Outcome run_case(const Dataset& data, const VggMiniConfig& vc,
                 RemapAlgorithm algo, bool structured, bool remap_enabled) {
  Outcome acc;
  const int seeds = 2;
  for (int s = 0; s < seeds; ++s) {
    const Outcome o = run_one(data, vc, algo, structured, remap_enabled,
                              static_cast<std::uint64_t>(s) * 100);
    acc.peak += o.peak / seeds;
    acc.cost_before += o.cost_before / seeds;
    acc.cost_after += o.cost_after / seeds;
  }
  return acc;
}

}  // namespace

int main() {
  const Dataset data = cifar_like();
  const VggMiniConfig vc = vgg_mini_config();

  SeriesPrinter out(std::cout, "ABL_REMAP re-mapping search ablation");
  out.paper_reference(
      "the paper uses a GA over random neuron exchanges; we add greedy "
      "hill-climbing and an exact Hungarian solver as bounds; collision "
      "cost (Dist(P,F), Eq. 3) should fall none < greedy ~ GA < Hungarian");
  out.header({"structured_prune", "algorithm", "peak_accuracy",
              "collision_cost_before", "collision_cost_after"});

  const struct {
    RemapAlgorithm algo;
    double id;
    bool remap;
  } algos[] = {
      {RemapAlgorithm::kNone, 0.0, false},
      {RemapAlgorithm::kGreedySwap, 1.0, true},
      {RemapAlgorithm::kGenetic, 2.0, true},
      {RemapAlgorithm::kHungarian, 3.0, true},
  };

  for (const bool structured : {false, true}) {
    for (const auto& a : algos) {
      const Outcome o = run_case(data, vc, a.algo, structured, a.remap);
      out.row({structured ? 1.0 : 0.0, a.id, o.peak, o.cost_before,
               o.cost_after});
    }
  }
  out.comment("algorithm ids: 0=none 1=greedy-swap 2=genetic 3=hungarian");
  return 0;
}
