// Example: the FC-only fault-tolerant scenario of Fig. 7(b).
//
// The Conv layers of a VGG-style CNN stay in software while its three FC
// layers live on an RCS that carries ~50 % initial hard faults (a chip
// that has already been trained many times). Compares plain on-line
// training against the complete fault-tolerant flow, printing the
// detection quality and re-mapping cost of every phase.
//
//   build/examples/cifar_fault_tolerant [iterations]
#include <cstdio>
#include <cstdlib>

#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"

using namespace refit;

namespace {

RcsConfig worn_chip() {
  RcsConfig cfg;
  cfg.inject_fabrication = true;
  cfg.fabrication.fraction = 0.50;
  cfg.endurance = EnduranceModel::gaussian(1e6, 3e5);  // not the bottleneck
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t iters =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 1200;

  SyntheticConfig data_cfg;
  data_cfg.train_size = 2048;
  data_cfg.test_size = 512;
  Rng data_rng(1);
  const Dataset data = make_synthetic_cifar(data_cfg, data_rng, 16);
  const VggMiniConfig vc;  // 4 Conv + 3 FC

  FtFlowConfig base;
  base.iterations = iters;
  base.batch_size = 8;
  base.lr = LrSchedule{0.03, 0.5, iters / 3, 1e-4};
  base.eval_period = iters / 10;

  // Plain on-line training on the worn chip.
  double original_peak = 0.0;
  {
    Rng rng(2);
    RcsSystem rcs(worn_chip(), Rng(42));
    Network net = make_vgg_mini(vc, software_store_factory(), rcs.factory(),
                                rng);
    FtFlowConfig cfg = base;
    cfg.threshold_training = false;
    original_peak =
        FtEngine(cfg).run(net, &rcs, data, Rng(3)).peak_accuracy;
  }

  // The complete fault-tolerant flow.
  Rng rng(2);
  RcsSystem rcs(worn_chip(), Rng(42));
  Network net = make_vgg_mini(vc, software_store_factory(), rcs.factory(),
                              rng);
  FtFlowConfig cfg = base;
  cfg.threshold_training = true;
  cfg.detection_enabled = true;
  cfg.detection_period = iters / 6;
  cfg.prune.enabled = true;
  cfg.prune.fc_sparsity = 0.3;
  cfg.prune.conv_sparsity = 0.0;
  cfg.remap_enabled = true;
  cfg.remap.algorithm = RemapAlgorithm::kHungarian;
  const TrainingResult ft = FtEngine(cfg).run(net, &rcs, data, Rng(3));

  std::printf("FC-only VGG-mini on a chip with 50%% initial hard faults\n");
  std::printf("  original on-line training peak : %.3f\n", original_peak);
  std::printf("  fault-tolerant flow peak       : %.3f\n\n",
              ft.peak_accuracy);
  std::printf("detection/re-mapping phases:\n");
  for (const PhaseEvent& ph : ft.phases) {
    std::printf(
        "  @%5zu  cycles %5zu  precision %.2f  recall %.2f  "
        "Dist(P,F) %.0f -> %.0f\n",
        ph.iteration, ph.cycles, ph.precision, ph.recall,
        ph.remap_cost_before, ph.remap_cost_after);
  }
  std::printf("\naccuracy trace (fault-tolerant flow):\n");
  for (std::size_t i = 0; i < ft.eval_iterations.size(); ++i) {
    std::printf("  iter %5zu  accuracy %.3f\n", ft.eval_iterations[i],
                ft.eval_accuracy[i]);
  }
  return 0;
}
