// ABL_PERIOD — ablation of the detection cadence ("after every fixed
// number of iterations", paper Fig. 2 leaves the period unspecified).
// Frequent detection finds wear-out faults earlier and keeps the digital
// training state accurate, but each phase costs test cycles and ±δw write
// pulses on every candidate cell. This sweep measures the accuracy /
// test-overhead trade-off on the FC-only scenario.
#include <iostream>

#include "bench_util.hpp"

using namespace refit;
using namespace refit::bench;

int main() {
  const std::size_t iters = scaled(1200);
  const Dataset data = cifar_like();
  const VggMiniConfig vc = vgg_mini_config();

  SeriesPrinter out(std::cout, "ABL_PERIOD detection cadence");
  out.paper_reference(
      "the paper runs detection after every fixed number of iterations "
      "without specifying it; this sweep exposes the trade-off");
  out.header({"detection_period", "phases", "peak_accuracy",
              "total_test_cycles", "detection_writes"});

  for (const std::size_t divider : {0UL, 12UL, 6UL, 3UL, 2UL}) {
    RcsConfig rc = rcs_defaults();
    rc.inject_fabrication = true;
    rc.fabrication.fraction = 0.50;
    RcsSystem sys(rc, Rng(42));
    Rng rng(2);
    Network net = make_vgg_mini(vc, software_store_factory(), sys.factory(),
                                rng);

    FtFlowConfig cfg = cnn_flow(iters);
    cfg.threshold_training = true;
    if (divider > 0) {
      cfg.detection_enabled = true;
      cfg.detection_period = iters / divider;
      cfg.prune.enabled = true;
      cfg.prune.fc_sparsity = 0.3;
      cfg.prune.conv_sparsity = 0.0;
      cfg.remap_enabled = true;
      cfg.remap.algorithm = RemapAlgorithm::kHungarian;
    }
    const TrainingResult r = FtEngine(cfg).run(net, &sys, data, Rng(3));
    std::size_t cycles = 0;
    std::uint64_t writes = 0;
    for (const auto& ph : r.phases) {
      cycles += ph.cycles;
      writes += ph.detection_writes;
    }
    out.row({divider == 0 ? 0.0
                          : static_cast<double>(iters / divider),
             static_cast<double>(r.phases.size()), r.peak_accuracy,
             static_cast<double>(cycles), static_cast<double>(writes)});
  }
  return 0;
}
