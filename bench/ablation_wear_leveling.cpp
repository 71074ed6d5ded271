// ABL_WEAR — ablation of the wear-leveling extension to CalculateThreshold
// (Algorithm 1 passes the per-cell WriteAmount into the threshold; the
// paper leaves the function unspecified). With β > 0, cells that have been
// written more than the layer average get a proportionally higher
// threshold, spreading wear. We measure wear-out fault accumulation and
// accuracy on low-endurance crossbars.
#include <iostream>

#include "bench_util.hpp"

using namespace refit;
using namespace refit::bench;

int main() {
  const std::size_t iters = scaled(1500);
  const Dataset data = mnist_like();

  SeriesPrinter out(std::cout, "ABL_WEAR wear-leveling threshold");
  out.paper_reference(
      "Algorithm 1 computes the threshold from the per-cell WriteAmount; "
      "the paper does not specify the function — this ablation quantifies "
      "a proportional wear-leveling term (beta)");
  out.header({"beta", "peak_accuracy", "final_accuracy", "wearout_faults",
              "updates_written"});

  for (const double beta : {0.0, 1.0, 5.0, 20.0}) {
    RcsConfig rc = rcs_defaults();
    rc.tile_rows = rc.tile_cols = 64;
    rc.endurance = EnduranceModel::gaussian(
        0.25 * static_cast<double>(iters), 0.075 * static_cast<double>(iters));
    RcsSystem sys(rc, Rng(42));
    Rng rng(2);
    Network net = make_mlp({784, 64, 10}, sys.factory(), rng);

    FtFlowConfig cfg = mlp_flow(iters);
    cfg.batch_size = 8;
    cfg.threshold_training = true;
    cfg.threshold.wear_leveling_beta = beta;
    const TrainingResult r = FtEngine(cfg).run(net, &sys, data, Rng(3));
    out.row({beta, r.peak_accuracy, r.final_accuracy,
             static_cast<double>(r.wearout_faults),
             static_cast<double>(r.updates_written)});
  }
  return 0;
}
