// TAB_THR — reproduction of §5.1's threshold-training statistics:
//   (1) ~90 % of per-iteration weight updates fall below θ = 0.01·δw_max,
//   (2) the average cell lifetime improves ~15× (writes cut to ~6 %),
//   (3) the number of training iterations to reach the same accuracy grows
//       only ~1.2×,
// measured on both paper benchmarks: the 784×100×10 MLP (MNIST-like) and
// the VGG-mini CNN (CIFAR-like).
#include <iostream>

#include "bench_util.hpp"

using namespace refit;
using namespace refit::bench;

namespace {

struct Row {
  const char* model;
  double below_threshold;  ///< fraction of updates needing no write
  double write_reduction;  ///< baseline writes / threshold writes
  double iteration_ratio;  ///< iterations to target acc., thr / baseline
};

/// Iterations needed to first reach `target` accuracy (0 if never).
double iters_to(const TrainingResult& r, double target) {
  for (std::size_t i = 0; i < r.eval_iterations.size(); ++i) {
    if (r.eval_accuracy[i] >= target)
      return static_cast<double>(r.eval_iterations[i]);
  }
  return 0.0;
}

Row measure(const char* model, Network&& base_net, Network&& thr_net,
            RcsSystem& base_sys, RcsSystem& thr_sys, const Dataset& data,
            FtFlowConfig cfg) {
  cfg.threshold_training = false;
  const TrainingResult base =
      FtEngine(cfg).run(base_net, &base_sys, data, Rng(3));
  cfg.threshold_training = true;
  const TrainingResult thr = FtEngine(cfg).run(thr_net, &thr_sys, data, Rng(3));

  const double target = 0.95 * base.peak_accuracy;
  const double it_base = iters_to(base, target);
  const double it_thr = iters_to(thr, target);
  Row row{};
  row.model = model;
  row.below_threshold = thr.suppression_ratio();
  row.write_reduction =
      static_cast<double>(base.updates_written) /
      static_cast<double>(std::max<std::uint64_t>(1, thr.updates_written));
  row.iteration_ratio = (it_base > 0 && it_thr > 0) ? it_thr / it_base : 0.0;
  return row;
}

}  // namespace

int main() {
  SeriesPrinter out(std::cout, "TAB_THR threshold-training statistics");
  out.paper_reference(
      "~90% of deltas below 0.01*max; ~15x average lifetime (writes to "
      "~6%); ~1.2x more iterations to converge");
  out.header({"model", "fraction_below_threshold", "write_reduction_x",
              "iteration_ratio"});

  // No faults / unlimited endurance: we isolate the pure write statistics.
  // Updates are per-sample (batch 1) — the paper's on-line training regime
  // (5×10⁶ iterations over 50k images), which is what makes the
  // per-iteration δw distribution heavy-tailed.
  const RcsConfig rc = rcs_defaults();

  {
    const Dataset data = mnist_like();
    const std::size_t iters = scaled(3000);
    RcsSystem s1(rc, Rng(42)), s2(rc, Rng(42));
    Rng r1(2), r2(2);
    FtFlowConfig cfg = mlp_flow(iters);
    cfg.batch_size = 1;
    cfg.lr = LrSchedule{0.02, 0.5, iters / 2, 1e-4};
    const Row row = measure(
        "mlp_784_100_10", make_mlp({784, 100, 10}, s1.factory(), r1),
        make_mlp({784, 100, 10}, s2.factory(), r2), s1, s2, data, cfg);
    out.row(row.model, {row.below_threshold, row.write_reduction,
                        row.iteration_ratio});
  }
  {
    const Dataset data = cifar_like();
    const std::size_t iters = scaled(2500);
    RcsSystem s1(rc, Rng(43)), s2(rc, Rng(43));
    Rng r1(2), r2(2);
    const VggMiniConfig vc = vgg_mini_config();
    FtFlowConfig cfg = cnn_flow(iters);
    cfg.batch_size = 1;
    cfg.lr = LrSchedule{0.01, 0.5, iters / 2, 1e-4};
    const Row row = measure(
        "vgg_mini_cifar",
        make_vgg_mini(vc, s1.factory(), s1.factory(), r1),
        make_vgg_mini(vc, s2.factory(), s2.factory(), r2), s1, s2, data,
        cfg);
    out.row(row.model, {row.below_threshold, row.write_reduction,
                        row.iteration_ratio});
  }
  return 0;
}
