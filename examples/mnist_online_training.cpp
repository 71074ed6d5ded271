// Example: the endurance story on the paper's MLP benchmark
// (784×100×10, MNIST-like data).
//
// Trains the same network twice on low-endurance crossbars — once with
// plain on-line SGD (every δw is a device write) and once with threshold
// training (§5.1) — and reports how wear-out faults accumulate and what
// that does to accuracy. This is the per-model view behind Fig. 7(a).
//
//   build/examples/mnist_online_training [iterations]
#include <cstdio>
#include <cstdlib>

#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"

using namespace refit;

namespace {

TrainingResult run(bool threshold, const Dataset& data, std::size_t iters) {
  RcsConfig rcs_cfg;
  rcs_cfg.inject_fabrication = true;
  rcs_cfg.fabrication.fraction = 0.05;
  // Low endurance: mean budget ≈ 0.8 writes/cell per training run.
  rcs_cfg.endurance = EnduranceModel::gaussian(
      0.8 * static_cast<double>(iters), 0.24 * static_cast<double>(iters));
  RcsSystem rcs(rcs_cfg, Rng(42));

  Rng net_rng(2);
  Network net = make_mlp({784, 100, 10}, rcs.factory(), net_rng);

  FtFlowConfig flow;
  flow.iterations = iters;
  flow.batch_size = 8;
  flow.eval_period = iters / 10;
  flow.threshold_training = threshold;

  TrainingResult res = FtEngine(flow).run(net, &rcs, data, Rng(3));
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t iters =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 1500;

  SyntheticConfig data_cfg;
  data_cfg.train_size = 2048;
  data_cfg.test_size = 512;
  Rng data_rng(1);
  const Dataset data = make_synthetic_mnist(data_cfg, data_rng);

  std::printf("training the 784x100x10 MLP for %zu iterations on "
              "low-endurance RRAM\n\n", iters);

  const TrainingResult plain = run(/*threshold=*/false, data, iters);
  const TrainingResult thresh = run(/*threshold=*/true, data, iters);

  std::printf("%-28s %14s %14s\n", "", "original", "threshold");
  std::printf("%-28s %14.3f %14.3f\n", "peak accuracy",
              plain.peak_accuracy, thresh.peak_accuracy);
  std::printf("%-28s %14.3f %14.3f\n", "final accuracy",
              plain.final_accuracy, thresh.final_accuracy);
  std::printf("%-28s %14llu %14llu\n", "device writes",
              static_cast<unsigned long long>(plain.device_writes),
              static_cast<unsigned long long>(thresh.device_writes));
  std::printf("%-28s %14zu %14zu\n", "wear-out faults",
              plain.wearout_faults, thresh.wearout_faults);
  std::printf("%-28s %14.3f %14.3f\n", "final fault fraction",
              plain.final_fault_fraction, thresh.final_fault_fraction);
  std::printf("%-28s %14.1f%% %13.1f%%\n", "updates suppressed",
              100.0 * plain.suppression_ratio(),
              100.0 * thresh.suppression_ratio());

  const double reduction =
      static_cast<double>(plain.updates_written) /
      static_cast<double>(std::max<std::uint64_t>(1, thresh.updates_written));
  std::printf("\nthreshold training issued %.1fx fewer update writes — the "
              "paper reports ~15x average lifetime on VGG-scale networks\n",
              reduction);
  return 0;
}
