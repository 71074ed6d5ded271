// Quickstart: train a small neural network *on simulated RRAM crossbars*
// with the complete fault-tolerant flow, in ~40 lines of user code.
//
//   build/examples/quickstart [--trace-out=FILE] [--metrics-out=FILE]
//       [--timeseries-out=FILE] [--events-out=FILE] [--manual-clock]
//
// What it shows:
//   1. building a dataset and a network whose weight matrices live on
//      crossbar tiles (RcsSystem::factory),
//   2. configuring the fault-tolerant flow (threshold training +
//      periodic on-line detection + re-mapping) and running it on an
//      FtEngine,
//   3. reading back the accuracy trace and endurance statistics,
//   4. optionally capturing a Perfetto trace, metrics snapshot,
//      per-iteration timeseries JSONL, and structured event JSONL
//      (docs/observability.md). --manual-clock injects a deterministic
//      clock so the timeseries/events output is byte-identical at any
//      REFIT_THREADS. REFIT_FAST=1 shortens the run for smoke tests.
#include <cstdio>
#include <cstdlib>

#include "core/engine.hpp"
#include "core/obs_observer.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "obs/capture.hpp"

using namespace refit;

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (!obs::is_obs_flag(argv[i])) {
      std::fprintf(stderr, "ignoring unknown argument '%s'\n", argv[i]);
    }
  }
  const obs::ObsOptions obs_opts = obs::init_obs(argc, argv);
  // Only REFIT_FAST=1 shortens the run, as in the benches; =0 runs in full.
  const char* fast_env = std::getenv("REFIT_FAST");
  const bool fast = fast_env != nullptr && fast_env[0] == '1';

  // A 10-class MNIST-like task, synthesized deterministically.
  SyntheticConfig data_cfg;
  data_cfg.train_size = 2048;
  data_cfg.test_size = 512;
  Rng data_rng(1);
  const Dataset data = make_synthetic_mnist(data_cfg, data_rng);

  // An RCS with 8-level cells, 10 % fabrication faults, limited endurance.
  RcsConfig rcs_cfg;
  rcs_cfg.inject_fabrication = true;
  rcs_cfg.fabrication.fraction = 0.10;
  rcs_cfg.endurance = EnduranceModel::gaussian(2000, 600);
  RcsSystem rcs(rcs_cfg, Rng(42));

  // A 784×100×10 MLP whose weight matrices live on the crossbars.
  Rng net_rng(2);
  Network net = make_mlp({784, 100, 10}, rcs.factory(), net_rng);

  // The full fault-tolerant on-line training flow (paper Fig. 2).
  FtFlowConfig flow;
  flow.iterations = fast ? 250 : 1000;
  flow.batch_size = 8;
  flow.threshold_training = true;   // §5.1: skip writes below 1% of max δw
  flow.detection_enabled = true;    // §4: quiescent-voltage testing…
  flow.detection_period = fast ? 100 : 250;  // …every 250 iterations
  flow.prune.enabled = true;        // §5.2: pruning +
  flow.remap_enabled = true;        // …neuron re-ordering

  FtEngine engine(flow);
  ObsObserver obs_observer;
  if (obs_opts.enabled()) engine.add_observer(&obs_observer);
  const TrainingResult result = engine.run(net, &rcs, data, Rng(3));

  std::printf("accuracy trace:\n");
  for (std::size_t i = 0; i < result.eval_iterations.size(); ++i) {
    std::printf("  iter %5zu  accuracy %.3f  fault-ratio %.3f\n",
                result.eval_iterations[i], result.eval_accuracy[i],
                result.fault_fraction[i]);
  }
  std::printf("peak accuracy     : %.3f\n", result.peak_accuracy);
  std::printf("device writes     : %llu\n",
              static_cast<unsigned long long>(result.device_writes));
  std::printf("updates suppressed: %.1f%% (threshold training)\n",
              100.0 * result.suppression_ratio());
  std::printf("wear-out faults   : %zu\n", result.wearout_faults);
  for (const PhaseEvent& ph : result.phases) {
    std::printf(
        "detection @%zu: %zu cycles, precision %.2f, recall %.2f, "
        "remap cost %.0f -> %.0f\n",
        ph.iteration, ph.cycles, ph.precision, ph.recall,
        ph.remap_cost_before, ph.remap_cost_after);
  }

  if (obs_opts.enabled()) {
    std::printf("\n%s", obs_observer.timing_table().c_str());
  }
  obs::write_obs(obs_opts);
  return 0;
}
