// Integration tests for the full fault-tolerant training flow (Fig. 2).
// These train small MLPs on a small synthetic task, so they are the
// slowest tests in the suite (still only a few seconds).
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"

namespace refit {
namespace {

Dataset small_mnist(std::uint64_t seed = 1) {
  SyntheticConfig cfg;
  cfg.train_size = 768;
  cfg.test_size = 256;
  cfg.noise_stddev = 0.3f;
  cfg.background_clip = 0.4f;
  Rng rng(seed);
  return make_synthetic_mnist(cfg, rng);
}

FtFlowConfig fast_flow(std::size_t iterations = 300) {
  FtFlowConfig cfg;
  cfg.iterations = iterations;
  cfg.batch_size = 32;
  cfg.lr = LrSchedule{0.05, 0.5, 150, 1e-4};
  cfg.eval_period = 100;
  cfg.eval_samples = 256;
  return cfg;
}

RcsConfig rcs_base() {
  RcsConfig cfg;
  cfg.tile_rows = 64;
  cfg.tile_cols = 64;
  cfg.levels = 8;
  cfg.write_noise_sigma = 0.01;
  cfg.inject_fabrication = false;
  return cfg;
}

TEST(FtFlow, IdealSoftwareTrainingLearns) {
  const Dataset data = small_mnist();
  Rng rng(2);
  Network net = make_mlp({784, 32, 10}, software_store_factory(), rng);
  const TrainingResult res =
      FtEngine(fast_flow()).run(net, nullptr, data, Rng(3));
  EXPECT_GT(res.peak_accuracy, 0.8);
  EXPECT_EQ(res.device_writes, 0u);
  EXPECT_FALSE(res.eval_accuracy.empty());
  EXPECT_EQ(res.eval_iterations.front(), 0u);
  EXPECT_EQ(res.eval_iterations.back(), 300u);
}

TEST(FtFlow, RcsTrainingWithoutFaultsAlsoLearns) {
  const Dataset data = small_mnist();
  Rng rng(4);
  RcsSystem sys(rcs_base(), Rng(5));
  Network net = make_mlp({784, 32, 10}, sys.factory(), rng);
  FtFlowConfig cfg = fast_flow();
  cfg.threshold_training = false;
  const TrainingResult res = FtEngine(cfg).run(net, &sys, data, Rng(6));
  EXPECT_GT(res.peak_accuracy, 0.7);  // 8-level quantization costs a bit
  EXPECT_GT(res.device_writes, 0u);
}

TEST(FtFlow, ThresholdTrainingSuppressesMostWrites) {
  const Dataset data = small_mnist();
  Rng rng(7);
  RcsSystem sys(rcs_base(), Rng(8));
  Network net = make_mlp({784, 32, 10}, sys.factory(), rng);
  FtFlowConfig cfg = fast_flow();
  cfg.batch_size = 8;  // small batches keep per-iteration δw heavy-tailed
  cfg.threshold_training = true;
  const TrainingResult res = FtEngine(cfg).run(net, &sys, data, Rng(9));
  // The paper reports ~90 % of δw below the threshold.
  EXPECT_GT(res.suppression_ratio(), 0.5);
  EXPECT_GT(res.peak_accuracy, 0.6);
}

TEST(FtFlow, EnduranceLimitedTrainingDegradesWithoutFt) {
  const Dataset data = small_mnist();
  Rng rng(10);
  RcsConfig rc = rcs_base();
  // Endurance so low that plain SGD (1 write/cell/iteration) kills most
  // cells mid-run.
  rc.endurance = EnduranceModel::gaussian(150.0, 45.0);
  RcsSystem sys(rc, Rng(11));
  Network net = make_mlp({784, 32, 10}, sys.factory(), rng);
  FtFlowConfig cfg = fast_flow();
  cfg.threshold_training = false;
  const TrainingResult res = FtEngine(cfg).run(net, &sys, data, Rng(12));
  EXPECT_GT(res.wearout_faults, 0u);
  EXPECT_GT(res.final_fault_fraction, 0.3);
  // Accuracy degrades as the array dies (Fig. 1's collapse).
  EXPECT_LT(res.final_accuracy, res.peak_accuracy - 0.02);
}

TEST(FtFlow, ThresholdTrainingExtendsLifetime) {
  const Dataset data = small_mnist();
  auto run = [&](bool threshold) {
    Rng rng(13);
    RcsConfig rc = rcs_base();
    rc.endurance = EnduranceModel::gaussian(150.0, 45.0);
    RcsSystem sys(rc, Rng(14));
    Network net = make_mlp({784, 32, 10}, sys.factory(), rng);
    FtFlowConfig cfg = fast_flow();
    cfg.batch_size = 8;  // heavy-tailed δw, as in the paper's setting
    cfg.threshold_training = threshold;
    return FtEngine(cfg).run(net, &sys, data, Rng(15));
  };
  const TrainingResult without = run(false);
  const TrainingResult with = run(true);
  EXPECT_LT(with.final_fault_fraction, without.final_fault_fraction);
  // Per-weight update writes requested by the trainer drop substantially
  // (raw device_writes would be confounded by the baseline's dead cells
  // silently swallowing writes). The paper's ~94 % reduction needs the
  // cross-layer gradient-magnitude spread of a deep CNN; a 2-layer MLP's
  // δw distribution is flatter, so the bound here is conservative — the
  // CNN-scale number is measured by bench/threshold_stats.
  EXPECT_LT(with.updates_written,
            static_cast<std::uint64_t>(0.8 * without.updates_written));
}

TEST(FtFlow, DetectionPhasesRunAndReportMetrics) {
  const Dataset data = small_mnist();
  Rng rng(16);
  RcsConfig rc = rcs_base();
  rc.inject_fabrication = true;
  rc.fabrication.fraction = 0.1;
  RcsSystem sys(rc, Rng(17));
  Network net = make_mlp({784, 32, 10}, sys.factory(), rng);
  FtFlowConfig cfg = fast_flow(300);
  cfg.detection_enabled = true;
  cfg.detection_period = 100;
  cfg.detector.test_rows_per_cycle = 16;
  cfg.prune.enabled = true;
  cfg.prune.fc_sparsity = 0.5;
  cfg.remap_enabled = true;
  cfg.remap.algorithm = RemapAlgorithm::kHungarian;
  const TrainingResult res = FtEngine(cfg).run(net, &sys, data, Rng(18));
  ASSERT_EQ(res.phases.size(), 3u);
  for (const auto& ph : res.phases) {
    EXPECT_GT(ph.cycles, 0u);
    EXPECT_GT(ph.recall, 0.8);
    EXPECT_LE(ph.remap_cost_after, ph.remap_cost_before + 1e-9);
  }
}

TEST(FtFlow, FullFlowBeatsOriginalUnderInitialFaults) {
  // The headline Fig. 7(b) claim: with a large initial fault population on
  // the FC layers, the complete FT flow (threshold + detection + prune +
  // remap) recovers accuracy the original method cannot. Averaged over
  // three seeds to keep the assertion robust.
  SyntheticConfig sc;
  sc.train_size = 1024;
  sc.test_size = 256;
  Rng drng(1);
  const Dataset data = make_synthetic_cifar(sc, drng, 8);

  VggMiniConfig vc;
  vc.in_hw = 8;
  vc.conv_channels = {8, 16};
  vc.pool_after = {0, 1};
  vc.fc_hidden = {96, 48};

  double orig_mean = 0.0, full_mean = 0.0;
  for (std::uint64_t s = 0; s < 3; ++s) {
    FtFlowConfig cfg = fast_flow(600);
    cfg.batch_size = 8;
    cfg.lr = LrSchedule{0.03, 0.5, 150, 1e-4};
    RcsConfig rc = rcs_base();
    rc.tile_rows = rc.tile_cols = 64;
    rc.inject_fabrication = true;
    rc.fabrication.fraction = 0.40;
    {
      Rng rng(2 + s);
      RcsSystem sys(rc, Rng(50 + s));
      Network net = make_vgg_mini(vc, software_store_factory(),
                                  sys.factory(), rng);
      cfg.threshold_training = false;
      orig_mean +=
          FtEngine(cfg).run(net, &sys, data, Rng(3 + s)).peak_accuracy;
    }
    {
      Rng rng(2 + s);
      RcsSystem sys(rc, Rng(50 + s));
      Network net = make_vgg_mini(vc, software_store_factory(),
                                  sys.factory(), rng);
      cfg.threshold_training = true;
      cfg.detection_enabled = true;
      cfg.detection_period = 100;
      cfg.prune.enabled = true;
      cfg.prune.fc_sparsity = 0.3;
      cfg.prune.conv_sparsity = 0.0;
      cfg.remap_enabled = true;
      cfg.remap.algorithm = RemapAlgorithm::kHungarian;
      full_mean +=
          FtEngine(cfg).run(net, &sys, data, Rng(3 + s)).peak_accuracy;
    }
  }
  orig_mean /= 3.0;
  full_mean /= 3.0;
  EXPECT_GT(full_mean, orig_mean + 0.03);
  EXPECT_GT(full_mean, 0.6);
}

TEST(FtFlow, ResultBookkeepingConsistent) {
  const Dataset data = small_mnist();
  Rng rng(22);
  Network net = make_mlp({784, 16, 10}, software_store_factory(), rng);
  FtFlowConfig cfg = fast_flow(100);
  const TrainingResult res = FtEngine(cfg).run(net, nullptr, data, Rng(23));
  EXPECT_EQ(res.eval_iterations.size(), res.eval_accuracy.size());
  EXPECT_EQ(res.eval_iterations.size(), res.fault_fraction.size());
  for (double a : res.eval_accuracy) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
  EXPECT_GE(res.peak_accuracy, res.final_accuracy - 1e-12);
}

}  // namespace
}  // namespace refit
