// Tests for threshold training (src/core/threshold_trainer.hpp, Alg. 1).
#include "core/threshold_trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/remap.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "rcs/crossbar_store.hpp"
#include "rcs/rcs_system.hpp"

namespace refit {
namespace {

/// A dense layer with a controllable gradient.
struct Fixture {
  Rng rng{1};
  Dense layer{"fc", 4, 4, software_store_factory(), rng};
  std::vector<Param> params;

  Fixture() { layer.collect_params(params); }

  void set_grad(const Tensor& g) { *params[0].grad = g; }
};

TEST(Threshold, ZeroRatioAppliesEverything) {
  Fixture f;
  Tensor g({4, 4}, 0.001f);
  f.set_grad(g);
  const ThresholdTrainer t({0.0, 0.0}, LrSchedule{1.0, 1.0, 0, 1e-4});
  const auto st = t.step(f.params, 0);
  EXPECT_EQ(st.writes_issued, 16u);
  EXPECT_EQ(st.writes_suppressed, 0u);
}

TEST(Threshold, SuppressesSmallUpdates) {
  Fixture f;
  Tensor g({4, 4}, 0.0001f);
  g.at(0, 0) = 1.0f;  // one dominant update
  f.set_grad(g);
  const Tensor before = f.params[0].store->target();
  const ThresholdTrainer t({0.01, 0.0}, LrSchedule{1.0, 1.0, 0, 1e-4});
  const auto st = t.step(f.params, 0);
  EXPECT_EQ(st.writes_issued, 1u);
  EXPECT_EQ(st.writes_suppressed, 15u);
  EXPECT_NEAR(st.dw_max, 1.0, 1e-6);
  const Tensor& after = f.params[0].store->target();
  EXPECT_NEAR(after.at(0, 0), before.at(0, 0) - 1.0f, 1e-5);
  EXPECT_EQ(after.at(1, 1), before.at(1, 1));  // suppressed
}

TEST(Threshold, ThresholdIsRelativeToDwMax) {
  Fixture f;
  Tensor g({4, 4}, 0.0f);
  g.at(0, 0) = 1.0f;
  g.at(0, 1) = 0.02f;   // 2 % of max → kept at θ=0.01
  g.at(0, 2) = 0.005f;  // 0.5 % of max → suppressed
  f.set_grad(g);
  const ThresholdTrainer t({0.01, 0.0}, LrSchedule{1.0, 1.0, 0, 1e-4});
  const auto st = t.step(f.params, 0);
  EXPECT_EQ(st.writes_issued, 2u);
  EXPECT_EQ(st.writes_suppressed, 1u);
}

TEST(Threshold, BiasAlwaysUpdated) {
  Fixture f;
  Tensor g({4, 4}, 0.0f);
  f.set_grad(g);
  (*f.params[1].grad)[0] = 1.0f;  // bias gradient
  const float b0 = (*f.params[1].value)[0];
  const ThresholdTrainer t({0.01, 0.0}, LrSchedule{0.5, 1.0, 0, 1e-4});
  t.step(f.params, 0);
  EXPECT_NEAR((*f.params[1].value)[0], b0 - 0.5f, 1e-6);
}

TEST(Threshold, PruneMaskBlocksUpdates) {
  Rng rng(2);
  Network net;  // minimal network wrapper to get a PruneState
  net.add(std::make_unique<Dense>("fc", 4, 4, software_store_factory(), rng));
  PruneConfig pcfg;
  pcfg.fc_sparsity = 0.5;
  const PruneState prune = PruneState::compute(net, pcfg);
  std::vector<Param> params = net.params();
  Tensor g({4, 4}, 1.0f);
  *params[0].grad = g;
  // Tiny nonzero ratio: threshold mode (zero-delta cells are skipped, not
  // refresh-written as in the original full-array scheme).
  const ThresholdTrainer t({1e-9, 0.0}, LrSchedule{1.0, 1.0, 0, 1e-4});
  const auto st = t.step(params, 0, &prune);
  EXPECT_EQ(st.writes_issued, 8u);  // half masked away
}

TEST(Threshold, OriginalSchemeWritesWholeArray) {
  // With threshold_ratio == 0 (the paper's original on-line scheme) every
  // cell receives a programming pulse each step, zero deltas included.
  Fixture f;
  Tensor g({4, 4}, 0.0f);
  g.at(0, 0) = 1.0f;
  f.set_grad(g);
  const ThresholdTrainer t({0.0, 0.0}, LrSchedule{1.0, 1.0, 0, 1e-4});
  const auto st = t.step(f.params, 0);
  EXPECT_EQ(st.writes_issued, 16u);
  EXPECT_EQ(st.updates_zero, 0u);
}

TEST(Threshold, DetectedFaultyCellsSkipWrites) {
  RcsConfig cfg;
  cfg.tile_rows = 8;
  cfg.tile_cols = 8;
  cfg.write_noise_sigma = 0.0;
  cfg.inject_fabrication = false;
  Rng rng(3);
  Network net;
  RcsSystem sys(cfg, Rng(4));
  net.add(std::make_unique<Dense>("fc", 4, 4, sys.factory(), rng));
  std::vector<Param> params = net.params();
  auto* store = dynamic_cast<CrossbarWeightStore*>(params[0].store);
  ASSERT_NE(store, nullptr);

  DetectedFaults detected(1);
  FaultMatrix fm(4, 4);
  fm.set(1, 1, FaultKind::kStuckAt0);
  detected[0] = fm;

  Tensor g({4, 4}, 1.0f);
  *params[0].grad = g;
  const ThresholdTrainer t({0.0, 0.0}, LrSchedule{1.0, 1.0, 0, 1e-4});
  const auto st = t.step(params, 0, nullptr, &detected);
  EXPECT_EQ(st.writes_issued, 15u);
  EXPECT_EQ(st.writes_suppressed, 1u);
}

TEST(Threshold, WearLevelingRaisesThresholdForHotCells) {
  RcsConfig cfg;
  cfg.tile_rows = 8;
  cfg.tile_cols = 8;
  cfg.write_noise_sigma = 0.0;
  cfg.inject_fabrication = false;
  Rng rng(5);
  Network net;
  RcsSystem sys(cfg, Rng(6));
  net.add(std::make_unique<Dense>("fc", 2, 2, sys.factory(), rng));
  std::vector<Param> params = net.params();
  auto* store = dynamic_cast<CrossbarWeightStore*>(params[0].store);
  // Make cell (0,0) much hotter than the rest.
  Tensor hot({2, 2});
  hot.at(0, 0) = 0.001f;
  for (int i = 0; i < 50; ++i) store->apply_delta(hot);

  // Gradient just above the flat threshold for every cell.
  Tensor g({2, 2}, 0.02f);
  g.at(1, 1) = 1.0f;
  *params[0].grad = g;
  const ThresholdTrainer flat({0.01, 0.0},
                              LrSchedule{1.0, 1.0, 0, 1e-4});
  const ThresholdTrainer leveled({0.01, 50.0},
                                 LrSchedule{1.0, 1.0, 0, 1e-4});
  auto p2 = params;
  const auto st_flat = flat.step(params, 0);
  EXPECT_EQ(st_flat.writes_issued, 4u);
  // Re-prime the gradient (step cleared nothing, grads persist, but the
  // weights moved; that is fine for counting).
  *p2[0].grad = g;
  const auto st_lvl = leveled.step(p2, 0);
  EXPECT_LT(st_lvl.writes_issued, 4u);  // the hot cell got filtered
}

TEST(Threshold, WearLevelingFiresUnderDifferentialPair) {
  // A differential pair writes both legs, so the store's write count is
  // twice the per-leg wear. Normalized per logical cell, the mean doubled
  // and a cell 1.5× the mean wear never crossed it; normalized per
  // physical cell, it does.
  RcsConfig cfg;
  cfg.tile_rows = 8;
  cfg.tile_cols = 8;
  cfg.write_noise_sigma = 0.0;
  cfg.inject_fabrication = false;
  cfg.encoding = EncodingKind::kDifferentialPair;
  Rng rng(5);
  Network net;
  RcsSystem sys(cfg, Rng(6));
  net.add(std::make_unique<Dense>("fc", 2, 2, sys.factory(), rng));
  std::vector<Param> params = net.params();
  auto* store = dynamic_cast<CrossbarWeightStore*>(params[0].store);
  ASSERT_NE(store, nullptr);
  Tensor all({2, 2}, 0.001f);
  Tensor hot({2, 2});
  hot.at(0, 0) = 0.001f;
  for (int i = 0; i < 10; ++i) {
    store->apply_delta(all);
    store->apply_delta(hot);
  }
  // Cell (0,0): 21 writes per leg; the others 11; mean per leg 13.5.
  ASSERT_EQ(store->cell_write_count(0, 0), 21u);
  ASSERT_EQ(store->write_count(), 2u * (21u + 3u * 11u));

  Tensor g({2, 2}, 0.02f);
  g.at(1, 1) = 1.0f;
  *params[0].grad = g;
  const ThresholdTrainer leveled({0.01, 50.0},
                                 LrSchedule{1.0, 1.0, 0, 1e-4});
  const auto st = leveled.step(params, 0);
  EXPECT_EQ(st.writes_issued, 3u);  // only the hot cell is held back
  EXPECT_EQ(st.writes_suppressed, 1u);
}

TEST(Threshold, DwMaxIsTakenAcrossLayers) {
  Rng rng(7);
  Network net;
  net.add(std::make_unique<Dense>("a", 2, 2, software_store_factory(), rng));
  net.add(std::make_unique<Dense>("b", 2, 2, software_store_factory(), rng));
  std::vector<Param> params = net.params();
  *params[0].grad = Tensor({2, 2}, 1.0f);    // layer a
  *params[2].grad = Tensor({2, 2}, 0.005f);  // layer b
  // Layer b's 0.005 < 0.01·1.0 (layer a's max) → all four suppressed.
  const ThresholdTrainer t({0.01, 0.0}, LrSchedule{1.0, 1.0, 0, 1e-4});
  const auto st = t.step(params, 0);
  EXPECT_EQ(st.dw_max, 1.0);
  EXPECT_EQ(st.writes_issued, 4u);
}

/// Restores the default global pool when a test is done overriding it.
struct PoolGuard {
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

std::vector<std::uint32_t> bits_of(const Tensor& t) {
  std::vector<std::uint32_t> b(t.numel());
  for (std::size_t i = 0; i < t.numel(); ++i)
    b[i] = std::bit_cast<std::uint32_t>(t[i]);
  return b;
}

/// One 40×24 dense layer, on six 16×16 crossbar tiles (write noise and
/// fabrication faults on) or in software, built from fixed seeds.
struct StepRig {
  RcsSystem sys;
  Network net;
  std::vector<Param> params;

  explicit StepRig(bool crossbar) : sys(rig_config(), Rng(21)) {
    Rng rng(22);
    net.add(std::make_unique<Dense>(
        "fc", 40, 24, crossbar ? sys.factory() : software_store_factory(),
        rng));
    params = net.params();
  }
  static RcsConfig rig_config() {
    RcsConfig cfg;
    cfg.tile_rows = 16;
    cfg.tile_cols = 16;
    cfg.fabrication.fraction = 0.05;
    return cfg;
  }
};

TEST(Threshold, ScaledGradientStepMatchesPrescaledDelta) {
  // The trainer hands each store the raw gradient with scale = fl(−lr) and
  // takes δw_max as a branch-free masked max; the reference below is the
  // step written out with a scaled copy and a serial masked scan.
  PoolGuard guard;
  constexpr std::size_t kRows = 40, kCols = 24;
  Rng mrng(23);
  PruneMask mask{kRows, kCols, std::vector<std::uint8_t>(kRows * kCols, 0)};
  for (auto& b : mask.pruned) b = mrng.bernoulli(0.3) ? 1 : 0;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  mask.pruned[0] = 0;  // −0.0 on a free entry
  mask.pruned[1] = 0;  // NaN on a free entry: written, never δw_max
  mask.pruned[2] = 1;  // NaN on a pruned entry
  mask.pruned[3] = 1;  // the largest |g|, pruned: not δw_max either
  mask.pruned[4] = 0;  // δw_max, followed by NaNs in the tail
  constexpr std::size_t kNaNTail = 40;
  for (std::size_t n = kRows * kCols - kNaNTail; n < kRows * kCols; ++n)
    mask.pruned[n] = 0;
  PruneState prune;
  prune.merge_mask(0, mask);
  DetectedFaults detected(1, FaultMatrix(kRows, kCols));
  for (std::size_t r = 0; r < kRows; ++r)
    for (std::size_t c = 0; c < kCols; ++c)
      if (mrng.bernoulli(0.1)) detected[0].set(r, c, FaultKind::kStuckAt0);

  struct Case {
    ThresholdConfig cfg;
    double lr;
  };
  const Case cases[] = {
      {{0.01, 0.0}, 0.05},  // threshold filter
      {{0.0, 0.0}, 0.05},   // full_write: the original scheme
      {{0.01, 0.0}, 0.0},   // lr = 0: every δw is ±0 or NaN
      {{0.01, 2.0}, 0.05},  // wear-leveling
  };
  for (const bool crossbar : {true, false}) {
    for (const std::size_t threads : {1UL, 4UL}) {
      ThreadPool::set_global_threads(threads);
      for (const Case& c : cases) {
        SCOPED_TRACE(::testing::Message()
                     << (crossbar ? "crossbar" : "software") << ", "
                     << threads << " threads, θ " << c.cfg.threshold_ratio
                     << ", β " << c.cfg.wear_leveling_beta << ", lr "
                     << c.lr);
        StepRig got(crossbar), want(crossbar);
        const ThresholdTrainer trainer(c.cfg, LrSchedule{c.lr, 1.0, 0, 0.0});
        Rng grng(24);
        for (int step = 0; step < 3; ++step) {
          Tensor g({kRows, kCols});
          for (std::size_t n = 0; n < g.numel(); ++n)
            g[n] = static_cast<float>(grng.normal(0.0, 0.5));
          g[0] = -0.0f;
          g[1] = nan;
          g[2] = nan;
          g[3] = 1e3f;
          g[4] = 50.0f;
          for (std::size_t n = g.numel() - kNaNTail; n < g.numel(); ++n)
            g[n] = nan;
          Tensor gb({kCols});
          for (std::size_t n = 0; n < gb.numel(); ++n)
            gb[n] = static_cast<float>(grng.normal(0.0, 0.5));
          for (StepRig* r : {&got, &want}) {
            *r->params[0].grad = g;
            *r->params[1].grad = gb;
          }

          const ThresholdStepStats st =
              trainer.step(got.params, 0, &prune, &detected);

          const float scale = static_cast<float>(-c.lr);
          Tensor delta = g;
          delta *= scale;
          double dw_max = 0.0;
          for (std::size_t n = 0; n < delta.numel(); ++n)
            if (mask.pruned[n] == 0)
              dw_max = std::max(dw_max,
                                static_cast<double>(std::fabs(delta[n])));
          UpdatePolicy policy;
          policy.pruned = mask.pruned.data();
          policy.skip = detected[0].bytes();
          policy.threshold = c.cfg.threshold_ratio * dw_max;
          policy.wear_beta = c.cfg.wear_leveling_beta;
          policy.full_write = c.cfg.threshold_ratio <= 0.0;
          const UpdateStats ref =
              want.params[0].store->apply_update(delta, policy);
          Tensor delta_b = gb;
          delta_b *= scale;
          *want.params[1].value += delta_b;

          EXPECT_EQ(st.dw_max, dw_max);
          EXPECT_EQ(st.writes_issued, ref.writes_issued);
          EXPECT_EQ(st.writes_suppressed, ref.writes_suppressed);
          EXPECT_EQ(st.updates_zero, ref.updates_zero);
          EXPECT_EQ(bits_of(got.params[0].store->target()),
                    bits_of(want.params[0].store->target()));
          EXPECT_EQ(bits_of(got.params[0].store->effective()),
                    bits_of(want.params[0].store->effective()));
          EXPECT_EQ(bits_of(*got.params[1].value),
                    bits_of(*want.params[1].value));
          if (c.lr > 0.0) {
            EXPECT_GT(st.writes_issued, 0u);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace refit
