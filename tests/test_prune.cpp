// Tests for magnitude pruning (src/core/prune.hpp).
#include "core/prune.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "nn/models.hpp"

namespace refit {
namespace {

TEST(Prune, DisabledProducesNoMasks) {
  Rng rng(1);
  Network net = make_mlp({8, 4, 2}, software_store_factory(), rng);
  PruneConfig cfg;
  cfg.enabled = false;
  const PruneState st = PruneState::compute(net, cfg);
  EXPECT_TRUE(st.empty());
}

TEST(Prune, SparsityFractionRespected) {
  Rng rng(2);
  Network net = make_mlp({32, 16, 8}, software_store_factory(), rng);
  PruneConfig cfg;
  cfg.fc_sparsity = 0.6;
  const PruneState st = PruneState::compute(net, cfg);
  for (std::size_t i = 0; i < net.matrix_layers().size(); ++i) {
    const PruneMask* m = st.mask_for(i);
    ASSERT_NE(m, nullptr);
    const double frac = static_cast<double>(m->count_pruned()) /
                        static_cast<double>(m->pruned.size());
    EXPECT_NEAR(frac, 0.6, 0.01);
  }
}

TEST(Prune, PrunesSmallestMagnitudes) {
  Rng rng(3);
  Network net = make_mlp({16, 8}, software_store_factory(), rng);
  PruneConfig cfg;
  cfg.fc_sparsity = 0.5;
  const PruneState st = PruneState::compute(net, cfg);
  MatrixLayer* ml = net.matrix_layers()[0];
  const PruneMask* m = st.mask_for(0);
  const Tensor& w = ml->weights().target();
  // Every pruned weight must be ≤ every kept weight in magnitude.
  float max_pruned = 0.0f, min_kept = 1e30f;
  for (std::size_t i = 0; i < w.numel(); ++i) {
    const float mag = std::fabs(w[i]);
    if (m->pruned[i]) {
      max_pruned = std::max(max_pruned, mag);
    } else {
      min_kept = std::min(min_kept, mag);
    }
  }
  EXPECT_LE(max_pruned, min_kept);
}

TEST(Prune, ApplyZeroesWeights) {
  Rng rng(4);
  Network net = make_mlp({16, 8}, software_store_factory(), rng);
  PruneConfig cfg;
  cfg.fc_sparsity = 0.5;
  const PruneState st = PruneState::compute(net, cfg);
  st.apply_to(net);
  MatrixLayer* ml = net.matrix_layers()[0];
  const PruneMask* m = st.mask_for(0);
  const Tensor& w = ml->weights().target();
  for (std::size_t i = 0; i < w.numel(); ++i) {
    if (m->pruned[i]) {
      EXPECT_EQ(w[i], 0.0f);
    }
  }
}

TEST(Prune, MaskDeltaZeroesPrunedEntries) {
  Rng rng(5);
  Network net = make_mlp({8, 4}, software_store_factory(), rng);
  PruneConfig cfg;
  cfg.fc_sparsity = 0.5;
  const PruneState st = PruneState::compute(net, cfg);
  const PruneMask* m = st.mask_for(0);
  // The byte mask is what the store's update pass reads.
  SoftwareWeightStore store(Tensor({8, 4}));
  UpdatePolicy policy;
  policy.pruned = m->pruned.data();
  const UpdateStats us = store.apply_update(Tensor({8, 4}, 1.0f), policy);
  EXPECT_EQ(us.updates_zero, m->count_pruned());
  EXPECT_EQ(us.writes_issued, 32u - m->count_pruned());
  for (std::size_t i = 0; i < 32; ++i)
    EXPECT_EQ(store.target()[i], m->pruned[i] != 0 ? 0.0f : 1.0f);
}

TEST(Prune, ConvAndFcUseDifferentSparsity) {
  Rng rng(6);
  VggMiniConfig vcfg;
  vcfg.in_hw = 8;
  vcfg.conv_channels = {8};
  vcfg.pool_after = {0};
  vcfg.fc_hidden = {16};
  Network net = make_vgg_mini(vcfg, software_store_factory(),
                              software_store_factory(), rng);
  PruneConfig cfg;
  cfg.conv_sparsity = 0.2;
  cfg.fc_sparsity = 0.7;
  const PruneState st = PruneState::compute(net, cfg);
  const auto layers = net.matrix_layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    MatrixLayer* ml = layers[i];
    const PruneMask* m = st.mask_for(i);
    ASSERT_NE(m, nullptr);
    const double frac = static_cast<double>(m->count_pruned()) /
                        static_cast<double>(m->pruned.size());
    if (std::string(ml->kind()) == "conv") {
      EXPECT_NEAR(frac, 0.2, 0.05);
    } else {
      EXPECT_NEAR(frac, 0.7, 0.05);
    }
  }
}

TEST(Prune, ZeroSparsitySkipsLayer) {
  Rng rng(7);
  Network net = make_mlp({8, 4}, software_store_factory(), rng);
  PruneConfig cfg;
  cfg.fc_sparsity = 0.0;
  const PruneState st = PruneState::compute(net, cfg);
  EXPECT_EQ(st.mask_for(0), nullptr);
}

TEST(Prune, TotalPrunedCountsAcrossLayers) {
  Rng rng(8);
  Network net = make_mlp({10, 10, 10}, software_store_factory(), rng);
  PruneConfig cfg;
  cfg.fc_sparsity = 0.5;
  const PruneState st = PruneState::compute(net, cfg);
  EXPECT_EQ(st.total_pruned(), 100u);  // 2 layers × 100 weights × 0.5
}

}  // namespace
}  // namespace refit
