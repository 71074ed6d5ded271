// Tests for the neuron re-ordering re-mapper (src/core/remap.hpp).
#include "core/remap.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/models.hpp"
#include "rcs/rcs_system.hpp"

namespace refit {
namespace {

RcsConfig clean_rcs() {
  RcsConfig cfg;
  cfg.tile_rows = 32;
  cfg.tile_cols = 32;
  cfg.levels = 64;
  cfg.write_noise_sigma = 0.0;
  cfg.inject_fabrication = false;
  return cfg;
}

TEST(InterfaceCostClass, TotalSumsAssignedEntries) {
  InterfaceCost c(3);
  c.add(0, 1, 2.0);
  c.add(1, 0, 3.0);
  c.add(2, 2, 5.0);
  EXPECT_DOUBLE_EQ(c.total({1, 0, 2}), 10.0);
  EXPECT_DOUBLE_EQ(c.total({0, 1, 2}), 5.0);
}

TEST(Hungarian, SolvesKnown3x3) {
  InterfaceCost c(3);
  // cost matrix rows j, cols p:
  //   [1 2 3]
  //   [2 4 6]
  //   [3 6 9]
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t p = 0; p < 3; ++p)
      c.add(j, p, static_cast<double>((j + 1) * (p + 1)));
  const auto perm = hungarian_assignment(c);
  // Optimal: biggest j gets smallest p: {2,1,0} → 3+4+3 = 10.
  EXPECT_DOUBLE_EQ(c.total(perm), 10.0);
}

TEST(Hungarian, ZeroCostKeepsValidPermutation) {
  InterfaceCost c(5);
  const auto perm = hungarian_assignment(c);
  std::vector<bool> seen(5, false);
  for (auto p : perm) {
    ASSERT_LT(p, 5u);
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(Optimizers, AllReachKnownOptimumOnSmallInstance) {
  Rng rng(1);
  InterfaceCost c(6);
  // Diagonal-heavy cost: identity is the worst assignment.
  for (std::size_t j = 0; j < 6; ++j)
    for (std::size_t p = 0; p < 6; ++p) c.add(j, p, j == p ? 10.0 : 1.0);
  const double optimum = 6.0;
  for (auto algo : {RemapAlgorithm::kGreedySwap, RemapAlgorithm::kGenetic,
                    RemapAlgorithm::kHungarian}) {
    RemapConfig cfg;
    cfg.algorithm = algo;
    const auto perm = optimize_assignment(c, cfg, rng);
    EXPECT_DOUBLE_EQ(c.total(perm), optimum)
        << "algorithm " << static_cast<int>(algo);
  }
}

TEST(Optimizers, NoneReturnsIdentity) {
  Rng rng(2);
  InterfaceCost c(4);
  RemapConfig cfg;
  cfg.algorithm = RemapAlgorithm::kNone;
  const auto perm = optimize_assignment(c, cfg, rng);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(perm[j], j);
}

TEST(FindInterfaces, MlpChain) {
  Rng rng(3);
  RcsSystem sys(clean_rcs(), Rng(4));
  Network net = make_mlp({16, 12, 10, 4}, sys.factory(), rng);
  const auto ifaces = find_remap_interfaces(net);
  ASSERT_EQ(ifaces.size(), 2u);
  EXPECT_EQ(ifaces[0].neurons, 12u);
  EXPECT_EQ(ifaces[1].neurons, 10u);
}

TEST(FindInterfaces, SoftwareOnlyNetworkHasNone) {
  Rng rng(5);
  Network net = make_mlp({16, 12, 4}, software_store_factory(), rng);
  EXPECT_TRUE(find_remap_interfaces(net).empty());
}

TEST(FindInterfaces, FlattenBoundaryRejected) {
  Rng rng(6);
  RcsSystem sys(clean_rcs(), Rng(7));
  VggMiniConfig cfg;
  cfg.in_hw = 8;
  cfg.conv_channels = {8, 8};
  cfg.pool_after = {0, 1};
  cfg.fc_hidden = {16, 8};
  Network net = make_vgg_mini(cfg, sys.factory(), sys.factory(), rng);
  const auto ifaces = find_remap_interfaces(net);
  // conv1→conv2 (channels match), fc1→fc2, fc2→fc3; conv2→fc1 is rejected
  // because flatten changes the neuron count.
  ASSERT_EQ(ifaces.size(), 3u);
  EXPECT_EQ(std::string(ifaces[0].producer->kind()), "conv");
  EXPECT_EQ(std::string(ifaces[1].producer->kind()), "dense");
}

TEST(Remap, MovesPrunedColumnsOntoSa0Columns) {
  // Producer 8×8 with physical column 0 fully SA0. Prune logical column 3
  // entirely. After remap, logical column 3 must sit on physical column 0.
  Rng rng(8);
  RcsSystem sys(clean_rcs(), Rng(9));
  Network net = make_mlp({8, 8, 4}, sys.factory(), rng);
  auto* store =
      dynamic_cast<CrossbarWeightStore*>(&net.matrix_layers()[0]->weights());
  ASSERT_NE(store, nullptr);
  for (std::size_t r = 0; r < 8; ++r)
    store->tile(0, 0).force_fault(r, 0, FaultKind::kStuckAt0);

  DetectedFaults detected(2);
  detected[0] = store->true_fault_matrix();

  // Hand-build a prune state via tiny weights in column 3.
  Tensor w = store->target();
  for (std::size_t r = 0; r < 8; ++r) w.at(r, 3) = 1e-6f * (r % 2);
  store->assign(w);
  PruneConfig pcfg;
  pcfg.fc_sparsity = 0.12;  // ≈ 8 of 64 weights → exactly column 3
  PruneState prune = PruneState::compute(net, pcfg);

  RemapConfig rcfg;
  rcfg.algorithm = RemapAlgorithm::kHungarian;
  const RemapReport report = remap_network(net, detected, prune, rcfg, rng);
  EXPECT_EQ(report.interfaces, 1u);
  EXPECT_LT(report.cost_after, report.cost_before);
  EXPECT_EQ(store->col_perm()[3], 0u);
}

TEST(Remap, ConsumerRowBlocksFollowPermutation) {
  Rng rng(10);
  RcsSystem sys(clean_rcs(), Rng(11));
  Network net = make_mlp({8, 6, 4}, sys.factory(), rng);
  auto* consumer =
      dynamic_cast<CrossbarWeightStore*>(&net.matrix_layers()[1]->weights());
  ASSERT_NE(consumer, nullptr);
  // Make consumer physical row 0 fully faulty so the optimizer wants the
  // most-pruned neuron there.
  for (std::size_t c = 0; c < 4; ++c)
    consumer->tile(0, 0).force_fault(0, c, FaultKind::kStuckAt0);

  DetectedFaults detected(2);
  detected[1] = consumer->true_fault_matrix();
  // Prune consumer row 2 (all 4 weights tiny).
  Tensor w = consumer->target();
  for (std::size_t c = 0; c < 4; ++c) w.at(2, c) = 0.0f;
  consumer->assign(w);
  PruneConfig pcfg;
  pcfg.fc_sparsity = 0.17;  // ≈ 4 of 24 → row 2
  PruneState prune = PruneState::compute(net, pcfg);

  RemapConfig rcfg;
  rcfg.algorithm = RemapAlgorithm::kHungarian;
  remap_network(net, detected, prune, rcfg, rng);
  // Neuron 2's row must now live at physical row 0.
  EXPECT_EQ(consumer->row_perm()[2], 0u);
}

TEST(Remap, NeverInstallsWorsePlacement) {
  Rng rng(12);
  RcsSystem sys(clean_rcs(), Rng(13));
  Network net = make_mlp({8, 8, 4}, sys.factory(), rng);
  // No faults detected → zero cost everywhere → permutations unchanged.
  DetectedFaults detected;
  PruneConfig pcfg;
  PruneState prune = PruneState::compute(net, pcfg);
  RemapConfig rcfg;
  rcfg.algorithm = RemapAlgorithm::kGreedySwap;
  const RemapReport report = remap_network(net, detected, prune, rcfg, rng);
  EXPECT_DOUBLE_EQ(report.cost_before, 0.0);
  EXPECT_DOUBLE_EQ(report.cost_after, 0.0);
  auto* store =
      dynamic_cast<CrossbarWeightStore*>(&net.matrix_layers()[0]->weights());
  for (std::size_t j = 0; j < 8; ++j) EXPECT_EQ(store->col_perm()[j], j);
}

TEST(Remap, Sa1UnderPrunedWeightCostsTwo) {
  // An SA1 cell reads ±w_max, so it costs 2 under a pruned weight (which
  // should read 0) and 1 under an unpruned one (merely distorted).
  Rng rng(14);
  RcsSystem sys(clean_rcs(), Rng(15));
  Network net = make_mlp({2, 2, 2}, sys.factory(), rng);
  auto* store =
      dynamic_cast<CrossbarWeightStore*>(&net.matrix_layers()[0]->weights());
  store->tile(0, 0).force_fault(0, 0, FaultKind::kStuckAt1);
  DetectedFaults detected(2);
  detected[0] = store->true_fault_matrix();
  Tensor w = store->target();
  w.at(0, 0) = 0.0f;  // prune the colliding weight
  w.at(1, 0) = 1e-6f;
  store->assign(w);
  PruneConfig pcfg;
  pcfg.fc_sparsity = 0.5;
  PruneState prune = PruneState::compute(net, pcfg);
  ASSERT_TRUE(prune.mask_for(0)->at(0, 0));
  ASSERT_FALSE(prune.mask_for(0)->at(0, 1));
  const auto ifaces = find_remap_interfaces(net);
  ASSERT_EQ(ifaces.size(), 1u);
  const InterfaceCost cost = build_interface_cost(ifaces[0], detected, prune);
  EXPECT_DOUBLE_EQ(cost.at(0, 0), 2.0);  // pruned neuron 0 on the SA1 cell
  EXPECT_DOUBLE_EQ(cost.at(1, 0), 1.0);  // unpruned neuron 1 on it
  EXPECT_DOUBLE_EQ(cost.at(0, 1), 0.0);  // physical column 1 is healthy
}

/// Remap of an 8-8-4 MLP whose producer column 0 is all SA0 (cost 2 per
/// unpruned cell) and whose logical column 3 has its first `pruned` weights
/// masked: moving column 3 onto physical column 0 cuts the cost from 16 to
/// 16 − 2·pruned. Returns the report and the producer's column permutation.
std::pair<RemapReport, std::vector<std::size_t>> remap_with_pruned_cells(
    std::size_t pruned) {
  Rng rng(18);
  RcsSystem sys(clean_rcs(), Rng(19));
  Network net = make_mlp({8, 8, 4}, sys.factory(), rng);
  auto* store =
      dynamic_cast<CrossbarWeightStore*>(&net.matrix_layers()[0]->weights());
  for (std::size_t r = 0; r < 8; ++r)
    store->tile(0, 0).force_fault(r, 0, FaultKind::kStuckAt0);
  DetectedFaults detected(2);
  detected[0] = store->true_fault_matrix();
  PruneMask mask{8, 8, std::vector<std::uint8_t>(64, 0)};
  for (std::size_t r = 0; r < pruned; ++r) mask.pruned[r * 8 + 3] = 1;
  PruneState prune;
  prune.merge_mask(0, mask);
  RemapConfig rcfg;
  rcfg.algorithm = RemapAlgorithm::kHungarian;
  const RemapReport report = remap_network(net, detected, prune, rcfg, rng);
  return {report, store->col_perm()};
}

TEST(Remap, SmallCutIsNotInstalled) {
  std::vector<std::size_t> ident(8);
  std::iota(ident.begin(), ident.end(), 0);
  // One pruned cell: the best placement cuts 16 → 14 (12.5 %), below the
  // 20 % a re-map must save, so nothing moves.
  const auto [small, kept] = remap_with_pruned_cells(1);
  EXPECT_DOUBLE_EQ(small.cost_before, 16.0);
  EXPECT_DOUBLE_EQ(small.cost_after, small.cost_before);
  EXPECT_EQ(kept, ident);
  // Two pruned cells: 16 → 12 (25 %) clears the bar and is installed.
  const auto [large, moved] = remap_with_pruned_cells(2);
  EXPECT_DOUBLE_EQ(large.cost_before, 16.0);
  EXPECT_DOUBLE_EQ(large.cost_after, 12.0);
  EXPECT_EQ(moved[3], 0u);
}

TEST(Remap, GeneticImprovesOverRandomOnStructuredCost) {
  Rng rng(16);
  InterfaceCost c(24);
  Rng crng(17);
  for (std::size_t j = 0; j < 24; ++j)
    for (std::size_t p = 0; p < 24; ++p)
      c.add(j, p, crng.uniform(0.0, 10.0));
  RemapConfig cfg;
  cfg.algorithm = RemapAlgorithm::kGenetic;
  const auto ga = optimize_assignment(c, cfg, rng);
  cfg.algorithm = RemapAlgorithm::kHungarian;
  const auto opt = optimize_assignment(c, cfg, rng);
  std::vector<std::size_t> ident(24);
  std::iota(ident.begin(), ident.end(), 0);
  EXPECT_LE(c.total(ga), c.total(ident));
  EXPECT_GE(c.total(ga), c.total(opt));  // Hungarian is the lower bound
  // GA should close most of the gap between identity and optimal.
  EXPECT_LT(c.total(ga) - c.total(opt),
            0.5 * (c.total(ident) - c.total(opt)));
}

/// The per-cell collision penalty, as remap.hpp states it.
double pairwise_cell_cost(bool pruned, FaultKind fault) {
  if (fault == FaultKind::kNone) return 0.0;
  if (fault == FaultKind::kStuckAt0) return pruned ? 0.0 : 2.0;
  return pruned ? 2.0 : 1.0;
}

/// The interface cost summed cell by cell: for every (j, p), each faulty
/// cell of slot p adds its penalty under neuron j's weight.
InterfaceCost pairwise_cost(const RemapInterface& iface,
                            const DetectedFaults& detected,
                            const PruneState& prune) {
  const std::size_t m = iface.neurons;
  InterfaceCost cost(m);
  if (const auto* xp = dynamic_cast<const CrossbarWeightStore*>(
          &iface.producer->weights())) {
    if (const FaultMatrix* fm = detected_for(detected, iface.layer)) {
      const PruneMask* mask = prune.mask_for(iface.layer);
      const auto& row_perm = xp->row_perm();
      for (std::size_t p = 0; p < m; ++p) {
        for (std::size_t j = 0; j < m; ++j) {
          double c = 0.0;
          for (std::size_t i = 0; i < xp->rows(); ++i) {
            const bool pruned = mask != nullptr && mask->at(i, j);
            c += pairwise_cell_cost(pruned, fm->at(row_perm[i], p));
          }
          cost.add(j, p, c);
        }
      }
    }
  }
  if (const auto* xc = dynamic_cast<const CrossbarWeightStore*>(
          &iface.consumer->weights())) {
    if (const FaultMatrix* fm = detected_for(detected, iface.layer + 1)) {
      const PruneMask* mask = prune.mask_for(iface.layer + 1);
      const std::size_t b = iface.consumer->rows_per_in_neuron();
      const auto& col_perm = xc->col_perm();
      for (std::size_t p = 0; p < m; ++p) {
        for (std::size_t j = 0; j < m; ++j) {
          double c = 0.0;
          for (std::size_t bb = 0; bb < b; ++bb) {
            for (std::size_t col = 0; col < xc->cols(); ++col) {
              const bool pruned = mask != nullptr && mask->at(j * b + bb, col);
              c += pairwise_cell_cost(pruned,
                                      fm->at(p * b + bb, col_perm[col]));
            }
          }
          cost.add(j, p, c);
        }
      }
    }
  }
  return cost;
}

/// Stuck-at faults on about a fifth of the cells, soft pins on a few more.
FaultMatrix random_faults(std::size_t rows, std::size_t cols, Rng& rng) {
  FaultMatrix fm(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double u = rng.uniform();
      if (u < 0.10) fm.set(r, c, FaultKind::kStuckAt0);
      else if (u < 0.20) fm.set(r, c, FaultKind::kStuckAt1);
      else if (u < 0.22) fm.set(r, c, FaultKind::kSoftStuck0);
      else if (u < 0.24) fm.set(r, c, FaultKind::kSoftStuck1);
    }
  }
  return fm;
}

PruneMask random_mask(std::size_t rows, std::size_t cols, Rng& rng) {
  PruneMask mask{rows, cols, std::vector<std::uint8_t>(rows * cols, 0)};
  for (auto& b : mask.pruned) b = rng.bernoulli(0.5) ? 1 : 0;
  return mask;
}

std::vector<std::size_t> shuffled(std::size_t n, Rng& rng) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), 0);
  rng.shuffle(p);
  return p;
}

TEST(Remap, CountedCostMatchesPairwiseSum) {
  // Three two-layer nets, each one re-orderable interface: a dense
  // producer of 150 rows on crossbars (consumer in software), a conv
  // consumer with b = 9 on crossbars (producer in software), and two
  // crossbar convs. Every crossbar store gets a non-identity placement and
  // a random detected map; masks on neither, either or both sides.
  struct Net {
    const char* name;
    std::function<Network(RcsSystem&, Rng&)> build;
  };
  const Net nets[] = {
      {"producer-only",
       [](RcsSystem& sys, Rng& rng) {
         Network n;
         n.add(std::make_unique<Dense>("p", 150, 20, sys.factory(), rng));
         n.add(std::make_unique<Dense>("c", 20, 7, software_store_factory(), rng));
         return n;
       }},
      {"consumer-only conv",
       [](RcsSystem& sys, Rng& rng) {
         Network n;
         n.add(std::make_unique<Conv2D>("p", 3, 6, 6, 12, 3, 1, 1, software_store_factory(),
                                        rng));
         n.add(std::make_unique<Conv2D>("c", 12, 6, 6, 10, 3, 1, 1, sys.factory(),
                                        rng));
         return n;
       }},
      {"both conv",
       [](RcsSystem& sys, Rng& rng) {
         Network n;
         n.add(std::make_unique<Conv2D>("p", 8, 6, 6, 16, 3, 1, 1, sys.factory(),
                                        rng));
         n.add(std::make_unique<Conv2D>("c", 16, 6, 6, 9, 3, 1, 1, sys.factory(),
                                        rng));
         return n;
       }},
  };
  std::uint64_t seed = 30;
  for (const Net& spec : nets) {
    for (const bool mask_p : {false, true}) {
      for (const bool mask_c : {false, true}) {
        SCOPED_TRACE(::testing::Message() << spec.name << ", masks "
                                          << mask_p << mask_c);
        Rng rng(seed++);
        RcsSystem sys(clean_rcs(), Rng(seed++));
        Network net = spec.build(sys, rng);
        const auto ifaces = find_remap_interfaces(net);
        ASSERT_EQ(ifaces.size(), 1u);
        const RemapInterface& iface = ifaces[0];
        const std::size_t m = iface.neurons;
        const std::size_t b = iface.consumer->rows_per_in_neuron();
        DetectedFaults detected(2);
        PruneState prune;
        if (auto* xp = dynamic_cast<CrossbarWeightStore*>(
                &iface.producer->weights())) {
          xp->set_permutations(shuffled(xp->rows(), rng), shuffled(m, rng));
          detected[0] = random_faults(xp->rows(), m, rng);
        }
        if (auto* xc = dynamic_cast<CrossbarWeightStore*>(
                &iface.consumer->weights())) {
          const std::vector<std::size_t> blocks = shuffled(m, rng);
          std::vector<std::size_t> rows(m * b);
          for (std::size_t j = 0; j < m; ++j)
            for (std::size_t bb = 0; bb < b; ++bb)
              rows[j * b + bb] = blocks[j] * b + bb;
          xc->set_permutations(rows, shuffled(xc->cols(), rng));
          detected[1] = random_faults(xc->rows(), xc->cols(), rng);
        }
        const Tensor& wp = iface.producer->weights().target();
        const Tensor& wc = iface.consumer->weights().target();
        if (mask_p) prune.merge_mask(0, random_mask(wp.dim(0), m, rng));
        if (mask_c)
          prune.merge_mask(1, random_mask(wc.dim(0), wc.dim(1), rng));

        const InterfaceCost got = build_interface_cost(iface, detected, prune);
        const InterfaceCost want = pairwise_cost(iface, detected, prune);
        ASSERT_EQ(got.size(), m);
        double total = 0.0;
        for (std::size_t j = 0; j < m; ++j) {
          for (std::size_t p = 0; p < m; ++p) {
            EXPECT_EQ(got.at(j, p), want.at(j, p)) << "j " << j << " p " << p;
            total += want.at(j, p);
          }
        }
        EXPECT_GT(total, 0.0);
      }
    }
  }
}

}  // namespace
}  // namespace refit
