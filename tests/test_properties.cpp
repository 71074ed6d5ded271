// Parameterized property tests (TEST_P sweeps) over the simulator's
// invariants: device-model roundtrips, detector guarantees across sizes
// and distributions, GEMM algebra across shapes, assignment-solver
// ordering across random instances, and pruning exactness across
// sparsities.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <tuple>

#include "core/prune.hpp"
#include "core/remap.hpp"
#include "detect/quiescent_detector.hpp"
#include "nn/models.hpp"
#include "rram/faults.hpp"
#include "tensor/ops.hpp"

namespace refit {
namespace {

// ---------------------------------------------------------------------
// Crossbar write/read roundtrip across level counts and noise levels.
class CrossbarRoundtrip
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(CrossbarRoundtrip, EveryLevelReadsBackExactly) {
  const auto [levels, noise] = GetParam();
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 4;
  cfg.levels = levels;
  cfg.write_noise_sigma = noise;
  Crossbar xb(cfg, EnduranceModel::unlimited(), Rng(1));
  const double gap = cfg.level_gap();
  for (std::size_t lvl = 0; lvl < levels; ++lvl) {
    xb.write(0, 0, static_cast<double>(lvl) * gap);
    // Noise is well below half a level gap for all tested settings, so
    // the quantized read must recover the written level exactly.
    EXPECT_EQ(xb.read_level(0, 0), static_cast<int>(lvl))
        << "levels=" << levels << " noise=" << noise;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LevelNoiseSweep, CrossbarRoundtrip,
    ::testing::Combine(::testing::Values(2, 4, 8, 16, 32),
                       ::testing::Values(0.0, 0.002, 0.005)));

// ---------------------------------------------------------------------
// Fault injection hits its quota for every distribution and fraction.
class FaultQuota
    : public ::testing::TestWithParam<
          std::tuple<SpatialDistribution, double>> {};

TEST_P(FaultQuota, ExactCount) {
  const auto [dist, fraction] = GetParam();
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 48;
  Crossbar xb(cfg, EnduranceModel::unlimited(), Rng(2));
  FaultInjectionConfig fc;
  fc.fraction = fraction;
  fc.spatial = dist;
  Rng rng(3);
  inject_fabrication_faults(xb, fc, rng);
  const auto expected = static_cast<std::size_t>(
      std::llround(fraction * 48 * 48));
  EXPECT_EQ(xb.fault_count(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    DistributionSweep, FaultQuota,
    ::testing::Combine(::testing::Values(SpatialDistribution::kUniform,
                                         SpatialDistribution::kClustered,
                                         SpatialDistribution::kLineDefects),
                       ::testing::Values(0.05, 0.1, 0.3, 0.5)));

// ---------------------------------------------------------------------
// Detector guarantees across crossbar size, test size, and distribution:
// recall stays high, predictions stay inside the candidate universe, and
// the cycle count respects the ceil(Er/Tr)+ceil(Ec/Tc) bound per pass.
class DetectorSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, SpatialDistribution>> {};

TEST_P(DetectorSweep, RecallAndCycleBound) {
  const auto [n, tr, dist] = GetParam();
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = n;
  cfg.levels = 8;
  cfg.write_noise_sigma = 0.01;
  Crossbar xb(cfg, EnduranceModel::unlimited(), Rng(4 + n + tr));
  Rng rng(5 + n * 31 + tr);
  randomize_crossbar_content(xb, 0.3, 0.2, rng);
  FaultInjectionConfig fc;
  fc.fraction = 0.10;
  fc.spatial = dist;
  inject_fabrication_faults(xb, fc, rng);

  DetectorConfig dc;
  dc.test_rows_per_cycle = tr;
  const DetectionOutcome out = QuiescentVoltageDetector(dc).detect(xb);
  const ConfusionCounts cc = evaluate_detection(xb, out.predicted);
  EXPECT_GT(cc.recall(), 0.85);
  EXPECT_GT(cc.precision(), 0.1);
  // Two passes, each at most ceil(n/tr) row cycles + ceil(n/tr) col cycles.
  const std::size_t bound = 2 * 2 * ((n + tr - 1) / tr);
  EXPECT_LE(out.cycles, bound);
  EXPECT_EQ(out.device_writes, 2 * out.cells_tested);
}

INSTANTIATE_TEST_SUITE_P(
    SizeTestsizeDistSweep, DetectorSweep,
    ::testing::Combine(::testing::Values(32, 64, 96),
                       ::testing::Values(4, 8, 16),
                       ::testing::Values(SpatialDistribution::kUniform,
                                         SpatialDistribution::kClustered)));

// ---------------------------------------------------------------------
// GEMM algebra across shapes: distributivity and transpose identities.
class GemmShapes
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(GemmShapes, DistributesOverAddition) {
  const auto [m, k, n] = GetParam();
  Rng rng(6);
  const Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  const Tensor c = Tensor::randn({k, n}, rng);
  Tensor bc = b;
  bc += c;
  const Tensor lhs = matmul(a, bc);
  Tensor rhs = matmul(a, b);
  rhs += matmul(a, c);
  for (std::size_t i = 0; i < lhs.numel(); ++i)
    EXPECT_NEAR(lhs[i], rhs[i], 1e-3);
}

TEST_P(GemmShapes, TransposeIdentity) {
  // (A·B)ᵀ == Bᵀ·Aᵀ
  const auto [m, k, n] = GetParam();
  Rng rng(7);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  const Tensor lhs = transpose(matmul(a, b));
  const Tensor rhs = matmul(transpose(b), transpose(a));
  for (std::size_t i = 0; i < lhs.numel(); ++i)
    EXPECT_NEAR(lhs[i], rhs[i], 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, GemmShapes,
    ::testing::Values(std::tuple<std::size_t, std::size_t, std::size_t>{1, 1, 1},
                      std::tuple<std::size_t, std::size_t, std::size_t>{3, 5, 7},
                      std::tuple<std::size_t, std::size_t, std::size_t>{8, 8, 8},
                      std::tuple<std::size_t, std::size_t, std::size_t>{17, 3, 29},
                      std::tuple<std::size_t, std::size_t, std::size_t>{2, 64, 2}));

// ---------------------------------------------------------------------
// Assignment solvers across random instances: every solver returns a valid
// permutation, never beats the exact optimum, and never loses to identity
// (greedy/GA start from it or are checked against it by the caller).
class SolverOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverOrdering, HungarianIsLowerBound) {
  const std::uint64_t seed = GetParam();
  Rng crng(seed);
  const std::size_t m = 12 + seed % 9;
  InterfaceCost cost(m);
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t p = 0; p < m; ++p)
      cost.add(j, p, crng.uniform(0.0, 5.0));

  Rng rng(seed + 1000);
  RemapConfig cfg;
  cfg.algorithm = RemapAlgorithm::kHungarian;
  const auto exact = optimize_assignment(cost, cfg, rng);
  cfg.algorithm = RemapAlgorithm::kGreedySwap;
  const auto greedy = optimize_assignment(cost, cfg, rng);
  cfg.algorithm = RemapAlgorithm::kGenetic;
  const auto ga = optimize_assignment(cost, cfg, rng);

  for (const auto& perm : {exact, greedy, ga}) {
    std::vector<bool> seen(m, false);
    for (const std::size_t p : perm) {
      ASSERT_LT(p, m);
      EXPECT_FALSE(seen[p]);
      seen[p] = true;
    }
  }
  std::vector<std::size_t> ident(m);
  std::iota(ident.begin(), ident.end(), 0);
  EXPECT_LE(cost.total(exact), cost.total(greedy) + 1e-9);
  EXPECT_LE(cost.total(exact), cost.total(ga) + 1e-9);
  EXPECT_LE(cost.total(greedy), cost.total(ident) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SolverOrdering,
                         ::testing::Range<std::uint64_t>(0, 12));

// ---------------------------------------------------------------------
// Pruning exactness across sparsities.
class PruneSweep : public ::testing::TestWithParam<double> {};

TEST_P(PruneSweep, ExactFractionAndIdempotentApply) {
  const double sparsity = GetParam();
  Rng rng(8);
  Network net = make_mlp({40, 25}, software_store_factory(), rng);
  PruneConfig cfg;
  cfg.fc_sparsity = sparsity;
  const PruneState st = PruneState::compute(net, cfg);
  MatrixLayer* ml = net.matrix_layers()[0];
  const PruneMask* mask = st.mask_for(0);
  ASSERT_NE(mask, nullptr);
  const auto expected =
      static_cast<std::size_t>(sparsity * 40 * 25);
  EXPECT_EQ(mask->count_pruned(), expected);

  st.apply_to(net);
  const Tensor after_once = ml->weights().target();
  st.apply_to(net);  // idempotent
  const Tensor after_twice = ml->weights().target();
  for (std::size_t i = 0; i < after_once.numel(); ++i)
    EXPECT_EQ(after_once[i], after_twice[i]);
}

INSTANTIATE_TEST_SUITE_P(SparsitySweep, PruneSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9));

// ---------------------------------------------------------------------
// CrossbarWeightStore invariant across permutation round trips: applying
// a permutation and its inverse restores the logical effective weights
// (up to requantization of the rewritten cells).
class PermutationRoundtrip : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PermutationRoundtrip, InverseRestoresEffective) {
  const std::uint64_t seed = GetParam();
  RcsConfig cfg;
  cfg.tile_rows = cfg.tile_cols = 16;
  cfg.levels = 64;
  cfg.write_noise_sigma = 0.0;
  cfg.inject_fabrication = false;
  Rng wrng(seed);
  CrossbarWeightStore store(cfg, Tensor::randn({12, 12}, wrng, 0.05f),
                            Rng(seed + 1));
  const Tensor before = store.effective();

  std::vector<std::size_t> rp(12), cp(12);
  std::iota(rp.begin(), rp.end(), 0);
  std::iota(cp.begin(), cp.end(), 0);
  Rng prng(seed + 2);
  prng.shuffle(rp);
  prng.shuffle(cp);
  store.set_permutations(rp, cp);
  std::vector<std::size_t> id(12);
  std::iota(id.begin(), id.end(), 0);
  store.set_permutations(id, id);

  const Tensor after = store.effective();
  for (std::size_t i = 0; i < before.numel(); ++i)
    EXPECT_NEAR(before[i], after[i], store.weight_max() / 60.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PermutationRoundtrip,
                         ::testing::Range<std::uint64_t>(0, 6));

}  // namespace
}  // namespace refit
