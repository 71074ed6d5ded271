// Tests for the crossbar-backed weight store (src/rcs/crossbar_store.hpp):
// weight↔conductance mapping, fault semantics, tiling, permutations,
// endurance bookkeeping, and the RcsSystem registry.
#include "rcs/crossbar_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "rcs/rcs_system.hpp"
#include "tensor/ops.hpp"

namespace refit {
namespace {

RcsConfig clean_config(std::size_t levels = 64) {
  RcsConfig cfg;
  cfg.tile_rows = 16;
  cfg.tile_cols = 16;
  cfg.levels = levels;  // fine-grained to keep quantization error tiny
  cfg.write_noise_sigma = 0.0;
  cfg.inject_fabrication = false;
  return cfg;
}

Tensor ramp(std::size_t r, std::size_t c, float scale = 0.01f) {
  Tensor t({r, c});
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = scale * (static_cast<float>(i % 17) - 8.0f);
  return t;
}

TEST(CrossbarStore, EffectiveApproximatesTarget) {
  const Tensor init = ramp(8, 8);
  CrossbarWeightStore store(clean_config(256), init, Rng(1));
  const Tensor& eff = store.effective();
  for (std::size_t i = 0; i < init.numel(); ++i)
    EXPECT_NEAR(eff[i], init[i], store.weight_max() / 255.0 + 1e-6);
}

TEST(CrossbarStore, QuantizationAtCoarseLevels) {
  const Tensor init = ramp(4, 4);
  CrossbarWeightStore store(clean_config(8), init, Rng(2));
  const Tensor& eff = store.effective();
  const double gap = store.weight_max() / 7.0;
  for (std::size_t i = 0; i < init.numel(); ++i) {
    // Effective = sign · (nearest of 8 magnitude levels) · w_max.
    EXPECT_NEAR(std::fabs(eff[i]),
                std::round(std::fabs(init[i]) / gap) * gap, 1e-5);
    if (eff[i] != 0.0f) {
      EXPECT_EQ(eff[i] > 0.0f, init[i] > 0.0f) << "sign preserved";
    }
  }
}

TEST(CrossbarStore, ApplyDeltaSkipsZeros) {
  const Tensor init = ramp(4, 4);
  CrossbarWeightStore store(clean_config(), init, Rng(3));
  const std::uint64_t w0 = store.write_count();
  Tensor delta({4, 4});
  delta.at(1, 1) = 0.01f;
  delta.at(2, 3) = -0.02f;
  store.apply_delta(delta);
  EXPECT_EQ(store.write_count(), w0 + 2);
  EXPECT_NEAR(store.target().at(1, 1), init.at(1, 1) + 0.01f, 1e-6);
}

TEST(CrossbarStore, TargetClipsAtWeightMax) {
  const Tensor init = ramp(4, 4);
  CrossbarWeightStore store(clean_config(), init, Rng(4));
  Tensor delta({4, 4});
  delta.at(0, 0) = 1e6f;
  store.apply_delta(delta);
  EXPECT_FLOAT_EQ(store.target().at(0, 0),
                  static_cast<float>(store.weight_max()));
}

TEST(CrossbarStore, Sa0ForcesZeroWeight) {
  const Tensor init = ramp(4, 4, 0.05f);
  CrossbarWeightStore store(clean_config(), init, Rng(5));
  store.tile(0, 0).force_fault(1, 1, FaultKind::kStuckAt0);
  EXPECT_FLOAT_EQ(store.effective().at(1, 1), 0.0f);
}

TEST(CrossbarStore, Sa1ForcesMaxMagnitudeWithSign) {
  Tensor init = ramp(4, 4, 0.05f);
  init.at(2, 2) = -0.01f;
  CrossbarWeightStore store(clean_config(), init, Rng(6));
  store.tile(0, 0).force_fault(2, 2, FaultKind::kStuckAt1);
  EXPECT_FLOAT_EQ(store.effective().at(2, 2),
                  -static_cast<float>(store.weight_max()));
}

TEST(CrossbarStore, TilingCoversMatrixExactly) {
  const Tensor init = ramp(40, 25);
  CrossbarWeightStore store(clean_config(), init, Rng(7));
  EXPECT_EQ(store.tile_grid_rows(), 3u);  // 16+16+8
  EXPECT_EQ(store.tile_grid_cols(), 2u);  // 16+9
  EXPECT_EQ(store.tile(2, 1).rows(), 8u);
  EXPECT_EQ(store.tile(2, 1).cols(), 9u);
  std::size_t cells = 0;
  for (std::size_t ti = 0; ti < 3; ++ti)
    for (std::size_t tj = 0; tj < 2; ++tj)
      cells += store.tile(ti, tj).rows() * store.tile(ti, tj).cols();
  EXPECT_EQ(cells, 40u * 25u);
}

TEST(CrossbarStore, FabricationFaultsRoughlyMatchFraction) {
  RcsConfig cfg = clean_config();
  cfg.inject_fabrication = true;
  cfg.fabrication.fraction = 0.10;
  CrossbarWeightStore store(cfg, ramp(64, 64), Rng(8));
  EXPECT_NEAR(store.fault_fraction(), 0.10, 0.02);
}

TEST(CrossbarStore, PermutationRelocatesCells) {
  const Tensor init = ramp(6, 6, 0.05f);
  CrossbarWeightStore store(clean_config(256), init, Rng(9));
  // Make physical column 0 entirely SA0.
  for (std::size_t r = 0; r < 6; ++r)
    store.tile(0, 0).force_fault(r, 0, FaultKind::kStuckAt0);
  // Initially logical column 0 reads zero.
  EXPECT_FLOAT_EQ(store.effective().at(2, 0), 0.0f);
  // Move logical column 0 to physical column 5 and vice versa.
  std::vector<std::size_t> rp(6), cp(6);
  std::iota(rp.begin(), rp.end(), 0);
  std::iota(cp.begin(), cp.end(), 0);
  std::swap(cp[0], cp[5]);
  store.set_permutations(rp, cp);
  // Logical column 0 now lives on healthy cells…
  EXPECT_NEAR(store.effective().at(2, 0), init.at(2, 0),
              store.weight_max() / 100.0);
  // …and logical column 5 absorbed the SA0 column.
  EXPECT_FLOAT_EQ(store.effective().at(2, 5), 0.0f);
}

TEST(CrossbarStore, PermutationValidation) {
  CrossbarWeightStore store(clean_config(), ramp(4, 4), Rng(10));
  std::vector<std::size_t> rp{0, 1, 2, 3};
  EXPECT_THROW(store.set_permutations(rp, {0, 0, 1, 2}), CheckError);
  EXPECT_THROW(store.set_permutations({0, 1, 2}, rp), CheckError);
}

TEST(CrossbarStore, IdentityPermutationCostsNoWrites) {
  CrossbarWeightStore store(clean_config(), ramp(4, 4), Rng(11));
  const std::uint64_t w0 = store.write_count();
  std::vector<std::size_t> id{0, 1, 2, 3};
  store.set_permutations(id, id);
  EXPECT_EQ(store.write_count(), w0);
}

TEST(CrossbarStore, PermutationRewritesMovedCellsOnly) {
  CrossbarWeightStore store(clean_config(), ramp(4, 4), Rng(12));
  const std::uint64_t w0 = store.write_count();
  std::vector<std::size_t> rp{0, 1, 2, 3}, cp{1, 0, 2, 3};
  store.set_permutations(rp, cp);
  EXPECT_EQ(store.write_count(), w0 + 8);  // two moved columns × 4 rows
}

TEST(CrossbarStore, ExpectedGFollowsPermutation) {
  Tensor init({2, 2}, std::vector<float>{0.1f, 0.0f, 0.0f, 0.0f});
  CrossbarWeightStore store(clean_config(256), init, Rng(13));
  EXPECT_GT(store.expected_g(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(store.expected_g(0, 1), 0.0);
  store.set_permutations({0, 1}, {1, 0});
  // Logical (0,0) now lives at physical (0,1).
  EXPECT_GT(store.expected_g(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(store.expected_g(0, 0), 0.0);
}

TEST(CrossbarStore, CellWriteCountTracksLogicalCell) {
  CrossbarWeightStore store(clean_config(), ramp(4, 4), Rng(14));
  Tensor delta({4, 4});
  delta.at(0, 0) = 0.01f;
  store.apply_delta(delta);
  store.apply_delta(delta);
  EXPECT_EQ(store.cell_write_count(0, 0), 3u);  // init + 2 updates
  EXPECT_EQ(store.cell_write_count(1, 1), 1u);  // init only
}

TEST(CrossbarStore, TrueFaultMatrixMatchesTiles) {
  RcsConfig cfg = clean_config();
  cfg.inject_fabrication = true;
  cfg.fabrication.fraction = 0.2;
  CrossbarWeightStore store(cfg, ramp(20, 20), Rng(15));
  const FaultMatrix fm = store.true_fault_matrix();
  EXPECT_EQ(fm.count_faulty(), store.fault_count());
  for (std::size_t r = 0; r < 20; ++r)
    for (std::size_t c = 0; c < 20; ++c)
      EXPECT_EQ(fm.at(r, c), store.true_fault(r, c));
}

TEST(RcsSystem, FactoryRegistersStores) {
  RcsSystem sys(clean_config(), Rng(16));
  auto factory = sys.factory();
  auto s1 = factory("layer1", ramp(8, 8));
  auto s2 = factory("layer2", ramp(4, 4));
  EXPECT_EQ(sys.stores().size(), 2u);
  EXPECT_EQ(sys.cell_count(), 64u + 16u);
  EXPECT_GT(sys.total_device_writes(), 0u);
  EXPECT_DOUBLE_EQ(sys.fault_fraction(), 0.0);
}

TEST(RcsSystem, AggregateWriteStats) {
  RcsSystem sys(clean_config(), Rng(17));
  auto factory = sys.factory();
  auto s = factory("l", ramp(4, 4));
  const double before = sys.mean_writes_per_cell();
  Tensor delta({4, 4}, 0.01f);
  s->apply_delta(delta);
  EXPECT_GT(sys.mean_writes_per_cell(), before);
}

// ---- Fused faulty forward -------------------------------------------------

struct PoolGuard {
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

bool same_bits(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data(), y.data(), x.numel() * sizeof(float)) == 0;
}

TEST(CrossbarStore, FusedForwardBitExactUnderInjectedFaults) {
  PoolGuard pool_guard;
  // 40×24 on 16×16 tiles: a 3×2 grid with shrunken edge tiles, so the
  // packed scatter crosses tile boundaries in both dimensions.
  const Tensor init = ramp(40, 24, 0.03f);
  CrossbarWeightStore store(clean_config(), init, Rng(21));
  store.tile(0, 0).force_fault(1, 2, FaultKind::kStuckAt0);
  store.tile(0, 1).force_fault(3, 3, FaultKind::kStuckAt1);
  store.tile(1, 0).force_fault(0, 0, FaultKind::kStuckAt1);
  store.tile(2, 1).force_fault(5, 7, FaultKind::kStuckAt0);

  Rng rng(22);
  const Tensor x = Tensor::randn({5, 40}, rng);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::set_global_threads(threads);
    const Tensor fused = store.forward_matmul(x);
    const Tensor ref = matmul(x, store.effective());
    EXPECT_TRUE(same_bits(fused, ref)) << "threads=" << threads;
  }
}

TEST(CrossbarStore, FusedForwardTracksWritesAndPermutations) {
  PoolGuard pool_guard;
  const Tensor init = ramp(32, 32, 0.02f);
  CrossbarWeightStore store(clean_config(), init, Rng(23));
  Rng rng(24);
  const Tensor x = Tensor::randn({3, 32}, rng);

  // Clean state first (primes the packed cache), then dirty one tile via a
  // delta — the incremental repack must track it.
  EXPECT_TRUE(same_bits(store.forward_matmul(x), matmul(x, store.effective())));
  Tensor delta({32, 32});
  delta.at(2, 3) = 0.05f;
  delta.at(20, 20) = -0.04f;
  store.apply_delta(delta);
  EXPECT_TRUE(same_bits(store.forward_matmul(x), matmul(x, store.effective())));

  // Non-identity permutations: the packed scatter must follow the logical
  // mapping exactly as the materialized rebuild does.
  std::vector<std::size_t> rp(32), cp(32);
  std::iota(rp.begin(), rp.end(), 0);
  std::iota(cp.begin(), cp.end(), 0);
  std::reverse(rp.begin(), rp.end());
  std::swap(cp[0], cp[31]);
  std::swap(cp[5], cp[17]);
  store.set_permutations(rp, cp);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::set_global_threads(threads);
    EXPECT_TRUE(same_bits(store.forward_matmul(x),
                          matmul(x, store.effective())))
        << "threads=" << threads;
  }
}

std::uint64_t fused_pack_tiles() {
  for (const obs::MetricSnapshot& m :
       obs::MetricsRegistry::instance().snapshot()) {
    if (m.name == "store.fused_pack_tiles") return m.count;
  }
  return 0;
}

TEST(CrossbarStore, WriteThroughKeepsThePanelCurrent) {
  PoolGuard pool_guard;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  const bool metrics_were_on = reg.enabled();
  reg.set_enabled(true);
  for (const EncodingKind kind :
       {EncodingKind::kSingleCell, EncodingKind::kDifferentialPair}) {
    RcsConfig cfg = clean_config();
    cfg.write_noise_sigma = 0.02;
    cfg.inject_fabrication = true;
    cfg.fabrication.fraction = 0.05;
    cfg.endurance = EnduranceModel::gaussian(5.0, 2.0);
    cfg.encoding = kind;
    CrossbarWeightStore store(cfg, ramp(40, 24, 0.03f), Rng(31));
    std::vector<std::size_t> rp(40), cp(24);
    std::iota(rp.begin(), rp.end(), 0);
    std::iota(cp.begin(), cp.end(), 0);
    std::reverse(rp.begin(), rp.end());
    std::swap(cp[0], cp[20]);
    store.set_permutations(rp, cp);
    Rng rng(32);
    const Tensor x = Tensor::randn({4, 40}, rng);
    (void)store.forward_matmul(x);  // packs every tile once
    for (int step = 0; step < 6; ++step) {
      Tensor delta({40, 24});
      for (std::size_t i = 0; i < delta.numel(); ++i) {
        if (rng.bernoulli(0.5)) delta[i] = static_cast<float>(rng.normal(0.0, 0.02));
      }
      UpdatePolicy policy;
      policy.threshold = 0.005;
      policy.full_write = step % 2 == 1;
      const std::uint64_t packs = fused_pack_tiles();
      (void)store.apply_update(delta, policy);
      const Tensor fused = store.forward_matmul(x);
      EXPECT_EQ(fused_pack_tiles(), packs) << "step " << step;
      EXPECT_TRUE(same_bits(fused, matmul(x, store.effective())))
          << "encoding " << static_cast<int>(kind) << ", step " << step;
    }
    EXPECT_GT(store.wearout_fault_count(), 0u);
  }
  reg.set_enabled(metrics_were_on);
}

/// The forward of a copy of `store` restored from its checkpoint: no cache
/// survives the copy, so it reads the device state afresh.
Tensor restored_forward(const CrossbarWeightStore& store, const Tensor& x) {
  std::stringstream ss;
  store.save_state(ss);
  CrossbarWeightStore copy(store.config(), Tensor(store.shape()), Rng(99));
  copy.restore_state(ss);
  return copy.forward_matmul(x);
}

TEST(CrossbarStore, TileMutationNeedsNoCallToTheStore) {
  const Tensor init = ramp(40, 24, 0.03f);
  CrossbarWeightStore store(clean_config(), init, Rng(41));
  Rng rng(42);
  const Tensor x = Tensor::randn({3, 40}, rng);
  Crossbar& kept = store.tile(1, 1);
  const Tensor before = store.forward_matmul(x);  // the panel is current
  const std::size_t faults = store.fault_count();

  // Logical (1, 2) sits on tile (0, 0) at the identity mapping.
  ASSERT_NE(init.at(1, 2), 0.0f);
  store.tile(0, 0).force_fault(1, 2, FaultKind::kStuckAt0);
  const Tensor sa0 = store.forward_matmul(x);
  EXPECT_TRUE(same_bits(sa0, restored_forward(store, x)));
  EXPECT_FALSE(same_bits(sa0, before));
  EXPECT_EQ(store.effective().at(1, 2), 0.0f);
  EXPECT_EQ(store.fault_count(), faults + 1);

  // A tile reference held across a forward stays safe to mutate through:
  // its cell (0, 0) hosts logical (16, 16).
  ASSERT_GT(init.at(16, 16), 0.0f);
  kept.force_fault(0, 0, FaultKind::kStuckAt1);
  const Tensor sa1 = store.forward_matmul(x);
  EXPECT_TRUE(same_bits(sa1, restored_forward(store, x)));
  EXPECT_FALSE(same_bits(sa1, sa0));
  EXPECT_FLOAT_EQ(store.effective().at(16, 16),
                  static_cast<float>(store.weight_max()));
  EXPECT_EQ(store.fault_count(), faults + 2);
}

TEST(CrossbarStore, FusedForwardSurvivesCheckpointRestore) {
  const Tensor init = ramp(20, 20, 0.02f);
  CrossbarWeightStore store(clean_config(), init, Rng(25));
  store.tile(0, 0).force_fault(2, 2, FaultKind::kStuckAt1);
  Rng rng(26);
  const Tensor x = Tensor::randn({2, 20}, rng);
  (void)store.forward_matmul(x);  // warm the packed cache

  std::stringstream ss;
  store.save_state(ss);
  CrossbarWeightStore restored(clean_config(), init, Rng(27));
  restored.restore_state(ss);
  EXPECT_TRUE(same_bits(restored.forward_matmul(x),
                        matmul(x, restored.effective())));
  EXPECT_TRUE(same_bits(restored.forward_matmul(x), store.forward_matmul(x)));
}

}  // namespace
}  // namespace refit
