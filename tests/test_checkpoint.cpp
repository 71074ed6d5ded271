// Tests for checkpointing: RNG state, crossbar device state, crossbar
// weight stores, and network weights.
#include <gtest/gtest.h>

#include <sstream>

#include "common/serialize.hpp"
#include "nn/models.hpp"
#include "nn/network_io.hpp"
#include "rcs/crossbar_store.hpp"
#include "rcs/rcs_system.hpp"
#include "rram/faults.hpp"

namespace refit {
namespace {

TEST(RngState, RoundtripResumesStream) {
  Rng a(42);
  a.normal();  // populate the Box–Muller cache
  const Rng::State st = a.state();
  Rng b(7);
  b.set_state(st);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
    EXPECT_DOUBLE_EQ(a.normal(), b.normal());
  }
}

TEST(CrossbarCheckpoint, RoundtripPreservesEverything) {
  CrossbarConfig cfg;
  cfg.rows = 12;
  cfg.cols = 9;
  cfg.write_noise_sigma = 0.01;
  Crossbar a(cfg, EnduranceModel::gaussian(100, 30), Rng(1));
  Rng rng(2);
  for (std::size_t r = 0; r < 12; ++r)
    for (std::size_t c = 0; c < 9; ++c) a.write(r, c, rng.uniform());
  a.force_fault(3, 4, FaultKind::kStuckAt1);

  std::stringstream ss;
  a.save(ss);
  Crossbar b = Crossbar::load(ss);
  ASSERT_EQ(b.rows(), a.rows());
  ASSERT_EQ(b.cols(), a.cols());
  EXPECT_EQ(b.total_writes(), a.total_writes());
  EXPECT_EQ(b.fault_count(), a.fault_count());
  for (std::size_t r = 0; r < 12; ++r)
    for (std::size_t c = 0; c < 9; ++c) {
      EXPECT_DOUBLE_EQ(b.conductance(r, c), a.conductance(r, c));
      EXPECT_EQ(b.fault(r, c), a.fault(r, c));
      EXPECT_EQ(b.write_count(r, c), a.write_count(r, c));
    }
}

TEST(CrossbarCheckpoint, ResumedWritesMatchOriginal) {
  // The wear-out RNG stream must continue identically after a reload.
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 6;
  cfg.write_noise_sigma = 0.02;
  Crossbar a(cfg, EnduranceModel::gaussian(20, 6), Rng(3));
  for (int i = 0; i < 50; ++i) a.write(0, 0, 0.5);

  std::stringstream ss;
  a.save(ss);
  Crossbar b = Crossbar::load(ss);
  for (int i = 0; i < 50; ++i) {
    a.write(1, 1, 0.3);
    b.write(1, 1, 0.3);
    EXPECT_DOUBLE_EQ(a.conductance(1, 1), b.conductance(1, 1));
  }
  EXPECT_EQ(a.fault_count(), b.fault_count());
}

TEST(Serialize, RoundtripsVectorsAcrossChunkBoundaries) {
  std::vector<float> big(3 * (1u << 18) + 7);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<float>(i);
  std::stringstream ss;
  ser::write_vec(ss, big);
  ser::write_vec(ss, std::vector<double>{});
  EXPECT_EQ(ser::read_vec<float>(ss), big);
  EXPECT_TRUE(ser::read_vec<double>(ss).empty());
}

TEST(Serialize, HugeLengthPrefixFailsCleanly) {
  // A corrupt 2^60 count followed by 8 payload bytes must fail with the
  // usual check error, never bad_alloc: as floats the count is
  // representable but runs out of bytes; as uint64 its byte size overflows.
  const auto corrupt = [] {
    std::stringstream ss;
    ser::write_pod<std::uint64_t>(ss, std::uint64_t{1} << 60);
    ser::write_pod<std::uint64_t>(ss, 42);
    return ss;
  };
  auto as_float = corrupt();
  EXPECT_THROW((void)ser::read_vec<float>(as_float), CheckError);
  auto as_u64 = corrupt();
  EXPECT_THROW((void)ser::read_vec<std::uint64_t>(as_u64), CheckError);
}

TEST(CrossbarCheckpoint, CorruptTagThrows) {
  std::stringstream ss;
  ss << "not a checkpoint at all";
  EXPECT_THROW(Crossbar::load(ss), CheckError);
}

TEST(StoreCheckpoint, RoundtripPreservesEffectiveWeights) {
  RcsConfig cfg;
  cfg.tile_rows = cfg.tile_cols = 16;
  cfg.inject_fabrication = true;
  cfg.fabrication.fraction = 0.15;
  Rng wrng(4);
  CrossbarWeightStore a(cfg, Tensor::randn({20, 12}, wrng, 0.05f), Rng(5));
  // Permute, update, and wear it a bit so non-trivial state exists.
  std::vector<std::size_t> rp(20), cp(12);
  for (std::size_t i = 0; i < 20; ++i) rp[i] = (i + 3) % 20;
  for (std::size_t j = 0; j < 12; ++j) cp[j] = (j + 5) % 12;
  a.set_permutations(rp, cp);
  Tensor delta({20, 12});
  delta.at(2, 2) = 0.01f;
  a.apply_delta(delta);

  std::stringstream ss;
  a.save(ss);
  const auto b = CrossbarWeightStore::load(ss);
  ASSERT_EQ(b->rows(), a.rows());
  ASSERT_EQ(b->cols(), a.cols());
  EXPECT_EQ(b->write_count(), a.write_count());
  EXPECT_EQ(b->fault_count(), a.fault_count());
  EXPECT_EQ(b->row_perm(), a.row_perm());
  const Tensor& ea = a.effective();
  const Tensor& eb = b->effective();
  for (std::size_t i = 0; i < ea.numel(); ++i) EXPECT_EQ(ea[i], eb[i]);
  // Targets too.
  for (std::size_t i = 0; i < ea.numel(); ++i)
    EXPECT_EQ(a.target()[i], b->target()[i]);
}

TEST(NetworkCheckpoint, RoundtripRestoresOutputs) {
  Rng rng(6);
  Network a = make_mlp({10, 8, 4}, software_store_factory(), rng);
  Rng rng2(7);
  Network b = make_mlp({10, 8, 4}, software_store_factory(), rng2);

  std::stringstream ss;
  save_network_weights(a, ss);
  load_network_weights(b, ss);

  Rng xr(8);
  const Tensor x = Tensor::randn({3, 10}, xr);
  const Tensor ya = a.forward(x, false);
  const Tensor yb = b.forward(x, false);
  for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(NetworkCheckpoint, ArchitectureMismatchThrows) {
  Rng rng(9);
  Network a = make_mlp({10, 8, 4}, software_store_factory(), rng);
  Network b = make_mlp({10, 6, 4}, software_store_factory(), rng);
  std::stringstream ss;
  save_network_weights(a, ss);
  EXPECT_THROW(load_network_weights(b, ss), CheckError);
}

TEST(NetworkCheckpoint, WorksAcrossBackends) {
  // Software-trained weights can be loaded onto a crossbar-backed network
  // (programming the chip), and the effective weights approximate them.
  Rng rng(10);
  Network sw = make_mlp({12, 6}, software_store_factory(), rng);
  RcsConfig cfg;
  cfg.tile_rows = cfg.tile_cols = 16;
  cfg.levels = 256;
  cfg.write_noise_sigma = 0.0;
  cfg.inject_fabrication = false;
  RcsSystem sys(cfg, Rng(11));
  Rng rng2(12);
  Network hw = make_mlp({12, 6}, sys.factory(), rng2);

  std::stringstream ss;
  save_network_weights(sw, ss);
  load_network_weights(hw, ss);
  const Tensor& target = sw.matrix_layers()[0]->weights().target();
  const Tensor& eff = hw.matrix_layers()[0]->weights().effective();
  auto* store =
      dynamic_cast<CrossbarWeightStore*>(&hw.matrix_layers()[0]->weights());
  ASSERT_NE(store, nullptr);
  for (std::size_t i = 0; i < target.numel(); ++i)
    EXPECT_NEAR(eff[i], target[i], store->weight_max() / 100.0);
}

}  // namespace
}  // namespace refit
