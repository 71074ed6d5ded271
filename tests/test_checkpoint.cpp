// Tests for checkpointing: RNG state, crossbar device state, crossbar
// weight stores, and network weights.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <sstream>
#include <string>
#include <vector>

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
  Crossbar b(cfg, EnduranceModel::unlimited(), Rng(9));
  b.restore(ss);
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
  Crossbar b(cfg, EnduranceModel::unlimited(), Rng(9));
  b.restore(ss);
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
  Crossbar b(CrossbarConfig{}, EnduranceModel::unlimited(), Rng(1));
  EXPECT_THROW(b.restore(ss), CheckError);
}

TEST(CrossbarCheckpoint, HugeGeometryFailsBeforeAllocating) {
  // A header claiming 2^20×2^20 cells must be rejected by the geometry
  // check, not by an allocation of its cell vectors.
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 4;
  Crossbar a(cfg, EnduranceModel::unlimited(), Rng(1));
  std::stringstream saved;
  a.save(saved);
  std::string bytes = saved.str();
  const std::uint64_t huge = std::uint64_t{1} << 20;
  static_assert(sizeof(cfg.rows) == sizeof(huge));
  std::memcpy(&bytes[8 + offsetof(CrossbarConfig, rows)], &huge, sizeof huge);
  std::memcpy(&bytes[8 + offsetof(CrossbarConfig, cols)], &huge, sizeof huge);
  std::stringstream corrupt(bytes);
  Crossbar b(cfg, EnduranceModel::unlimited(), Rng(2));
  EXPECT_THROW(b.restore(corrupt), CheckError);
  EXPECT_EQ(b.rows(), 4u);
  EXPECT_EQ(b.cols(), 4u);
}

std::string saved_bytes(const Crossbar& x) {
  std::stringstream ss;
  x.save(ss);
  return ss.str();
}

void put_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(&bytes[at], &v, sizeof v);
}

/// Byte offsets in the checkpoint of a tile of `n` cells: the header, then
/// g (8-byte length + doubles), then the fault bytes behind their length;
/// after those, writes and endurance limits (u32 vectors), total and
/// suppressed writes, then the saved fault and wear-out counts, the soft
/// TTLs (u32) and restore values (double), and the saved soft count.
struct CrossbarLayout {
  explicit CrossbarLayout(std::size_t n)
      : faults(8 + sizeof(CrossbarConfig) + sizeof(EnduranceModel) +
               sizeof(Rng::State) + 8 + 8 * n + 8),
        fault_count(faults + n + 2 * (8 + 4 * n) + 16),
        wearout(fault_count + 8),
        soft_faults(wearout + 8 + (8 + 4 * n) + (8 + 8 * n)) {}
  std::size_t faults, fault_count, wearout, soft_faults;
};

/// A 4×4 tile with a hard fault and a soft fault.
Crossbar faulty_tile(std::uint64_t seed) {
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 4;
  Crossbar x(cfg, EnduranceModel::unlimited(), Rng(seed));
  x.write(0, 0, 0.5);
  x.force_fault(1, 1, FaultKind::kStuckAt1);
  x.force_soft_fault(2, 2, FaultKind::kSoftStuck0, 3);
  return x;
}

/// Restoring `bytes` into a different tile throws and changes nothing.
void expect_rejected_unchanged(const std::string& bytes) {
  Crossbar b = faulty_tile(7);
  b.write(3, 3, 0.25);
  const std::string before = saved_bytes(b);
  const std::uint64_t mutations = b.mutations();
  std::stringstream corrupt(bytes);
  EXPECT_THROW(b.restore(corrupt), CheckError);
  EXPECT_EQ(saved_bytes(b), before);
  EXPECT_EQ(b.mutations(), mutations);
}

TEST(CrossbarCheckpoint, FaultByteOutOfRangeIsRejected) {
  const CrossbarLayout at(16);
  std::string bytes = saved_bytes(faulty_tile(1));
  ASSERT_EQ(bytes[at.faults + 5], static_cast<char>(FaultKind::kStuckAt1));
  bytes[at.faults] = 5;  // one past FaultKind::kSoftStuck1
  expect_rejected_unchanged(bytes);
}

TEST(CrossbarCheckpoint, SavedFaultCountsMustMatchTheCells) {
  const CrossbarLayout at(16);
  const std::string good = saved_bytes(faulty_tile(1));
  std::uint64_t word = 0;
  std::memcpy(&word, &good[at.fault_count], sizeof word);
  ASSERT_EQ(word, 2u);
  std::memcpy(&word, &good[at.soft_faults], sizeof word);
  ASSERT_EQ(word, 1u);
  // A fault count off by one, a soft count off by one, and more wear-out
  // faults than faults.
  const std::pair<std::size_t, std::uint64_t> edits[] = {
      {at.fault_count, 3}, {at.soft_faults, 0}, {at.wearout, 3}};
  for (const auto& [offset, value] : edits) {
    std::string bytes = good;
    put_u64(bytes, offset, value);
    expect_rejected_unchanged(bytes);
  }
  // The untouched checkpoint restores, and counts as a mutation.
  Crossbar b = faulty_tile(7);
  const std::uint64_t mutations = b.mutations();
  std::stringstream ss(good);
  b.restore(ss);
  EXPECT_EQ(saved_bytes(b), good);
  EXPECT_GT(b.mutations(), mutations);
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
  a.save_state(ss);
  CrossbarWeightStore b(cfg, Tensor::randn({20, 12}, wrng, 0.05f), Rng(6));
  b.restore_state(ss);
  ASSERT_EQ(b.rows(), a.rows());
  ASSERT_EQ(b.cols(), a.cols());
  EXPECT_EQ(b.write_count(), a.write_count());
  EXPECT_EQ(b.fault_count(), a.fault_count());
  EXPECT_EQ(b.row_perm(), a.row_perm());
  const Tensor& ea = a.effective();
  const Tensor& eb = b.effective();
  for (std::size_t i = 0; i < ea.numel(); ++i) EXPECT_EQ(ea[i], eb[i]);
  // Targets too.
  for (std::size_t i = 0; i < ea.numel(); ++i)
    EXPECT_EQ(a.target()[i], b.target()[i]);
}

TEST(StoreCheckpoint, OtherTileGeometryIsRejected) {
  // A 20×12 matrix is 2×1 tiles of 16×16 or of 12×12, but 3×2 tiles of
  // 8×8. Restoring a 16×16 checkpoint into either other store must fail
  // before any state is overwritten — even where the grids agree.
  RcsConfig cfg16;
  cfg16.tile_rows = cfg16.tile_cols = 16;
  Rng wrng(4);
  const Tensor init = Tensor::randn({20, 12}, wrng, 0.05f);
  CrossbarWeightStore a(cfg16, init, Rng(5));
  a.apply_delta(Tensor::randn({20, 12}, wrng, 0.01f));
  std::stringstream saved;
  a.save_state(saved);
  for (const std::size_t edge : {std::size_t{8}, std::size_t{12}}) {
    RcsConfig cfg = cfg16;
    cfg.tile_rows = cfg.tile_cols = edge;
    CrossbarWeightStore b(cfg, init, Rng(5));
    const std::size_t grid_rows = b.tile_grid_rows();
    const std::size_t grid_cols = b.tile_grid_cols();
    const std::vector<float> target = b.target().vec();
    std::stringstream ss(saved.str());
    EXPECT_THROW(b.restore_state(ss), CheckError) << edge;
    EXPECT_EQ(b.tile_grid_rows(), grid_rows) << edge;
    EXPECT_EQ(b.tile_grid_cols(), grid_cols) << edge;
    EXPECT_EQ(b.config().tile_rows, edge);
    EXPECT_EQ(b.target().vec(), target) << edge;
  }
}

TEST(StoreCheckpoint, RejectedTileLeavesStoreUnchanged) {
  // A checkpoint that passes every header check but fails inside its last
  // tile must leave the whole store as it was: targets, read-out and
  // write count.
  RcsConfig cfg;
  cfg.tile_rows = cfg.tile_cols = 16;
  cfg.fabrication.fraction = 0.15;
  Rng wrng(4);
  CrossbarWeightStore a(cfg, Tensor::randn({20, 12}, wrng, 0.05f), Rng(5));
  a.apply_delta(Tensor::randn({20, 12}, wrng, 0.01f));
  std::stringstream saved;
  a.save_state(saved);
  std::string bytes = saved.str();
  // The tiles end the checkpoint, followed by the noise RNG and tick count.
  const Crossbar& last = a.tile(a.tile_grid_rows() - 1, a.tile_grid_cols() - 1);
  const std::string tile_bytes = saved_bytes(last);
  const std::size_t at = bytes.size() - sizeof(Rng::State) -
                         sizeof(std::uint64_t) - tile_bytes.size();
  ASSERT_EQ(bytes.compare(at, tile_bytes.size(), tile_bytes), 0);
  bytes[at + CrossbarLayout(last.rows() * last.cols()).faults] = 5;

  CrossbarWeightStore b(cfg, Tensor::randn({20, 12}, wrng, 0.05f), Rng(6));
  const std::vector<float> target = b.target().vec();
  const std::vector<float> effective = b.effective().vec();
  const std::uint64_t writes = b.write_count();
  std::stringstream corrupt(bytes);
  EXPECT_THROW(b.restore_state(corrupt), CheckError);
  EXPECT_EQ(b.target().vec(), target);
  EXPECT_EQ(b.effective().vec(), effective);
  EXPECT_EQ(b.write_count(), writes);
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
