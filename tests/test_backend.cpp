// Tests for the parallel compute backend (common/thread_pool.hpp) and its
// consumers: tensor kernels must never call the pool and give the same
// bits at any pool size, the crossbar store's fused update pass must be
// bit-identical at any thread count and re-read only the cells it writes,
// and the store's running write/fault counters must always match a fresh
// tile scan.
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/threshold_trainer.hpp"
#include "detect/quiescent_detector.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "obs/metrics.hpp"
#include "rcs/crossbar_store.hpp"
#include "rcs/rcs_system.hpp"
#include "tensor/ops.hpp"

namespace refit {
namespace {

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Restores the default global pool when a test is done overriding it.
struct PoolGuard {
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

/// Turns metrics on for a test and restores the previous switch after.
struct MetricsOn {
  MetricsOn() : was_(obs::metrics_enabled()) {
    obs::MetricsRegistry::instance().set_enabled(true);
  }
  ~MetricsOn() { obs::MetricsRegistry::instance().set_enabled(was_); }
  bool was_;
};

/// Top-level parallel_for calls so far (pool.parallel_for.calls).
std::uint64_t pool_calls() {
  for (const obs::MetricSnapshot& m :
       obs::MetricsRegistry::instance().snapshot()) {
    if (m.name == "pool.parallel_for.calls") return m.count;
  }
  return 0;
}

TEST(Backend, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Backend, ParallelForHandlesSmallAndEmptyRanges) {
  ThreadPool pool(8);
  int calls = 0;
  // n == 0: the body never runs, so the shared increment is unreachable.
  // refit-check: allow(parallel-shared-write)
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::vector<std::atomic<int>> hits(3);  // fewer items than lanes
  pool.parallel_for(3, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Backend, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t b, std::size_t) {
                                   if (b > 0) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // Pool survives a throwing job.
  std::atomic<int> n{0};
  pool.parallel_for(10, [&](std::size_t b, std::size_t e) {
    n += static_cast<int>(e - b);
  });
  EXPECT_EQ(n.load(), 10);
}

TEST(Backend, ThreadCountParseRejectsMalformedAndHugeValues) {
  // Only the parse: no pool of a rejected size is ever built.
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count("4"), 4u);
  EXPECT_EQ(parse_thread_count("007"), 7u);
  EXPECT_EQ(parse_thread_count("256"), kMaxThreads);
  for (const char* bad : {"4x", "1e9", "0", "-2", "+4", " 4", "4 ", "", "x",
                          "257", "1000000000",
                          "99999999999999999999999999"}) {
    try {
      (void)parse_thread_count(bad);
      ADD_FAILURE() << "accepted REFIT_THREADS=\"" << bad << "\"";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("REFIT_THREADS=\"" +
                                           std::string(bad) + "\""),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Backend, GemmVariantsBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  MetricsOn metrics;
  Rng rng(42);
  // Odd sizes so register-block edges don't align with anything.
  const Tensor a = Tensor::randn({67, 45}, rng);
  const Tensor b = Tensor::randn({45, 53}, rng);
  const Tensor at = Tensor::randn({45, 67}, rng);
  const Tensor bt = Tensor::randn({53, 45}, rng);

  ThreadPool::set_global_threads(1);
  const Tensor mm = matmul(a, b);
  const Tensor tn = matmul_tn(at, b);
  const Tensor nt = matmul_nt(a, bt);
  for (const std::size_t threads : {2UL, 5UL}) {
    ThreadPool::set_global_threads(threads);
    // The kernels are serial: parallelism lives in the jobs that call them.
    const std::uint64_t calls = pool_calls();
    EXPECT_TRUE(same_bits(mm, matmul(a, b))) << threads << " threads";
    EXPECT_TRUE(same_bits(tn, matmul_tn(at, b))) << threads << " threads";
    EXPECT_TRUE(same_bits(nt, matmul_nt(a, bt))) << threads << " threads";
    EXPECT_EQ(pool_calls(), calls) << threads << " threads";
  }
}

TEST(Backend, ConvKernelsBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  MetricsOn metrics;
  Rng rng(43);
  const Tensor img = Tensor::randn({5, 3, 9, 9}, rng);
  ConvGeometry g;
  g.in_channels = 3;
  g.in_h = g.in_w = 9;
  g.kernel = 3;
  g.pad = 1;

  ThreadPool::set_global_threads(1);
  const Tensor cols = im2col(img, g);
  const Tensor folded = col2im(cols, 5, g);
  std::vector<std::size_t> argmax1;
  const Tensor pooled = maxpool2d(img, 2, 2, argmax1);
  for (const std::size_t threads : {2UL, 5UL}) {
    ThreadPool::set_global_threads(threads);
    const std::uint64_t calls = pool_calls();
    EXPECT_TRUE(same_bits(cols, im2col(img, g)));
    EXPECT_TRUE(same_bits(folded, col2im(cols, 5, g)));
    std::vector<std::size_t> argmax;
    EXPECT_TRUE(same_bits(pooled, maxpool2d(img, 2, 2, argmax)));
    EXPECT_EQ(argmax, argmax1);
    EXPECT_EQ(pool_calls(), calls) << threads << " threads";
  }
}

RcsConfig noisy_config() {
  RcsConfig cfg;
  cfg.tile_rows = 16;
  cfg.tile_cols = 16;
  cfg.write_noise_sigma = 0.02;
  cfg.inject_fabrication = true;
  cfg.fabrication.fraction = 0.1;
  cfg.endurance = EnduranceModel::gaussian(4.0, 2.0);
  return cfg;
}

Tensor random_weights(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn({r, c}, rng, 0.1f);
}

TEST(Backend, StoreRebuildBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  // Construction, delta application, and rebuild all draw per-tile RNG, so
  // the whole store lifecycle must be invariant to the pool size.
  auto run = [&](std::size_t threads) {
    ThreadPool::set_global_threads(threads);
    CrossbarWeightStore store(noisy_config(), random_weights(50, 60, 7),
                              Rng(9));
    Tensor first = store.effective();
    Tensor delta({50, 60});
    Rng drng(11);
    for (std::size_t i = 0; i < delta.numel(); ++i) {
      if (drng.bernoulli(0.05)) {
        delta[i] = static_cast<float>(drng.normal(0.0, 0.01));
      }
    }
    store.apply_delta(delta);
    Tensor second = store.effective();
    return std::make_tuple(std::move(first), std::move(second),
                           store.write_count(), store.fault_count());
  };
  const auto [eff1a, eff1b, w1, f1] = run(1);
  for (const std::size_t threads : {2UL, 5UL}) {
    const auto [effa, effb, w, f] = run(threads);
    EXPECT_TRUE(same_bits(eff1a, effa)) << threads << " threads";
    EXPECT_TRUE(same_bits(eff1b, effb)) << threads << " threads";
    EXPECT_EQ(w1, w) << threads << " threads";
    EXPECT_EQ(f1, f) << threads << " threads";
  }
}

TEST(Backend, IncrementalRebuildSkipsCleanTiles) {
  PoolGuard guard;
  ThreadPool::set_global_threads(1);
  RcsConfig cfg;
  cfg.tile_rows = 16;
  cfg.tile_cols = 16;
  cfg.write_noise_sigma = 0.0;
  cfg.inject_fabrication = false;
  CrossbarWeightStore store(cfg, random_weights(32, 32, 3), Rng(4));
  (void)store.effective();  // all four tiles packed once

  // Read-counter probe: snapshot each tile's analog read count, write only
  // into tile (0, 0) through a delta, and assert the other tiles are never
  // re-read — the write-through re-reads just the written cell, and the
  // next read-out re-packs nothing.
  std::uint64_t before[2][2];
  for (std::size_t ti = 0; ti < 2; ++ti)
    for (std::size_t tj = 0; tj < 2; ++tj)
      before[ti][tj] = store.tile(ti, tj).read_count();

  Tensor delta({32, 32});
  delta.at(2, 3) = 0.05f;  // logical (2,3) lives on tile (0,0): identity perm
  store.apply_delta(delta);
  (void)store.effective();

  EXPECT_EQ(store.tile(0, 0).read_count(), before[0][0] + 1);
  EXPECT_EQ(store.tile(0, 1).read_count(), before[0][1]);
  EXPECT_EQ(store.tile(1, 0).read_count(), before[1][0]);
  EXPECT_EQ(store.tile(1, 1).read_count(), before[1][1]);

  // The skipped tiles' cached entries must still be served correctly.
  const Tensor& eff = store.effective();
  EXPECT_EQ(eff.shape(), delta.shape());
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A scripted run of fused update steps: a non-identity permutation that
/// moves cells across tiles, a prune mask, the detected-fault skip, a
/// threshold, full writes, and wear-out under low endurance. Returns the
/// store checkpoint after its config block (RcsConfig is written as a raw
/// struct, padding included, so those bytes are not reproducible).
std::string scripted_update_bytes(EncodingKind kind) {
  RcsConfig cfg;  // 128×128 tiles: a 3×2 grid, one pool lane per tile
  cfg.write_noise_sigma = 0.02;
  cfg.fabrication.fraction = 0.05;
  cfg.endurance = EnduranceModel::gaussian(6.0, 2.0);
  cfg.encoding = kind;
  const std::size_t rows = 300, cols = 200;
  Rng wrng(7);
  CrossbarWeightStore store(cfg, Tensor::randn({rows, cols}, wrng, 0.1f),
                            Rng(9));
  std::vector<std::size_t> rp(rows), cp(cols);
  std::iota(rp.begin(), rp.end(), 0);
  std::reverse(rp.begin(), rp.end());
  for (std::size_t j = 0; j < cols; ++j) cp[j] = (j + 37) % cols;
  store.set_permutations(rp, cp);
  std::vector<std::uint8_t> pruned(rows * cols);
  for (std::size_t n = 0; n < pruned.size(); ++n) pruned[n] = n % 7 == 3;
  Rng drng(11);
  for (int step = 0; step < 6; ++step) {
    Tensor delta({rows, cols});
    for (std::size_t n = 0; n < delta.numel(); ++n) {
      if (drng.bernoulli(0.6)) {
        delta[n] = static_cast<float>(drng.normal(0.0, 0.02));
      }
    }
    const FaultMatrix detected = store.true_fault_matrix();
    UpdatePolicy policy;
    policy.pruned = pruned.data();
    policy.skip = detected.bytes();
    policy.full_write = step % 3 == 2;
    policy.threshold = policy.full_write ? 0.0 : 0.01;
    (void)store.apply_update(delta, policy);
  }
  EXPECT_GT(store.wearout_fault_count(), 0u) << "script should wear cells out";
  std::ostringstream os;
  store.save_state(os);
  return os.str().substr(8 + sizeof(RcsConfig));
}

TEST(Backend, FusedUpdateBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  // FNV-1a of the bytes the same script produced through the serial
  // per-cell write chain that the fused pass replaced.
  const std::pair<EncodingKind, std::uint64_t> cases[] = {
      {EncodingKind::kSingleCell, 0xc759176ac4d6f4beULL},
      {EncodingKind::kDifferentialPair, 0x6267a43b16907b7fULL},
  };
  for (const auto& [kind, want] : cases) {
    for (const std::size_t threads : {1UL, 4UL}) {
      ThreadPool::set_global_threads(threads);
      EXPECT_EQ(fnv1a(scripted_update_bytes(kind)), want)
          << "encoding " << static_cast<int>(kind) << ", " << threads
          << " threads";
    }
  }
}

/// A 3-layer rig of crossbar stores (6, 4 and 2 tiles of 128×128) taken
/// through threshold-training steps: a prune mask on layer 0, the
/// detected-fault skip on layer 1, wear-leveling β > 0, full-write steps
/// and wear-out under low endurance. Returns each store's checkpoint after
/// its config block (its targets and tile bytes).
std::vector<std::string> scripted_step_bytes(EncodingKind kind) {
  RcsConfig cfg;
  cfg.write_noise_sigma = 0.02;
  cfg.fabrication.fraction = 0.05;
  cfg.endurance = EnduranceModel::gaussian(8.0, 2.0);
  cfg.encoding = kind;
  RcsSystem rcs(cfg, Rng(21));
  Rng wrng(22);
  Network net;
  const std::size_t dims[] = {300, 200, 130, 10};
  for (std::size_t l = 0; l < 3; ++l) {
    net.add(std::make_unique<Dense>("fc" + std::to_string(l), dims[l],
                                    dims[l + 1], rcs.factory(), wrng));
  }
  PruneMask mask;
  mask.rows = dims[0];
  mask.cols = dims[1];
  mask.pruned.resize(mask.rows * mask.cols);
  for (std::size_t n = 0; n < mask.pruned.size(); ++n)
    mask.pruned[n] = n % 5 == 1;
  PruneState prune;
  prune.merge_mask(0, mask);
  DetectedFaults detected(3);
  const LrSchedule lr{0.05, 1.0, 0, 1e-4};
  const ThresholdTrainer leveled({0.01, 2.0}, lr);
  const ThresholdTrainer full({0.0, 0.0}, lr);
  Rng grng(23);
  for (std::size_t step = 0; step < 6; ++step) {
    detected[1] = rcs.stores()[1]->true_fault_matrix();
    std::vector<Param> params = net.params();
    for (Param& p : params) {
      for (std::size_t n = 0; n < p.grad->numel(); ++n) {
        (*p.grad)[n] = grng.bernoulli(0.7)
                           ? static_cast<float>(grng.normal(0.0, 0.5))
                           : 0.0f;
      }
    }
    (void)(step % 3 == 2 ? full : leveled).step(params, step, &prune,
                                                 &detected);
  }
  std::vector<std::string> out;
  std::size_t wearout = 0;
  for (const CrossbarWeightStore* store : rcs.stores()) {
    wearout += store->wearout_fault_count();
    std::ostringstream os;
    store->save_state(os);
    out.push_back(os.str().substr(8 + sizeof(RcsConfig)));
  }
  EXPECT_GT(wearout, 0u) << "script should wear cells out";
  return out;
}

TEST(Backend, OneUpdatePassMatchesPerStoreUpdates) {
  PoolGuard guard;
  // FNV-1a of each store's bytes after the same script, recorded when
  // every store ran its own update pass in turn.
  const std::pair<EncodingKind, std::vector<std::uint64_t>> cases[] = {
      {EncodingKind::kSingleCell,
       {0x1121b7c73cda0b11ULL, 0xbd57f0e2975a02f5ULL, 0x7d0a91db82986061ULL}},
      {EncodingKind::kDifferentialPair,
       {0x4da5f9b2a7e113a7ULL, 0x0d33c1105d11aa68ULL, 0x5cd3bed92cf77357ULL}},
  };
  for (const auto& [kind, want] : cases) {
    for (const std::size_t threads : {1UL, 4UL}) {
      ThreadPool::set_global_threads(threads);
      const std::vector<std::string> got = scripted_step_bytes(kind);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t l = 0; l < got.size(); ++l) {
        EXPECT_EQ(fnv1a(got[l]), want[l])
            << "encoding " << static_cast<int>(kind) << ", layer " << l
            << ", " << threads << " threads";
      }
    }
  }
}

TEST(Backend, RunningCountersMatchFreshTileScan) {
  PoolGuard guard;
  ThreadPool::set_global_threads(3);
  CrossbarWeightStore store(noisy_config(), random_weights(48, 48, 5),
                            Rng(6));
  Rng drng(13);
  for (int round = 0; round < 5; ++round) {
    Tensor delta({48, 48});
    for (std::size_t i = 0; i < delta.numel(); ++i) {
      if (drng.bernoulli(0.3)) {
        delta[i] = static_cast<float>(drng.normal(0.0, 0.02));
      }
    }
    store.apply_delta(delta);  // endurance is tight: wear-out faults accrue
  }

  std::uint64_t writes = 0;
  std::size_t faults = 0, wearout = 0;
  for (std::size_t ti = 0; ti < store.tile_grid_rows(); ++ti) {
    for (std::size_t tj = 0; tj < store.tile_grid_cols(); ++tj) {
      writes += store.tile(ti, tj).total_writes();
      faults += store.tile(ti, tj).fault_count();
      wearout += store.tile(ti, tj).wearout_fault_count();
    }
  }
  EXPECT_GT(wearout, 0u) << "test should exercise wear-out accounting";
  EXPECT_EQ(store.write_count(), writes);
  EXPECT_EQ(store.fault_count(), faults);
  EXPECT_EQ(store.wearout_fault_count(), wearout);
}

TEST(Backend, DetectStoreBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  DetectorConfig dcfg;
  dcfg.selected_cells_only = true;
  auto run = [&](std::size_t threads) {
    ThreadPool::set_global_threads(threads);
    RcsConfig cfg;
    cfg.tile_rows = 16;
    cfg.tile_cols = 16;
    cfg.inject_fabrication = true;
    cfg.fabrication.fraction = 0.1;
    CrossbarWeightStore store(cfg, random_weights(48, 32, 21), Rng(17));
    const QuiescentVoltageDetector det(dcfg);
    return det.detect_store(store);
  };
  const DetectionOutcome ref = run(1);
  for (const std::size_t threads : {2UL, 5UL}) {
    const DetectionOutcome out = run(threads);
    EXPECT_EQ(out.cycles, ref.cycles);
    EXPECT_EQ(out.cells_tested, ref.cells_tested);
    EXPECT_EQ(out.device_writes, ref.device_writes);
    ASSERT_EQ(out.predicted.rows(), ref.predicted.rows());
    for (std::size_t r = 0; r < ref.predicted.rows(); ++r) {
      for (std::size_t c = 0; c < ref.predicted.cols(); ++c) {
        EXPECT_EQ(out.predicted.at(r, c), ref.predicted.at(r, c));
      }
    }
  }
}

}  // namespace
}  // namespace refit
