// Tests for the device layer (src/device): the CellEncoding seam, the
// DeviceNoiseModel time-dependent effects, their serialization through the
// store checkpoint, and the detector's hard-vs-soft classification pass —
// the latter at 1 and 4 threads, since the device trajectory must be
// deterministic at any thread count.
#include "device/cell_encoding.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "common/thread_pool.hpp"
#include "detect/quiescent_detector.hpp"
#include "device/noise_model.hpp"
#include "rcs/crossbar_store.hpp"
#include "rram/faults.hpp"
#include "tensor/ops.hpp"

namespace refit {
namespace {

/// Restores the default global pool when a test is done overriding it.
struct PoolGuard {
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

RcsConfig clean_config(std::size_t levels = 256) {
  RcsConfig cfg;
  cfg.tile_rows = 16;
  cfg.tile_cols = 16;
  cfg.levels = levels;
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

Crossbar small_xbar(std::uint64_t seed = 1) {
  CrossbarConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  cfg.levels = 8;
  cfg.write_noise_sigma = 0.0;
  return Crossbar(cfg, EnduranceModel::unlimited(), Rng(seed));
}

// ---------------------------------------------------------------------------
// DeviceEncoding — the weight↔conductance mapping contract
// ---------------------------------------------------------------------------

TEST(DeviceEncoding, SingletonsReportTheirKindAndLegs) {
  const CellEncoding& single = CellEncoding::of(EncodingKind::kSingleCell);
  EXPECT_EQ(single.kind(), EncodingKind::kSingleCell);
  EXPECT_EQ(single.legs(), 1u);
  const CellEncoding& diff =
      CellEncoding::of(EncodingKind::kDifferentialPair);
  EXPECT_EQ(diff.kind(), EncodingKind::kDifferentialPair);
  EXPECT_EQ(diff.legs(), 2u);
  EXPECT_LE(single.legs(), kMaxEncodingLegs);
  EXPECT_LE(diff.legs(), kMaxEncodingLegs);
  // of() returns shared singletons, not fresh objects.
  EXPECT_EQ(&single, &CellEncoding::of(EncodingKind::kSingleCell));
}

TEST(DeviceEncoding, RoundTripRecoversTheWeight) {
  const double weight_max = 0.25;
  for (const EncodingKind kind :
       {EncodingKind::kSingleCell, EncodingKind::kDifferentialPair}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const CellEncoding& enc = CellEncoding::of(kind);
    for (int i = -20; i <= 20; ++i) {
      const float w = static_cast<float>(i) * 0.0125f;  // spans ±weight_max
      double g[kMaxEncodingLegs] = {0.0, 0.0};
      enc.encode(w, weight_max, g);
      for (std::size_t l = 0; l < enc.legs(); ++l) {
        EXPECT_GE(g[l], 0.0);
        EXPECT_LE(g[l], 1.0);
      }
      EXPECT_NEAR(enc.decode(g, w, weight_max), w, 1e-6f);
    }
  }
}

TEST(DeviceEncoding, SingleCellKeepsTheSignOffChip) {
  const CellEncoding& enc = CellEncoding::of(EncodingKind::kSingleCell);
  double g[kMaxEncodingLegs];
  enc.encode(-0.125f, 0.25, g);
  EXPECT_DOUBLE_EQ(g[0], 0.5);  // |w| / weight_max, sign not in the cell
  // The sign register (the target's sign) flips the decoded weight.
  EXPECT_FLOAT_EQ(enc.decode(g, -0.125f, 0.25), -0.125f);
  EXPECT_FLOAT_EQ(enc.decode(g, 0.125f, 0.25), 0.125f);
}

TEST(DeviceEncoding, DifferentialPairUsesOneLegPerSign) {
  const CellEncoding& enc = CellEncoding::of(EncodingKind::kDifferentialPair);
  double g[kMaxEncodingLegs];
  enc.encode(0.125f, 0.25, g);
  EXPECT_DOUBLE_EQ(g[0], 0.5);  // G_p carries positive weights
  EXPECT_DOUBLE_EQ(g[1], 0.0);
  enc.encode(-0.125f, 0.25, g);
  EXPECT_DOUBLE_EQ(g[0], 0.0);  // G_n carries negative weights
  EXPECT_DOUBLE_EQ(g[1], 0.5);
  // Decode ignores the off-chip target: it is pure (g_p − g_n)·w_max.
  EXPECT_FLOAT_EQ(enc.decode(g, 0.7f, 0.25), -0.125f);
}

TEST(DeviceEncoding, StoreRoundTripsBothEncodingsOnOddShapes) {
  // 10×7 weights on 16×16 tiles → one ragged tile; both encodings must
  // reproduce the target up to level quantization.
  const Tensor init = ramp(10, 7);
  for (const EncodingKind kind :
       {EncodingKind::kSingleCell, EncodingKind::kDifferentialPair}) {
    SCOPED_TRACE(static_cast<int>(kind));
    RcsConfig cfg = clean_config(256);
    cfg.encoding = kind;
    CrossbarWeightStore store(cfg, init, Rng(7));
    EXPECT_EQ(store.legs(), CellEncoding::of(kind).legs());
    EXPECT_EQ(store.physical_cell_count(), store.cell_count() * store.legs());
    const Tensor& eff = store.effective();
    const double tol = store.weight_max() / 255.0 + 1e-6;
    for (std::size_t i = 0; i < init.numel(); ++i)
      EXPECT_NEAR(eff[i], init[i], tol) << "cell " << i;
  }
}

TEST(DeviceEncoding, DifferentialStuckFaultPinsOneLegOnly) {
  const Tensor init = ramp(8, 8, 0.05f);
  RcsConfig cfg = clean_config();
  cfg.encoding = EncodingKind::kDifferentialPair;
  CrossbarWeightStore store(cfg, init, Rng(8));
  ASSERT_GT(init.at(1, 1), 0.0f);  // lives on the G_p leg
  // SA0 on the occupied (G_p) leg zeroes the weight...
  store.tile(0, 0).force_fault(1, 1, FaultKind::kStuckAt0);
  // ...and SA1 on the empty (G_n) leg drives another weight negative.
  ASSERT_GT(init.at(1, 2), 0.0f);
  store.tile(0, 0, 1).force_fault(1, 2, FaultKind::kStuckAt1);
  EXPECT_FLOAT_EQ(store.effective().at(1, 1), 0.0f);
  EXPECT_LT(store.effective().at(1, 2), 0.0f);
  EXPECT_EQ(store.true_fault(1, 1), FaultKind::kStuckAt0);
  EXPECT_EQ(store.true_fault(1, 2), FaultKind::kStuckAt1);
}

TEST(DeviceEncoding, LegMergeIsHardThenSoftThenLowerLeg) {
  using K = FaultKind;
  const K soft_then_hard[] = {K::kSoftStuck1, K::kStuckAt0};
  EXPECT_EQ(merge_leg_faults(soft_then_hard, 2), K::kStuckAt0);
  const K two_hard[] = {K::kStuckAt1, K::kStuckAt0};
  EXPECT_EQ(merge_leg_faults(two_hard, 2), K::kStuckAt1);
  const K two_soft[] = {K::kSoftStuck0, K::kSoftStuck1};
  EXPECT_EQ(merge_leg_faults(two_soft, 2), K::kSoftStuck0);
  const K none_then_soft[] = {K::kNone, K::kSoftStuck1};
  EXPECT_EQ(merge_leg_faults(none_then_soft, 2), K::kSoftStuck1);
  EXPECT_EQ(merge_leg_faults(none_then_soft, 1), K::kNone);
}

TEST(DeviceEncoding, ExpectedGMatchesTheEncoderPerLeg) {
  const Tensor init = ramp(6, 6, 0.03f);
  RcsConfig cfg = clean_config();
  cfg.encoding = EncodingKind::kDifferentialPair;
  CrossbarWeightStore store(cfg, init, Rng(9));
  double g[kMaxEncodingLegs];
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      store.encoding().encode(init.at(r, c), store.weight_max(), g);
      EXPECT_DOUBLE_EQ(store.expected_g(r, c, 0), g[0]);
      EXPECT_DOUBLE_EQ(store.expected_g(r, c, 1), g[1]);
    }
  }
}

TEST(DeviceEncoding, FusedForwardBitExactOnDifferentialPairs) {
  PoolGuard pool_guard;
  // 40×24 on 16×16 tiles (ragged edges) with faults on both legs: the
  // fused kernel's per-tile re-pack must decode exactly like effective().
  const Tensor init = ramp(40, 24, 0.03f);
  RcsConfig cfg = clean_config();
  cfg.encoding = EncodingKind::kDifferentialPair;
  CrossbarWeightStore store(cfg, init, Rng(21));
  store.tile(0, 0).force_fault(1, 2, FaultKind::kStuckAt0);
  store.tile(0, 1, 1).force_fault(3, 3, FaultKind::kStuckAt1);
  store.tile(1, 0).force_fault(0, 0, FaultKind::kStuckAt1);
  store.tile(2, 1, 1).force_fault(5, 7, FaultKind::kStuckAt0);

  Rng rng(22);
  const Tensor x = Tensor::randn({5, 40}, rng);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::set_global_threads(threads);
    const Tensor fused = store.forward_matmul(x);
    const Tensor ref = matmul(x, store.effective());
    ASSERT_EQ(fused.shape(), ref.shape());
    EXPECT_EQ(std::memcmp(fused.data(), ref.data(),
                          fused.numel() * sizeof(float)),
              0)
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// DeviceNoise — transient faults, decay, drift
// ---------------------------------------------------------------------------

TEST(DeviceNoise, SoftFaultPinsAndRecoversAfterTtl) {
  Crossbar xb = small_xbar();
  xb.write(2, 3, 0.75);
  const double before = xb.conductance(2, 3);
  xb.force_soft_fault(2, 3, FaultKind::kSoftStuck1, 2);
  EXPECT_EQ(xb.fault(2, 3), FaultKind::kSoftStuck1);
  EXPECT_EQ(xb.soft_fault_count(), 1u);
  EXPECT_DOUBLE_EQ(xb.conductance(2, 3), 1.0);
  xb.decay_soft_faults();  // ttl 2 → 1, still pinned
  EXPECT_EQ(xb.fault(2, 3), FaultKind::kSoftStuck1);
  xb.decay_soft_faults();  // expires → recovers the pre-fault conductance
  EXPECT_EQ(xb.fault(2, 3), FaultKind::kNone);
  EXPECT_EQ(xb.soft_fault_count(), 0u);
  EXPECT_DOUBLE_EQ(xb.conductance(2, 3), before);
}

TEST(DeviceNoise, FirstFaultWinsAndHardFaultsDoNotDecay) {
  Crossbar xb = small_xbar();
  xb.force_fault(0, 0, FaultKind::kStuckAt1);
  xb.force_soft_fault(0, 0, FaultKind::kSoftStuck0, 3);  // ignored
  EXPECT_EQ(xb.fault(0, 0), FaultKind::kStuckAt1);
  xb.decay_soft_faults();
  EXPECT_EQ(xb.fault(0, 0), FaultKind::kStuckAt1);
}

TEST(DeviceNoise, DriftMovesHealthyCellsOnly) {
  Crossbar xb = small_xbar();
  xb.write(1, 1, 1.0);
  xb.force_fault(4, 4, FaultKind::kStuckAt1);
  xb.drift_toward(0.0, 0.25);
  EXPECT_DOUBLE_EQ(xb.conductance(1, 1), 0.75);  // g += rate·(target − g)
  EXPECT_DOUBLE_EQ(xb.conductance(4, 4), 1.0);   // stuck cell unmoved
  xb.drift_toward(0.0, 0.25);
  EXPECT_DOUBLE_EQ(xb.conductance(1, 1), 0.5625);
}

TEST(DeviceNoise, StrongWriteScrubsSoftButNotHardFaults) {
  Crossbar xb = small_xbar();
  xb.force_soft_fault(3, 3, FaultKind::kSoftStuck0, 5);
  xb.strong_write(3, 3, 1.0);
  EXPECT_EQ(xb.fault(3, 3), FaultKind::kNone);
  EXPECT_DOUBLE_EQ(xb.conductance(3, 3), 1.0);
  xb.force_fault(5, 5, FaultKind::kStuckAt0);
  xb.strong_write(5, 5, 1.0);
  EXPECT_EQ(xb.fault(5, 5), FaultKind::kStuckAt0);
  EXPECT_DOUBLE_EQ(xb.conductance(5, 5), 0.0);
}

TEST(DeviceNoise, TickTileIsDeterministicInTheRngStream) {
  DeviceNoiseConfig cfg;
  cfg.drift_rate = 0.05;
  cfg.soft_fault_rate = 0.05;
  cfg.soft_fault_ttl = 2;
  const DeviceNoiseModel model(cfg);
  Crossbar a = small_xbar(11);
  Crossbar b = small_xbar(11);
  for (std::uint64_t t = 0; t < 4; ++t) {
    Rng ra = Rng(99).split(t);
    Rng rb = Rng(99).split(t);
    model.tick_tile(a, ra);
    model.tick_tile(b, rb);
  }
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_EQ(a.fault(r, c), b.fault(r, c));
      EXPECT_DOUBLE_EQ(a.conductance(r, c), b.conductance(r, c));
    }
  }
  EXPECT_GT(a.soft_fault_count() + a.fault_count(), 0u)
      << "a 5% rate over 4 ticks of 64 cells should strike at least once";
}

TEST(DeviceNoise, InjectSoftFaultsSeedsTransientPins) {
  Crossbar xb = small_xbar();
  Rng rng(5);
  inject_soft_faults(xb, 0.25, 3, 0.5, rng);
  EXPECT_GT(xb.soft_fault_count(), 0u);
  for (std::size_t i = 0; i < 3; ++i) xb.decay_soft_faults();
  EXPECT_EQ(xb.soft_fault_count(), 0u) << "all pins expire after ttl ticks";
}

TEST(DeviceNoise, StoreTickIsANoOpWhenInactive) {
  const Tensor init = ramp(8, 8);
  CrossbarWeightStore store(clean_config(), init, Rng(3));
  ASSERT_FALSE(store.config().noise.active());
  std::ostringstream before;
  store.save_state(before);
  store.tick_noise();
  EXPECT_EQ(store.noise_ticks(), 0u);
  std::ostringstream after;
  store.save_state(after);
  EXPECT_EQ(before.str(), after.str());
}

TEST(DeviceNoise, StoreTickTrajectoryIsThreadCountInvariant) {
  PoolGuard guard;
  const Tensor init = ramp(40, 40);
  RcsConfig cfg = clean_config();
  cfg.encoding = EncodingKind::kDifferentialPair;
  cfg.noise.drift_rate = 0.01;
  cfg.noise.soft_fault_rate = 0.001;
  auto run = [&](std::size_t threads) {
    ThreadPool::set_global_threads(threads);
    CrossbarWeightStore store(cfg, init, Rng(21));
    for (int t = 0; t < 5; ++t) store.tick_noise();
    std::ostringstream os;
    store.save_state(os);
    return os.str();
  };
  EXPECT_EQ(run(1), run(4));
}

// ---------------------------------------------------------------------------
// DeviceCheckpoint — noise/drift state rides the store checkpoint
// ---------------------------------------------------------------------------

TEST(DeviceCheckpoint, NoiseStateRoundTripsBitExactly) {
  const Tensor init = ramp(20, 12);
  RcsConfig cfg = clean_config();
  cfg.encoding = EncodingKind::kDifferentialPair;
  cfg.noise.program_sigma = 0.02;
  cfg.noise.drift_rate = 0.01;
  cfg.noise.soft_fault_rate = 0.002;
  cfg.noise.soft_fault_ttl = 3;
  CrossbarWeightStore store(cfg, init, Rng(31));
  for (int t = 0; t < 3; ++t) store.tick_noise();

  std::stringstream snap;
  store.save_state(snap);
  CrossbarWeightStore loaded(cfg, init, Rng(32));
  loaded.restore_state(snap);
  EXPECT_EQ(loaded.noise_ticks(), store.noise_ticks());
  EXPECT_EQ(loaded.legs(), 2u);

  // The restored store must continue the exact same trajectory: tick both
  // and compare the full serialized device state.
  store.tick_noise();
  loaded.tick_noise();
  std::ostringstream a;
  std::ostringstream b;
  store.save_state(a);
  loaded.save_state(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(DeviceCheckpoint, EncodingKindIsRestored) {
  const Tensor init = ramp(8, 8);
  RcsConfig cfg = clean_config();
  cfg.encoding = EncodingKind::kDifferentialPair;
  CrossbarWeightStore store(cfg, init, Rng(13));
  std::stringstream snap;
  store.save_state(snap);
  CrossbarWeightStore loaded(cfg, init, Rng(14));
  loaded.restore_state(snap);
  EXPECT_EQ(loaded.config().encoding, EncodingKind::kDifferentialPair);
  EXPECT_EQ(loaded.legs(), 2u);
  const Tensor& eff = loaded.effective();
  for (std::size_t i = 0; i < init.numel(); ++i)
    EXPECT_FLOAT_EQ(eff[i], store.effective()[i]);
  // A store of the other encoding has another plane count: rejected.
  CrossbarWeightStore single(clean_config(), init, Rng(14));
  snap.seekg(0);
  EXPECT_THROW(single.restore_state(snap), CheckError);
}

// ---------------------------------------------------------------------------
// DeviceDetector — hard-vs-soft classification
// ---------------------------------------------------------------------------

DetectorConfig classify_config() {
  DetectorConfig cfg;
  cfg.test_rows_per_cycle = 8;
  cfg.classify_soft = true;
  return cfg;
}

TEST(DeviceDetector, RetestScrubsTransientPinsAndKeepsHardFaults) {
  Crossbar xb = small_xbar(17);
  Rng content(3);
  randomize_crossbar_content(xb, 0.2, 0.2, content);
  xb.force_fault(1, 2, FaultKind::kStuckAt0);
  xb.force_fault(5, 6, FaultKind::kStuckAt1);
  xb.force_soft_fault(2, 2, FaultKind::kSoftStuck0, 100);
  xb.force_soft_fault(6, 1, FaultKind::kSoftStuck1, 100);

  const QuiescentVoltageDetector det(classify_config());
  const DetectionOutcome out = det.detect(xb);
  EXPECT_GT(out.cells_retested, 0u);
  EXPECT_EQ(out.truth_before.at(2, 2), FaultKind::kSoftStuck0);

  const ClassifiedConfusion cc = evaluate_classified(out);
  EXPECT_EQ(cc.hard.recall(), 1.0);
  EXPECT_EQ(cc.soft.recall(), 1.0);
  // Hard predictions stay hard: neither permanent fault is downgraded.
  EXPECT_FALSE(out.classified_soft.faulty(1, 2));
  EXPECT_FALSE(out.classified_soft.faulty(5, 6));
  // The transient pins were scrubbed in place by the strong re-test pulse.
  EXPECT_EQ(xb.soft_fault_count(), 0u);
  EXPECT_EQ(xb.fault(1, 2), FaultKind::kStuckAt0);
}

TEST(DeviceDetector, StoreClassificationIsThreadCountInvariant) {
  PoolGuard guard;
  const Tensor init = ramp(40, 40, 0.02f);
  RcsConfig cfg = clean_config(8);
  cfg.encoding = EncodingKind::kDifferentialPair;
  cfg.inject_fabrication = true;
  cfg.fabrication.fraction = 0.05;

  const QuiescentVoltageDetector det(classify_config());
  auto run = [&](std::size_t threads) {
    ThreadPool::set_global_threads(threads);
    CrossbarWeightStore store(cfg, init, Rng(23));
    Rng soft_rng(7);
    for (std::size_t ti = 0; ti < store.tile_grid_rows(); ++ti) {
      for (std::size_t tj = 0; tj < store.tile_grid_cols(); ++tj) {
        inject_soft_faults(store.tile(ti, tj), 0.02, 100, 0.5, soft_rng);
        inject_soft_faults(store.tile(ti, tj, 1), 0.02, 100, 0.5, soft_rng);
      }
    }
    return det.detect_store(store);
  };

  const DetectionOutcome serial = run(1);
  const DetectionOutcome pooled = run(4);
  ASSERT_EQ(serial.predicted.cells(), pooled.predicted.cells());
  ASSERT_EQ(serial.classified_soft.cells(), pooled.classified_soft.cells());
  ASSERT_EQ(serial.truth_before.cells(), pooled.truth_before.cells());
  EXPECT_EQ(serial.cells_retested, pooled.cells_retested);

  // Classification quality on the pre-detection truth: every still-pinned
  // transient fault sits at a rail, so the selected-cell passes see them;
  // hard faults must not leak into the soft class wholesale.
  const ClassifiedConfusion cc = evaluate_classified(serial);
  EXPECT_GT(serial.truth_before.count_faulty(), 0u);
  EXPECT_GE(cc.hard.recall(), 0.8);
  EXPECT_GE(cc.soft.recall(), 0.8);
  EXPECT_GE(cc.hard.precision(), 0.8);
}

}  // namespace
}  // namespace refit
