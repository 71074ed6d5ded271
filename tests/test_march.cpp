// Tests for the March-style per-cell baseline detector.
#include "detect/march_test.hpp"

#include <gtest/gtest.h>

#include "detect/quiescent_detector.hpp"
#include "rram/faults.hpp"

namespace refit {
namespace {

Crossbar make_xbar(std::size_t n, std::uint64_t seed,
                   double noise = 0.01) {
  CrossbarConfig cfg;
  cfg.rows = n;
  cfg.cols = n;
  cfg.levels = 8;
  cfg.write_noise_sigma = noise;
  return Crossbar(cfg, EnduranceModel::unlimited(), Rng(seed));
}

TEST(MarchTest, PerfectAccuracyOnStuckCells) {
  Rng rng(1);
  Crossbar xb = make_xbar(32, 2);
  randomize_crossbar_content(xb, 0.3, 0.2, rng);
  FaultInjectionConfig fc;
  fc.fraction = 0.10;
  inject_fabrication_faults(xb, fc, rng);
  const MarchOutcome out = march_test(xb);
  const ConfusionCounts cc = evaluate_detection(xb, out.predicted);
  EXPECT_DOUBLE_EQ(cc.recall(), 1.0);
  EXPECT_DOUBLE_EQ(cc.precision(), 1.0);
}

TEST(MarchTest, ClassifiesFaultKinds) {
  Rng rng(3);
  Crossbar xb = make_xbar(8, 4);
  randomize_crossbar_content(xb, 0.3, 0.2, rng);
  xb.force_fault(1, 1, FaultKind::kStuckAt0);
  xb.force_fault(2, 2, FaultKind::kStuckAt1);
  const MarchOutcome out = march_test(xb);
  EXPECT_EQ(out.predicted.at(1, 1), FaultKind::kStuckAt0);
  EXPECT_EQ(out.predicted.at(2, 2), FaultKind::kStuckAt1);
}

TEST(MarchTest, RestoresContent) {
  Rng rng(5);
  Crossbar xb = make_xbar(16, 6);
  randomize_crossbar_content(xb, 0.3, 0.2, rng);
  std::vector<int> before;
  for (std::size_t r = 0; r < 16; ++r)
    for (std::size_t c = 0; c < 16; ++c) before.push_back(xb.read_level(r, c));
  march_test(xb);
  std::size_t i = 0;
  for (std::size_t r = 0; r < 16; ++r)
    for (std::size_t c = 0; c < 16; ++c)
      EXPECT_EQ(xb.read_level(r, c), before[i++]);
}

TEST(MarchTest, CyclesScaleQuadratically) {
  // The paper's core argument against March-style on-line testing: test
  // time grows with the cell count, not the row count.
  Rng rng(7);
  Crossbar a = make_xbar(16, 8);
  Crossbar b = make_xbar(32, 9);
  randomize_crossbar_content(a, 0.3, 0.2, rng);
  randomize_crossbar_content(b, 0.3, 0.2, rng);
  const MarchOutcome oa = march_test(a);
  const MarchOutcome ob = march_test(b);
  const double ratio = static_cast<double>(ob.cycles) /
                       static_cast<double>(oa.cycles);
  EXPECT_NEAR(ratio, 4.0, 0.4);  // 4× the cells → ~4× the cycles
}

TEST(MarchTest, QuiescentMethodIsFarCheaper) {
  Rng rng(10);
  Crossbar a = make_xbar(64, 11);
  Crossbar b = make_xbar(64, 11);
  Rng rng2(10);
  randomize_crossbar_content(a, 0.3, 0.2, rng);
  randomize_crossbar_content(b, 0.3, 0.2, rng2);
  FaultInjectionConfig fc;
  fc.fraction = 0.10;
  Rng frng(12), frng2(12);
  inject_fabrication_faults(a, fc, frng);
  inject_fabrication_faults(b, fc, frng2);

  const MarchOutcome march = march_test(a);
  DetectorConfig dc;
  dc.test_rows_per_cycle = 8;
  const DetectionOutcome qvc = QuiescentVoltageDetector(dc).detect(b);
  EXPECT_GT(march.cycles, 20 * qvc.cycles);
  EXPECT_GT(march.device_writes, qvc.device_writes);
}

TEST(MarchTest, WearsTestedCells) {
  // March testing consumes endurance on every healthy cell — the hidden
  // cost of frequent traditional testing.
  Crossbar xb = make_xbar(8, 13);
  Rng rng(14);
  randomize_crossbar_content(xb, 0.3, 0.2, rng);
  const std::uint64_t before = xb.total_writes();
  const MarchOutcome out = march_test(xb);
  EXPECT_EQ(out.device_writes, xb.total_writes() - before);
  EXPECT_GE(out.device_writes, 2u * 64);  // ≥2 pulses per healthy cell
}

}  // namespace
}  // namespace refit
