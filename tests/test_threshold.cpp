// Tests for threshold training (src/core/threshold_trainer.hpp, Alg. 1).
#include "core/threshold_trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

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

/// Gradients and targets that stress the filter: signed zeros, NaNs of
/// both signs, infinities, subnormals and the float range's ends.
float special_value(Rng& rng) {
  const float specials[] = {
      0.0f,
      -0.0f,
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      1e-39f,  // subnormal
      -3e-40f,
      std::numeric_limits<float>::min(),
      std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max(),
  };
  if (rng.bernoulli(0.6)) return static_cast<float>(rng.normal(0.0, 0.5));
  return specials[rng.uniform_index(std::size(specials))];
}

/// One filter_update_run call's outputs.
struct FilterResult {
  std::vector<std::uint32_t> d_bits;
  std::vector<std::uint32_t> programmed;
  std::size_t count = 0;
  UpdateStats st;
};

FilterResult filter_with(bool portable, const UpdatePolicy& policy,
                         const UpdateRun& run, std::uint32_t first,
                         bool record) {
  std::vector<float> d(run.n, 1.5f);
  std::vector<std::uint32_t> programmed(run.n, 0xdeadbeefu);
  FilterResult r;
  // Start the counts off zero: the kernel adds to them.
  r.st.writes_issued = 7;
  r.st.writes_suppressed = 11;
  r.st.updates_zero = 13;
  std::uint32_t* out = record ? programmed.data() : nullptr;
  r.count = portable ? filter_update_run_portable(policy, run, d.data(), out,
                                                  first, r.st)
                     : filter_update_run(policy, run, d.data(), out, first,
                                         r.st);
  for (const float v : d) r.d_bits.push_back(std::bit_cast<std::uint32_t>(v));
  if (record) programmed.resize(r.count);
  r.programmed = record ? programmed : std::vector<std::uint32_t>{};
  return r;
}

TEST(Threshold, FilterKernelMatchesPortableBody) {
  // On a host without AVX2 both sides run the portable body.
  constexpr std::size_t kMaxLen = 33, kMaxOffset = 7;
  constexpr std::size_t kCells = kMaxLen + kMaxOffset;
  Rng rng(31);
  const float scales[] = {1.0f, -0.05f, 0.0f, -0.0f, 3.0f, 1e-30f};
  std::size_t checked = 0;
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<float> g(kCells);
    std::vector<std::uint8_t> pruned(kCells), skip(kCells);
    std::vector<double> thr(kCells);
    for (float& v : g) v = special_value(rng);
    // Any nonzero byte prunes or skips, not only 1.
    const std::uint8_t marks[] = {1, 0x80, 0xff};
    for (auto& b : pruned)
      b = rng.bernoulli(0.3) ? marks[rng.uniform_index(3)] : 0;
    for (auto& b : skip)
      b = rng.bernoulli(0.2) ? marks[rng.uniform_index(3)] : 0;
    UpdatePolicy policy;
    policy.scale = scales[static_cast<std::size_t>(trial) % std::size(scales)];
    // Per-cell thresholds: 0, a random one, or exactly this cell's |δ|, so
    // that |δ| == threshold (not suppressed) comes up.
    for (std::size_t k = 0; k < kCells; ++k) {
      const double exact = std::fabs(g[k] * policy.scale);
      const double pick[] = {0.0, rng.uniform(0.0, 0.6), exact,
                             std::nextafter(exact, 1e300)};
      thr[k] = pick[rng.uniform_index(4)];
    }
    // The uniform threshold: 0, one cell's exact |δ|, or a typical one.
    const double uniform[] = {0.0, std::fabs(g[trial % kCells] * policy.scale),
                              0.3};
    policy.threshold = uniform[static_cast<std::size_t>(trial) % 3];
    for (unsigned inputs = 0; inputs < 16; ++inputs) {
      policy.full_write = (inputs & 8u) != 0;
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        for (std::size_t off = 0; off <= kMaxOffset; ++off) {
          UpdateRun run;
          run.g = g.data() + off;
          run.pruned = (inputs & 1u) != 0 ? pruned.data() + off : nullptr;
          run.skip = (inputs & 2u) != 0 ? skip.data() + off : nullptr;
          run.thr = (inputs & 4u) != 0 ? thr.data() + off : nullptr;
          run.n = len;
          const auto first = static_cast<std::uint32_t>(1000 + 3 * off);
          for (const bool record : {true, false}) {
            SCOPED_TRACE(::testing::Message()
                         << "trial " << trial << ", inputs " << inputs
                         << ", len " << len << ", offset " << off
                         << (record ? ", recorded" : ", counted"));
            const FilterResult want =
                filter_with(true, policy, run, first, record);
            const FilterResult got =
                filter_with(false, policy, run, first, record);
            ASSERT_EQ(got.d_bits, want.d_bits);
            ASSERT_EQ(got.count, want.count);
            ASSERT_EQ(got.programmed, want.programmed);
            ASSERT_EQ(got.st.writes_issued, want.st.writes_issued);
            ASSERT_EQ(got.st.writes_suppressed, want.st.writes_suppressed);
            ASSERT_EQ(got.st.updates_zero, want.st.updates_zero);
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 24u * 16u * (kMaxLen + 1) * (kMaxOffset + 1) * 2u);
}

/// Algorithm 1's filter for one cell, written out as the rule reads: the
/// delta cell n applies (+0 when pruned or suppressed, a zero δ keeps its
/// sign) and whether it is programmed.
bool scalar_rule(const UpdatePolicy& p, float g, bool pruned, bool skipped,
                 double thr, float& d, UpdateStats& st) {
  d = g * p.scale;
  if (pruned) d = 0.0f;
  if (d == 0.0f) {
    ++(p.full_write ? st.writes_issued : st.updates_zero);
    return p.full_write;
  }
  if (skipped || std::fabs(d) < thr) {
    d = 0.0f;
    ++st.writes_suppressed;
    return p.full_write;
  }
  ++st.writes_issued;
  return true;
}

TEST(Threshold, SoftwareRowBlocksMatchScalarRule) {
  PoolGuard guard;
  // 300 × 64 is three row blocks of the software update (128, 128 and 44
  // rows), and each block is more than one filter chunk.
  constexpr std::size_t kRows = 300, kCols = 64, kCells = kRows * kCols;
  Rng rng(41);
  Tensor w0({kRows, kCols});
  for (std::size_t n = 0; n < kCells; ++n) w0[n] = special_value(rng);
  std::vector<std::uint8_t> pruned(kCells), skip(kCells);
  for (auto& b : pruned) b = rng.bernoulli(0.25) ? 1 : 0;
  for (auto& b : skip) b = rng.bernoulli(0.1) ? 1 : 0;
  Tensor delta({kRows, kCols});
  // NaN + NaN returns one operand's payload, and which one the compiled
  // addition picks is not fixed by C++, so no cell adds a NaN to a NaN.
  for (std::size_t n = 0; n < kCells; ++n) {
    delta[n] = special_value(rng);
    if (std::isnan(w0[n]) && std::isnan(delta[n])) delta[n] = 0.5f;
  }
  // Signed zeros, spelled out: w = −0 keeps −0 under a free δ of −0, and
  // becomes +0 when the cell is pruned or its δ is suppressed.
  w0[0] = -0.0f, delta[0] = 0.0f, pruned[0] = 0, skip[0] = 0;
  w0[1] = -0.0f, delta[1] = 0.5f, pruned[1] = 1;
  w0[2] = -0.0f, delta[2] = 1e-3f, pruned[2] = 0, skip[2] = 0;
  w0[3] = -0.0f, delta[3] = 0.25f, pruned[3] = 0, skip[3] = 1;
  struct Case {
    double threshold;
    bool full_write;
    bool masks;
  };
  const Case cases[] = {{0.1, false, true},
                        {0.0, false, true},
                        {0.1, true, true},
                        {std::fabs(delta[5] * -0.5f), false, false}};
  for (const std::size_t threads : {1UL, 4UL}) {
    ThreadPool::set_global_threads(threads);
    for (const Case& c : cases) {
      SCOPED_TRACE(::testing::Message()
                   << threads << " lanes, threshold " << c.threshold
                   << (c.full_write ? ", full write" : "")
                   << (c.masks ? ", masks" : ""));
      UpdatePolicy policy;
      policy.scale = -0.5f;
      policy.threshold = c.threshold;
      policy.full_write = c.full_write;
      if (c.masks) {
        policy.pruned = pruned.data();
        policy.skip = skip.data();
      }
      SoftwareWeightStore store(w0);
      const UpdateStats got = store.apply_update(delta, policy);
      Tensor want = w0;
      UpdateStats st;
      for (std::size_t n = 0; n < kCells; ++n) {
        float d = 0.0f;
        (void)scalar_rule(policy, delta[n], c.masks && pruned[n] != 0,
                          c.masks && skip[n] != 0, c.threshold, d, st);
        want[n] += d;
      }
      EXPECT_EQ(bits_of(store.target()), bits_of(want));
      EXPECT_EQ(got.writes_issued, st.writes_issued);
      EXPECT_EQ(got.writes_suppressed, st.writes_suppressed);
      EXPECT_EQ(got.updates_zero, st.updates_zero);
      if (c.masks && c.threshold > 0.0 && !c.full_write) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(store.target()[0]),
                  std::bit_cast<std::uint32_t>(-0.0f));
        for (std::size_t n = 1; n <= 3; ++n) {
          EXPECT_EQ(std::bit_cast<std::uint32_t>(store.target()[n]), 0u)
              << "cell " << n << " adds +0";
        }
      }
    }
  }
}

std::uint64_t fnv1a_bytes(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A column permutation that deals consecutive logical columns to the two
/// tile columns of a 160-column store in turns of 1, 2, …, 7 columns, so
/// every tile row is fed runs shorter than 8 (the last turns, once tile
/// column 1's 32 columns are full, make one long run in tile column 0).
std::vector<std::size_t> two_tile_column_perm() {
  std::vector<std::size_t> cp;
  std::size_t next[2] = {0, 128};
  const std::size_t end[2] = {128, 160};
  for (std::size_t turn = 0; cp.size() < 160; ++turn) {
    std::size_t side = turn % 2;
    if (next[side] == end[side]) side = 1 - side;
    for (std::size_t k = 0; k <= turn % 7 && next[side] < end[side]; ++k)
      cp.push_back(next[side]++);
  }
  return cp;
}

/// Threshold, full-write, wear-leveling, prune and fault-skip update steps
/// on a 200 × 160 crossbar store (2 × 2 tiles of 128 × 128) whose column
/// permutation spans both tile columns, with special-valued deltas. Each
/// step's targets and write accounting are checked against the scalar
/// rule; returns the checkpoint after its config block.
std::string permuted_store_steps(EncodingKind kind) {
  RcsConfig cfg;
  cfg.write_noise_sigma = 0.02;
  cfg.fabrication.fraction = 0.05;
  cfg.endurance = EnduranceModel::gaussian(9.0, 2.0);
  cfg.encoding = kind;
  constexpr std::size_t kRows = 200, kCols = 160, kCells = kRows * kCols;
  Rng rng(51);
  CrossbarWeightStore store(cfg, Tensor::randn({kRows, kCols}, rng, 0.1f),
                            Rng(52));
  std::vector<std::size_t> rp(kRows);
  for (std::size_t i = 0; i < kRows; ++i) rp[i] = kRows - 1 - i;
  store.set_permutations(rp, two_tile_column_perm());
  std::vector<std::uint8_t> pruned(kCells);
  for (auto& b : pruned) b = rng.bernoulli(0.2) ? 1 : 0;
  for (int step = 0; step < 8; ++step) {
    Tensor delta({kRows, kCols});
    for (std::size_t n = 0; n < kCells; ++n) {
      delta[n] = rng.bernoulli(0.02)
                     ? special_value(rng)
                     : static_cast<float>(rng.normal(0.0, 0.02));
      if (std::isnan(store.target()[n]) && std::isnan(delta[n]))
        delta[n] = 0.5f;  // no NaN + NaN (see above)
    }
    const FaultMatrix detected = store.true_fault_matrix();
    UpdatePolicy policy;
    policy.scale = step % 2 == 0 ? 1.0f : -0.75f;
    policy.pruned = step % 4 == 1 ? nullptr : pruned.data();
    policy.skip = step % 3 == 0 ? detected.bytes() : nullptr;
    policy.full_write = step % 4 == 2;
    policy.threshold = policy.full_write ? 0.0 : 0.012;
    policy.wear_beta = step >= 4 ? 2.0 : 0.0;

    // The scalar rule over a serial logical row-major sweep, with each
    // cell's wear-leveled threshold read before the step.
    const double mean =
        static_cast<double>(store.write_count()) /
        static_cast<double>(store.physical_cell_count());
    Tensor want = store.target();
    UpdateStats want_st;
    const auto wmax = static_cast<float>(store.weight_max());
    for (std::size_t i = 0; i < kRows; ++i) {
      for (std::size_t j = 0; j < kCols; ++j) {
        const std::size_t r = store.mapping().physical_row(i);
        const std::size_t c = store.mapping().physical_col(j);
        double thr = policy.threshold;
        if (policy.wear_beta > 0.0) {
          const TileGrid::Coord tc = store.grid().locate(r, c);
          const TileSpan span = store.grid().span(tc.tile);
          std::uint64_t w = 0;
          for (std::size_t leg = 0; leg < store.legs(); ++leg)
            w = std::max(w, store.tile(span.ti, span.tj, leg)
                                .write_count(tc.lr, tc.lc));
          thr *= 1.0 + policy.wear_beta *
                           std::max(0.0, static_cast<double>(w) / mean - 1.0);
        }
        const std::size_t at = i * kCols + j;
        float d = 0.0f;
        const bool program = scalar_rule(
            policy, delta[at], policy.pruned != nullptr && pruned[at] != 0,
            policy.skip != nullptr && detected.faulty(r, c), thr, d, want_st);
        if (program && d != 0.0f)
          want[at] = std::clamp(want[at] + d, -wmax, wmax);
      }
    }
    const UpdateStats got = store.apply_update(delta, policy);
    EXPECT_EQ(bits_of(store.target()), bits_of(want)) << "step " << step;
    EXPECT_EQ(got.writes_issued, want_st.writes_issued) << "step " << step;
    EXPECT_EQ(got.writes_suppressed, want_st.writes_suppressed)
        << "step " << step;
    EXPECT_EQ(got.updates_zero, want_st.updates_zero) << "step " << step;
  }
  EXPECT_GT(store.wearout_fault_count(), 0u) << "steps should wear cells out";
  std::ostringstream os;
  store.save_state(os);
  return os.str().substr(8 + sizeof(RcsConfig));
}

TEST(Threshold, PermutedCrossbarRunsMatchScalarRule) {
  PoolGuard guard;
  // FNV-1a of the checkpoint the same steps produced through the per-cell
  // filter that the row kernel replaced.
  const std::pair<EncodingKind, std::uint64_t> cases[] = {
      {EncodingKind::kSingleCell, 0xc3f722907b690cc2ULL},
      {EncodingKind::kDifferentialPair, 0x14a7413e5cd1a36fULL},
  };
  for (const auto& [kind, want] : cases) {
    for (const std::size_t threads : {1UL, 4UL}) {
      ThreadPool::set_global_threads(threads);
      SCOPED_TRACE(::testing::Message() << "encoding " << static_cast<int>(kind)
                                        << ", " << threads << " lanes");
      EXPECT_EQ(fnv1a_bytes(permuted_store_steps(kind)), want);
    }
  }
}

}  // namespace
}  // namespace refit
