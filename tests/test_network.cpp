// Network container + end-to-end software training tests: the MLP and the
// VGG-mini CNN must actually learn a separable task; the VGG-11 preset
// must match the paper's topology.
#include "nn/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "rcs/rcs_system.hpp"

namespace refit {
namespace {

/// Tiny 2-class task: class = sign of the first input coordinate.
void make_toy(Rng& rng, std::size_t n, Tensor& x,
              std::vector<std::uint8_t>& y) {
  x = Tensor::randn({n, 4}, rng);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = x.at(i, 0) > 0.0f ? 1 : 0;
}

TEST(Network, ForwardOnEmptyThrows) {
  Network net;
  Tensor x({1, 2});
  EXPECT_THROW(net.forward(x), CheckError);
}

TEST(Network, ParamsCollectsAllLayers) {
  Rng rng(1);
  Network net = make_mlp({4, 8, 2}, software_store_factory(), rng);
  const auto params = net.params();
  EXPECT_EQ(params.size(), 4u);  // 2 dense layers × (W, b)
  EXPECT_EQ(net.matrix_layers().size(), 2u);
}

TEST(Network, WeightCount) {
  Rng rng(2);
  Network net = make_mlp({10, 5, 3}, software_store_factory(), rng);
  EXPECT_EQ(net.weight_count(), 10u * 5 + 5 * 3);
}

TEST(Network, MlpLearnsToyTask) {
  Rng rng(3);
  Network net = make_mlp({4, 16, 2}, software_store_factory(), rng);
  Tensor x;
  std::vector<std::uint8_t> y;
  make_toy(rng, 256, x, y);

  const Sgd sgd(LrSchedule{0.1, 1.0, 0, 1e-4});
  for (int iter = 0; iter < 300; ++iter) {
    Tensor logits = net.forward(x, true);
    const LossResult loss = softmax_cross_entropy(logits, y);
    net.backward(loss.grad_logits);
    auto params = net.params();
    sgd.step(params, static_cast<std::size_t>(iter));
    net.zero_grad();
  }
  EXPECT_GT(net.evaluate(x, y), 0.95);
}

TEST(Network, SgdReducesLoss) {
  Rng rng(4);
  Network net = make_mlp({4, 8, 2}, software_store_factory(), rng);
  Tensor x;
  std::vector<std::uint8_t> y;
  make_toy(rng, 64, x, y);
  const Sgd sgd(LrSchedule{0.05, 1.0, 0, 1e-4});
  const double loss0 =
      softmax_cross_entropy(net.forward(x, false), y).loss;
  for (int iter = 0; iter < 100; ++iter) {
    Tensor logits = net.forward(x, true);
    const LossResult loss = softmax_cross_entropy(logits, y);
    net.backward(loss.grad_logits);
    auto params = net.params();
    sgd.step(params, 0);
    net.zero_grad();
  }
  const double loss1 =
      softmax_cross_entropy(net.forward(x, false), y).loss;
  EXPECT_LT(loss1, loss0 * 0.5);
}

TEST(LrSchedule, StepDecay) {
  const LrSchedule s{0.1, 0.5, 100, 1e-4};
  EXPECT_DOUBLE_EQ(s.at(0), 0.1);
  EXPECT_DOUBLE_EQ(s.at(99), 0.1);
  EXPECT_DOUBLE_EQ(s.at(100), 0.05);
  EXPECT_DOUBLE_EQ(s.at(250), 0.025);
}

TEST(LrSchedule, Floor) {
  const LrSchedule s{0.1, 0.1, 1, 1e-3};
  EXPECT_DOUBLE_EQ(s.at(10), 1e-3);
}

TEST(LrSchedule, ConstantWhenDisabled) {
  const LrSchedule s{0.2, 0.5, 0, 1e-4};
  EXPECT_DOUBLE_EQ(s.at(1000000), 0.2);
}

TEST(Models, VggMiniShapes) {
  Rng rng(5);
  VggMiniConfig cfg;
  cfg.in_hw = 16;
  Network net = make_vgg_mini(cfg, software_store_factory(),
                              software_store_factory(), rng);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  Tensor logits = net.forward(x, false);
  EXPECT_EQ(logits.shape(), (Shape{2, 10}));
  // 4 conv + 3 fc matrix layers by default.
  EXPECT_EQ(net.matrix_layers().size(), 7u);
}

TEST(Models, VggMiniBackwardRuns) {
  Rng rng(6);
  VggMiniConfig cfg;
  cfg.in_hw = 8;
  cfg.conv_channels = {8, 8};
  cfg.pool_after = {0, 1};
  cfg.fc_hidden = {16};
  Network net = make_vgg_mini(cfg, software_store_factory(),
                              software_store_factory(), rng);
  Tensor x = Tensor::randn({4, 3, 8, 8}, rng);
  Tensor logits = net.forward(x, true);
  const LossResult loss = softmax_cross_entropy(logits, {0, 1, 2, 3});
  Tensor gx = net.backward(loss.grad_logits);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(Models, MlpRequiresTwoDims) {
  Rng rng(7);
  EXPECT_THROW(make_mlp({5}, software_store_factory(), rng), CheckError);
}

TEST(SliceBatch, Extracts) {
  Tensor d({3, 2}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor s = slice_batch(d, 1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(s.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(s.at(1, 1), 6.0f);
}

TEST(Evaluate, MatchesAccuracy) {
  Rng rng(8);
  Network net = make_mlp({4, 2}, software_store_factory(), rng);
  Tensor x;
  std::vector<std::uint8_t> y;
  make_toy(rng, 50, x, y);
  const double e = net.evaluate(x, y);
  const double a = accuracy(net.forward(x, false), y);
  EXPECT_EQ(e, a);
}

/// Restores the default global pool when a test is done overriding it.
struct PoolGuard {
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

/// evaluate() against one serial full-batch forward, at 1 and 4 threads:
/// 16-sample chunks forwarded on the pool's lanes, as evaluate() runs
/// them, give the full batch's logits bit for bit, and evaluate() its
/// accuracy exactly. `stale` runs before each forward pass and may leave
/// a store's read-out cache stale without changing what it computes.
void expect_chunks_match_full_batch(Network& net, const Tensor& x,
                                    const std::vector<std::uint8_t>& y,
                                    const std::function<void()>& stale) {
  constexpr std::size_t kChunk = 16;
  const std::size_t n = x.dim(0);
  ThreadPool::set_global_threads(1);
  stale();
  const Tensor full = net.forward(x, /*train=*/false);
  const double want = accuracy(full, y);
  const std::size_t cols = full.dim(1);
  for (const std::size_t threads : {1UL, 4UL}) {
    SCOPED_TRACE(threads);
    ThreadPool::set_global_threads(threads);
    stale();
    EXPECT_EQ(net.evaluate(x, y), want);
    std::vector<Tensor> parts((n + kChunk - 1) / kChunk);
    parallel_for(parts.size(), [&](std::size_t c0, std::size_t c1) {
      for (std::size_t c = c0; c < c1; ++c) {
        const std::size_t begin = c * kChunk;
        parts[c] = net.forward(
            slice_batch(x, begin, std::min(begin + kChunk, n)), false);
      }
    });
    for (std::size_t c = 0; c < parts.size(); ++c) {
      ASSERT_EQ(parts[c].dim(1), cols);
      EXPECT_EQ(std::memcmp(parts[c].data(), full.data() + c * kChunk * cols,
                            parts[c].numel() * sizeof(float)),
                0)
          << "chunk " << c;
    }
  }
}

TEST(Evaluate, ChunkedMatchesOneBatchForward) {
  PoolGuard guard;
  {
    SCOPED_TRACE("mlp");
    Rng rng(9);
    Network net = make_mlp({4, 12, 2}, software_store_factory(), rng);
    Tensor x;
    std::vector<std::uint8_t> y;
    make_toy(rng, 50, x, y);  // three full chunks and a 2-sample tail
    expect_chunks_match_full_batch(net, x, y, [] {});
  }
  {
    SCOPED_TRACE("crossbar vgg-mini");
    RcsConfig rc;
    rc.tile_rows = 16;  // several tiles per layer
    rc.tile_cols = 16;
    rc.fabrication.fraction = 0.1;
    RcsSystem rcs(rc, Rng(10));
    VggMiniConfig cfg;
    cfg.in_hw = 8;
    cfg.conv_channels = {8, 8};
    cfg.pool_after = {0, 1};
    cfg.fc_hidden = {16};
    Rng rng(11);
    Network net = make_vgg_mini(cfg, rcs.factory(), rcs.factory(), rng);
    const Tensor x = Tensor::randn({40, 3, 8, 8}, rng);
    std::vector<std::uint8_t> y(40);
    for (std::size_t i = 0; i < y.size(); ++i) y[i] = i % 10;
    // Re-pinning a stuck cell bumps its tile's mutation count, so
    // evaluate() must re-pack that panel block on the caller before its
    // lanes read the panel.
    Crossbar& tile = rcs.stores()[1]->tile(0, 0);
    expect_chunks_match_full_batch(net, x, y, [&] {
      tile.force_fault(2, 3, FaultKind::kStuckAt1);
    });
  }
}

/// Counter total from the process-wide registry (0 when never recorded).
std::uint64_t counter_total(const std::string& name) {
  for (const obs::MetricSnapshot& m :
       obs::MetricsRegistry::instance().snapshot()) {
    if (m.name == name) return m.count;
  }
  return 0;
}

/// Restores the metrics switch and the default pool after a test.
struct MetricsOn {
  MetricsOn() : was_(obs::metrics_enabled()) {
    obs::MetricsRegistry::instance().set_enabled(true);
  }
  ~MetricsOn() {
    obs::MetricsRegistry::instance().set_enabled(was_);
    ThreadPool::set_global_threads(1);
  }
  bool was_;
};

/// Every parameter gradient, copied in params() order.
std::vector<Tensor> grads_of(Network& net) {
  std::vector<Tensor> out;
  for (const Param& p : net.params()) out.push_back(*p.grad);
  return out;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// train_gradients' chunked job at 1–4 threads against the layer-by-layer
/// whole-batch forward(train), loss and backward at 1 thread: the logits
/// and every parameter gradient bit for bit, and the same fused-forward
/// and GEMM-flop counts at every thread count. `stale` runs before each
/// pass and leaves a crossbar tile's read-out cache stale, so the lanes
/// would race on its re-pack unless train_gradients made it current first.
void expect_chunked_train_matches_layers(Network& net, const Tensor& images,
                                         Crossbar& tile) {
  // Re-pinning a stuck cell changes nothing after the first time, but
  // bumps the tile's mutation count.
  const auto stale = [&] { tile.force_fault(2, 3, FaultKind::kStuckAt1); };
  std::vector<std::uint8_t> all(images.dim(0));
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = (i * 7 + 3) % 10;
  for (const std::size_t batch : {8UL, 7UL, 1UL}) {
    SCOPED_TRACE(batch);
    const Tensor x = slice_batch(images, 0, batch);
    const std::vector<std::uint8_t> y(all.begin(), all.begin() + batch);
    ThreadPool::set_global_threads(1);
    net.zero_grad();
    stale();
    Tensor want = x;
    for (std::size_t i = 0; i < net.size(); ++i)
      want = net.layer(i).forward(want, /*train=*/true);
    Tensor grad = softmax_cross_entropy(want, y).grad_logits;
    for (std::size_t i = net.size(); i-- > 0;)
      grad = net.layer(i).backward(grad);
    const std::vector<Tensor> want_grads = grads_of(net);
    std::uint64_t want_calls = 0, want_flops = 0;
    for (const std::size_t threads : {1UL, 2UL, 3UL, 4UL}) {
      SCOPED_TRACE(threads);
      ThreadPool::set_global_threads(threads);
      net.zero_grad();
      stale();
      const std::uint64_t calls0 = counter_total("store.fused_forward.calls");
      const std::uint64_t flops0 = counter_total("tensor.gemm.flops");
      const Tensor logits = net.train_gradients(x, y);
      const std::uint64_t calls =
          counter_total("store.fused_forward.calls") - calls0;
      const std::uint64_t flops = counter_total("tensor.gemm.flops") - flops0;
      EXPECT_TRUE(same_bits(logits, want));
      const std::vector<Tensor> got = grads_of(net);
      ASSERT_EQ(got.size(), want_grads.size());
      for (std::size_t p = 0; p < got.size(); ++p)
        EXPECT_TRUE(same_bits(got[p], want_grads[p])) << "param " << p;
      if (threads == 1) {
        want_calls = calls;
        want_flops = flops;
        EXPECT_GT(flops, 0u);
      }
      EXPECT_EQ(calls, want_calls);
      EXPECT_EQ(flops, want_flops);
    }
  }
}

TEST(TrainStep, ChunkedMatchesWholeBatchLayers) {
  MetricsOn metrics;
  RcsConfig rc;
  rc.tile_rows = 16;  // several tiles per layer
  rc.tile_cols = 16;
  rc.fabrication.fraction = 0.1;
  {
    SCOPED_TRACE("crossbar mlp");
    RcsSystem rcs(rc, Rng(12));
    Rng rng(13);
    // 100 inputs: two weight-gradient row blocks; 37 hidden: a part strip.
    Network net = make_mlp({100, 37, 10}, rcs.factory(), rng);
    expect_chunked_train_matches_layers(net, Tensor::randn({8, 100}, rng),
                                        rcs.stores()[0]->tile(0, 0));
  }
  {
    SCOPED_TRACE("crossbar vgg-mini");
    RcsSystem rcs(rc, Rng(14));
    Rng rng(15);
    Network net = make_vgg_mini(VggMiniConfig{}, rcs.factory(),
                                rcs.factory(), rng);
    expect_chunked_train_matches_layers(net,
                                        Tensor::randn({8, 3, 16, 16}, rng),
                                        rcs.stores()[1]->tile(0, 0));
  }
  {
    SCOPED_TRACE("fc-only vgg-mini");
    RcsSystem rcs(rc, Rng(16));
    Rng rng(17);
    Network net = make_vgg_mini(VggMiniConfig{}, software_store_factory(),
                                rcs.factory(), rng);
    expect_chunked_train_matches_layers(net,
                                        Tensor::randn({8, 3, 16, 16}, rng),
                                        rcs.stores()[0]->tile(0, 0));
  }
}

TEST(Vgg11Preset, TopologyMatchesPaper) {
  const VggMiniConfig cfg = vgg11_config();
  EXPECT_EQ(cfg.conv_channels.size(), 8u);  // 8 Conv layers
  EXPECT_EQ(cfg.fc_hidden.size(), 2u);      // +1 output = 3 FC layers
  EXPECT_EQ(cfg.in_hw, 32u);
  // Weight count ≈ the paper's 7.66M ("total weight amount is 7.66M").
  std::size_t weights = 0;
  std::size_t ch = cfg.in_channels;
  std::size_t hw = cfg.in_hw;
  for (std::size_t i = 0; i < cfg.conv_channels.size(); ++i) {
    weights += ch * 9 * cfg.conv_channels[i];
    ch = cfg.conv_channels[i];
    for (std::size_t p : cfg.pool_after)
      if (p == i) hw /= 2;
  }
  std::size_t features = ch * hw * hw;
  for (std::size_t h : cfg.fc_hidden) {
    weights += features * h;
    features = h;
  }
  weights += features * cfg.num_classes;
  EXPECT_GT(weights, 7'000'000u);
  EXPECT_LT(weights, 11'000'000u);
}

TEST(Vgg11Preset, BuildsAndRunsForward) {
  // Construction programs ~9M cells; run a single tiny forward to verify
  // shapes end to end (software backend — this is a smoke test).
  Rng rng(1);
  const VggMiniConfig cfg = vgg11_config();
  Network net = make_vgg_mini(cfg, software_store_factory(),
                              software_store_factory(), rng);
  Tensor x = Tensor::randn({1, 3, 32, 32}, rng);
  const Tensor logits = net.forward(x, false);
  EXPECT_EQ(logits.shape(), (Shape{1, 10}));
  EXPECT_EQ(net.matrix_layers().size(), 11u);  // VGG-11
}

}  // namespace
}  // namespace refit
