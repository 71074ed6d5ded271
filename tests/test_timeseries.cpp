// Tests for the metrics sampler (src/obs/timeseries.hpp):
//
//   * ring capacity and the pool.* filter (pool.* metrics vary with the
//     lane count, so they are never sampled),
//   * JSONL serialization parses and carries the histogram percentiles,
//   * the headline golden property — under a fresh ManualClock per run
//     the JSONL emitted by a full engine run is byte-identical at 1 and
//     at 4 threads, because sampling happens only on the caller thread —
//     and the observer's sample schedule (every iteration, plus one extra
//     after each detection round).
//
// The fixture mirrors ObsTest in test_obs.cpp: reset + enable on setup,
// restore the steady clock and the 1-thread pool on teardown.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/obs_observer.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace refit {
namespace {

using obs::MetricsRegistry;
using obs::TimeseriesRecorder;

class TimeseriesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::instance().reset_for_tests();
    TimeseriesRecorder::global().reset_for_tests();
    MetricsRegistry::instance().set_enabled(true);
    TimeseriesRecorder::global().set_enabled(true);
  }
  void TearDown() override {
    TimeseriesRecorder::global().set_enabled(false);
    TimeseriesRecorder::global().reset_for_tests();
    MetricsRegistry::instance().set_enabled(false);
    MetricsRegistry::instance().reset_for_tests();
    obs::set_clock(nullptr);
    ThreadPool::set_global_threads(1);
  }
};

TEST_F(TimeseriesTest, SampleNowSnapshotsRegistryValues) {
  MetricsRegistry::instance().counter("ts.count").add(3);
  MetricsRegistry::instance().gauge("ts.gauge").set(0.5);
  MetricsRegistry::instance()
      .histogram("ts.hist", {1.0, 10.0}, "units")
      .observe(5.0);

  TimeseriesRecorder::global().sample(7);
  const auto samples = TimeseriesRecorder::global().samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].seq, 0u);
  EXPECT_EQ(samples[0].iteration, 7u);

  std::ostringstream os;
  TimeseriesRecorder::global().write_jsonl(os);
  const std::string line = os.str();
  EXPECT_NE(line.find("\"iteration\":7"), std::string::npos);
  EXPECT_NE(line.find("\"ts.count\":{\"count\":3}"), std::string::npos);
  EXPECT_NE(line.find("\"ts.gauge\":{\"value\":0.5}"), std::string::npos);
  // Histogram entries carry count/sum plus the interpolated percentiles.
  EXPECT_NE(line.find("\"p50\":"), std::string::npos);
  EXPECT_NE(line.find("\"p95\":"), std::string::npos);
}

TEST_F(TimeseriesTest, ExcludePrefixesDropPoolMetrics) {
  MetricsRegistry::instance().counter("pool.lane0.tasks").add(2);
  MetricsRegistry::instance().counter("ts.kept").add(1);
  TimeseriesRecorder::global().sample(0);
  std::ostringstream os;
  TimeseriesRecorder::global().write_jsonl(os);
  EXPECT_EQ(os.str().find("pool.lane0.tasks"), std::string::npos)
      << "pool.* names vary with the lane count and must be excluded";
  EXPECT_NE(os.str().find("ts.kept"), std::string::npos);
}

TEST_F(TimeseriesTest, RingDropsOldestBeyondCapacity) {
  constexpr std::size_t kCapacity = TimeseriesRecorder::kCapacity;
  constexpr std::size_t kExtra = 6;
  for (std::size_t i = 0; i < kCapacity + kExtra; ++i) {
    TimeseriesRecorder::global().sample(i);
  }
  const auto samples = TimeseriesRecorder::global().samples();
  ASSERT_EQ(samples.size(), kCapacity);
  EXPECT_EQ(samples.front().iteration, kExtra);  // oldest retained
  EXPECT_EQ(samples.front().seq, kExtra);
  EXPECT_EQ(samples.back().iteration, kCapacity + kExtra - 1);
  EXPECT_EQ(TimeseriesRecorder::global().sampled(),
            kCapacity + kExtra);  // total taken
}

TEST_F(TimeseriesTest, DisabledRecorderTakesNoSamples) {
  TimeseriesRecorder::global().set_enabled(false);
  TimeseriesRecorder::global().sample(0);
  TimeseriesRecorder::global().sample(1);
  EXPECT_EQ(TimeseriesRecorder::global().sampled(), 0u);
}

/// The same small full-flow run as test_obs.cpp's golden trace, returning
/// the timeseries JSONL bytes instead of the trace.
std::string run_and_dump(std::size_t threads) {
  ThreadPool::set_global_threads(threads);

  SyntheticConfig dc;
  dc.train_size = 64;
  dc.test_size = 32;
  Rng drng(1);
  const Dataset data = make_synthetic_mnist(dc, drng);

  RcsConfig rc;
  rc.tile_rows = 64;
  rc.tile_cols = 64;
  rc.inject_fabrication = true;
  rc.fabrication.fraction = 0.1;
  RcsSystem rcs(rc, Rng(42));

  Rng nrng(2);
  Network net = make_mlp({784, 16, 10}, rcs.factory(), nrng);

  FtFlowConfig flow;
  flow.iterations = 6;
  flow.batch_size = 4;
  flow.eval_period = 3;
  flow.eval_samples = 32;
  flow.threshold_training = true;
  flow.detection_enabled = true;
  flow.detection_period = 3;
  flow.remap_enabled = true;

  FtEngine engine(flow);
  ObsObserver observer;
  engine.add_observer(&observer);
  (void)engine.run(net, &rcs, data, Rng(3));

  std::ostringstream os;
  TimeseriesRecorder::global().write_jsonl(os);
  return os.str();
}

TEST_F(TimeseriesTest, GoldenJsonlIsByteStableAcrossRunsAndThreadCounts) {
  // Fresh ManualClock and zeroed registry per run: every run sees the
  // identical timestamp sequence and metric values, so the JSONL must
  // match byte for byte — including between a 1-thread and a 4-thread
  // pool, because samples are taken only on the caller thread and pool.*
  // metrics are excluded from sampling. A warmup run registers the full
  // metric name set first: registration is permanent (reset_for_tests
  // zeroes values but keeps names so live handles stay valid), so without
  // it the first run's early samples would carry fewer names than any
  // later run's.
  const auto fresh_run = [](std::size_t threads, obs::ManualClock* clock) {
    MetricsRegistry::instance().reset_for_tests();
    TimeseriesRecorder::global().reset_for_tests();
    TimeseriesRecorder::global().set_enabled(true);
    obs::set_clock(clock);
    return run_and_dump(threads);
  };
  obs::ManualClock warmup(1000);
  (void)fresh_run(1, &warmup);

  obs::ManualClock c1(1000);
  const std::string d1 = fresh_run(1, &c1);
  obs::ManualClock c1b(1000);
  const std::string d1b = fresh_run(1, &c1b);
  obs::ManualClock c4(1000);
  const std::string d4 = fresh_run(4, &c4);

  EXPECT_FALSE(d1.empty());
  EXPECT_EQ(d1, d1b) << "same-thread-count repeat must be byte-identical";
  EXPECT_EQ(d1, d4) << "timeseries must not depend on the pool size";

  // The schedule ObsObserver drives: one sample at the end of every
  // iteration, plus one right after each detection round (iterations 3
  // and 6), taken before that iteration's own sample.
  std::vector<std::uint64_t> schedule;
  for (const auto& s : TimeseriesRecorder::global().samples()) {
    schedule.push_back(s.iteration);
  }
  EXPECT_EQ(schedule,
            (std::vector<std::uint64_t>{1, 2, 3, 3, 4, 5, 6, 6}));
}

// Histogram percentiles are pure functions of the snapshot, so repeated
// serialization of an untouched registry is byte-identical.
TEST_F(TimeseriesTest, PercentileColumnsAreDeterministic) {
  obs::Histogram h = MetricsRegistry::instance().histogram(
      "ts.phist", {1.0, 10.0, 100.0}, "units");
  ThreadPool::set_global_threads(4);
  ThreadPool::global().parallel_for(1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      h.observe(static_cast<double>(i % 150));
    }
  });
  std::ostringstream a, b;
  MetricsRegistry::instance().write_csv(a);
  MetricsRegistry::instance().write_csv(b);
  EXPECT_EQ(a.str(), b.str());
  // The interpolation is monotone in the quantile.
  const auto snap = MetricsRegistry::instance().snapshot();
  for (const auto& m : snap) {
    if (m.name != "ts.phist") continue;
    const double p50 = m.percentile(0.50);
    const double p95 = m.percentile(0.95);
    const double p99 = m.percentile(0.99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_GT(p50, 0.0);
  }
}

}  // namespace
}  // namespace refit
