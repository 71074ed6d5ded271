// Tests for the observability layer (src/obs) and its engine wiring:
//
//   * counter/gauge/histogram correctness under an 8-thread hammering
//     through the real ThreadPool (the lock-free increment path),
//   * snapshot determinism (sorted by name) and JSON/CSV serialization,
//   * Chrome trace-event output: parse-back with a minimal JSON reader,
//     and the headline golden-trace property — under an injected
//     ManualClock the emitted trace bytes are identical at 1 and at
//     4 threads,
//   * engine integration: exactly one "phase"-category span per executed
//     Phase::run, independent of the pool size, plus the metric catalogue
//     entries documented in docs/observability.md,
//   * the drivers' capture flags (obs/capture.hpp): the metrics suffix
//     picks CSV or JSON, --manual-clock installs a ManualClock, other
//     arguments pass through, and no flag enables nothing.
//
// Every test runs through the ObsTest fixture, which resets the registry
// and tracer, enables both layers, and restores the steady clock and the
// 1-thread pool on teardown — so test order never matters.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/obs_observer.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "obs/capture.hpp"
#include "obs/clock.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace refit {
namespace {

using obs::MetricSnapshot;
using obs::MetricsRegistry;
using obs::MetricType;
using obs::Tracer;

// ---------------------------------------------------------------------------
// Minimal JSON validator / reader (recursive descent). Enough to parse
// the trace and metrics output this layer emits; rejects trailing junk.
// ---------------------------------------------------------------------------

struct JsonReader {
  const std::string& s;
  std::size_t p = 0;
  bool ok = true;

  explicit JsonReader(const std::string& text) : s(text) {}

  void ws() {
    while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p])))
      ++p;
  }
  bool eat(char c) {
    ws();
    if (p < s.size() && s[p] == c) {
      ++p;
      return true;
    }
    ok = false;
    return false;
  }
  bool peek(char c) {
    ws();
    return p < s.size() && s[p] == c;
  }

  void value() {
    ws();
    if (p >= s.size()) {
      ok = false;
      return;
    }
    const char c = s[p];
    if (c == '{') {
      object();
    } else if (c == '[') {
      array();
    } else if (c == '"') {
      string();
    } else if (c == 't') {
      literal("true");
    } else if (c == 'f') {
      literal("false");
    } else if (c == 'n') {
      literal("null");
    } else {
      number();
    }
  }
  void literal(const char* lit) {
    for (const char* q = lit; *q != '\0'; ++q) {
      if (p >= s.size() || s[p] != *q) {
        ok = false;
        return;
      }
      ++p;
    }
  }
  void number() {
    const std::size_t start = p;
    if (p < s.size() && (s[p] == '-' || s[p] == '+')) ++p;
    while (p < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[p])) || s[p] == '.' ||
            s[p] == 'e' || s[p] == 'E' || s[p] == '-' || s[p] == '+'))
      ++p;
    if (p == start) ok = false;
  }
  void string() {
    if (!eat('"')) return;
    while (p < s.size() && s[p] != '"') {
      if (s[p] == '\\') ++p;  // skip the escaped character
      ++p;
    }
    if (p >= s.size()) {
      ok = false;
      return;
    }
    ++p;  // closing quote
  }
  void array() {
    if (!eat('[')) return;
    if (peek(']')) {
      eat(']');
      return;
    }
    while (ok) {
      value();
      if (peek(']')) {
        eat(']');
        return;
      }
      if (!eat(',')) return;
    }
  }
  void object() {
    if (!eat('{')) return;
    if (peek('}')) {
      eat('}');
      return;
    }
    while (ok) {
      string();
      if (!eat(':')) return;
      value();
      if (peek('}')) {
        eat('}');
        return;
      }
      if (!eat(',')) return;
    }
  }

  /// Whole-document parse: one value plus trailing whitespace only.
  bool parse() {
    value();
    ws();
    return ok && p == s.size();
  }
};

bool valid_json(const std::string& text) { return JsonReader(text).parse(); }

// ---------------------------------------------------------------------------
// Fixture
// ---------------------------------------------------------------------------

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::instance().reset_for_tests();
    Tracer::global().reset();
    MetricsRegistry::instance().set_enabled(true);
    Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    MetricsRegistry::instance().set_enabled(false);
    Tracer::global().set_enabled(false);
    Tracer::global().reset();
    MetricsRegistry::instance().reset_for_tests();
    obs::set_clock(nullptr);
    ThreadPool::set_global_threads(1);
  }

  static const MetricSnapshot* find(const std::vector<MetricSnapshot>& snap,
                                    const std::string& name) {
    for (const MetricSnapshot& m : snap)
      if (m.name == name) return &m;
    return nullptr;
  }
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST_F(ObsTest, CounterGaugeHistogramUnderThreadHammering) {
  obs::Counter c =
      MetricsRegistry::instance().counter("test.hammer.count", "ops");
  obs::Gauge g = MetricsRegistry::instance().gauge("test.hammer.gauge");
  obs::Histogram h = MetricsRegistry::instance().histogram(
      "test.hammer.hist", {1.0, 10.0, 100.0}, "units");

  ThreadPool::set_global_threads(8);
  constexpr std::size_t kN = 100000;
  ThreadPool::global().parallel_for(kN, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      c.add();
      g.set(static_cast<double>(i));
      h.observe(static_cast<double>(i % 200));
    }
  });

  const auto snap = MetricsRegistry::instance().snapshot();
  const MetricSnapshot* cs = find(snap, "test.hammer.count");
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->type, MetricType::kCounter);
  EXPECT_EQ(cs->count, kN);  // no lost increments
  EXPECT_EQ(cs->unit, "ops");

  const MetricSnapshot* gs = find(snap, "test.hammer.gauge");
  ASSERT_NE(gs, nullptr);
  EXPECT_EQ(gs->type, MetricType::kGauge);
  EXPECT_GE(gs->value, 0.0);  // last-writer value: some observed index
  EXPECT_LT(gs->value, static_cast<double>(kN));

  // i % 200 over 100000 samples: 500 full cycles of 0..199.
  //   bucket <=1: {0,1}=2 per cycle; <=10: {2..10}=9; <=100: {11..100}=90;
  //   overflow: {101..199}=99.
  const MetricSnapshot* hs = find(snap, "test.hammer.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->type, MetricType::kHistogram);
  EXPECT_EQ(hs->count, kN);
  ASSERT_EQ(hs->buckets.size(), 4u);
  EXPECT_EQ(hs->buckets[0], 2u * 500);
  EXPECT_EQ(hs->buckets[1], 9u * 500);
  EXPECT_EQ(hs->buckets[2], 90u * 500);
  EXPECT_EQ(hs->buckets[3], 99u * 500);
  // Sum of 0..199 is 19900 per cycle; CAS accumulation loses nothing.
  EXPECT_DOUBLE_EQ(hs->value, 19900.0 * 500);
}

TEST_F(ObsTest, SnapshotIsSortedByNameAndRegistrationIsIdempotent) {
  MetricsRegistry::instance().counter("test.z.last").add(3);
  MetricsRegistry::instance().counter("test.a.first").add(1);
  MetricsRegistry::instance().counter("test.m.middle").add(2);
  // Re-registering the same name returns the same cell, not a fresh one.
  MetricsRegistry::instance().counter("test.a.first").add(10);

  const auto snap = MetricsRegistry::instance().snapshot();
  std::vector<std::string> names;
  for (const MetricSnapshot& m : snap) names.push_back(m.name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  const MetricSnapshot* a = find(snap, "test.a.first");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->count, 11u);
}

TEST_F(ObsTest, DisabledHandlesRecordNothing) {
  obs::Counter c = MetricsRegistry::instance().counter("test.gated");
  c.add(5);
  MetricsRegistry::instance().set_enabled(false);
  c.add(7);  // dropped: the runtime gate is off
  MetricsRegistry::instance().set_enabled(true);
  c.add(1);
  const auto snap = MetricsRegistry::instance().snapshot();
  const MetricSnapshot* cs = find(snap, "test.gated");
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->count, 6u);
}

TEST_F(ObsTest, JsonAndCsvSnapshotsParse) {
  MetricsRegistry::instance().counter("test.out.count", "ops").add(42);
  MetricsRegistry::instance().gauge("test.out.gauge").set(0.25);
  MetricsRegistry::instance()
      .histogram("test.out.hist", {1.0, 2.0})
      .observe(1.5);

  std::ostringstream js;
  MetricsRegistry::instance().write_json(js);
  EXPECT_TRUE(valid_json(js.str())) << js.str();
  EXPECT_NE(js.str().find("\"test.out.count\""), std::string::npos);
  EXPECT_NE(js.str().find("\"value\":42"), std::string::npos);

  std::ostringstream cs;
  MetricsRegistry::instance().write_csv(cs);
  const std::string csv = cs.str();
  EXPECT_EQ(csv.rfind("name,type,unit,value,count,p50,p95,p99,buckets\n", 0),
            0u);
  EXPECT_NE(csv.find("test.out.count,counter,ops,42"), std::string::npos);
  // Histogram rows carry the interpolated percentile columns; scalar rows
  // leave them empty.
  EXPECT_NE(js.str().find("\"p50\":"), std::string::npos);
  EXPECT_NE(csv.find("test.out.count,counter,ops,42,42,,,"),
            std::string::npos);

  // Two snapshots with no writes in between are byte-identical.
  std::ostringstream js2;
  MetricsRegistry::instance().write_json(js2);
  EXPECT_EQ(js.str(), js2.str());
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST_F(ObsTest, TraceSpansRecordAndSerialize) {
  obs::ManualClock clock(1000);  // 1 µs per tick
  obs::set_clock(&clock);
  {
    obs::TraceSpan outer("outer", "test");
    obs::TraceSpan inner("inner", "test");
  }
  Tracer::global().emit_complete("manual", "test", 50000, 1500);

  const auto events = Tracer::global().collect();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by ts: outer (t=1000), inner (t=2000), manual (t=50000).
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[2].name, "manual");
  // inner closes before outer: strictly nested durations.
  EXPECT_GT(events[0].dur_ns, events[1].dur_ns);

  std::ostringstream os;
  Tracer::global().write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // 50000 ns → "50.000" µs with fixed 3-decimal formatting.
  EXPECT_NE(json.find("\"ts\":50.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.500"), std::string::npos);
}

TEST_F(ObsTest, SpansInsidePoolChunksAreNotRecorded) {
  // A span inside a chunk would land on whichever thread ran the chunk:
  // the caller at 1 thread, a worker or the caller at 4. Only the
  // caller's parallel_for span and the spans around it are recorded, and
  // the chunks read no clock, so the caller's timestamps match too.
  std::vector<obs::TraceEvent> traces[2];
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Tracer::global().reset();
    ThreadPool::set_global_threads(threads);
    obs::ManualClock clock(1000);
    obs::set_clock(&clock);
    parallel_for(64, [](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        obs::TraceSpan chunk("chunk", "test");
        parallel_for(4, [](std::size_t, std::size_t) {
          obs::TraceSpan nested("nested", "test");
        });
      }
    });
    { obs::TraceSpan after("after", "test"); }
    traces[threads == 1 ? 0 : 1] = Tracer::global().collect();
    obs::set_clock(nullptr);
  }
  for (const auto& events : traces) {
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].name, "parallel_for");
    EXPECT_EQ(events[1].name, "after");
  }
  EXPECT_EQ(traces[0][1].ts_ns, traces[1][1].ts_ns);
}

TEST_F(ObsTest, DisabledTracerEmitsEmptyDocument) {
  Tracer::global().set_enabled(false);
  {
    obs::TraceSpan span("ignored", "test");
  }
  EXPECT_TRUE(Tracer::global().collect().empty());
  std::ostringstream os;
  Tracer::global().write_chrome_json(os);
  EXPECT_EQ(os.str(), "{\"traceEvents\":[]}\n");
  EXPECT_TRUE(valid_json(os.str()));
}

TEST_F(ObsTest, TraceJsonEscapesSpecialCharacters) {
  Tracer::global().emit_complete("quote\"back\\slash\tname", "test", 0, 1);
  std::ostringstream os;
  Tracer::global().write_chrome_json(os);
  EXPECT_TRUE(valid_json(os.str())) << os.str();
  EXPECT_NE(os.str().find("quote\\\"back\\\\slash\\u0009name"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine integration + golden trace
// ---------------------------------------------------------------------------

/// A small full-flow training run (threshold + detection + remap) under
/// the currently installed clock; returns the serialized trace bytes.
std::string run_and_trace(std::size_t threads) {
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
  Tracer::global().write_chrome_json(os);
  return os.str();
}

TEST_F(ObsTest, GoldenTraceIsByteStableAcrossRunsAndThreadCounts) {
  // Fresh ManualClock per run: every run sees the identical timestamp
  // sequence, so the traces must match byte for byte — including between
  // a 1-thread and a 4-thread pool, because spans are recorded only on
  // the caller thread and ManualClock sequences are per-thread.
  obs::ManualClock c1(1000);
  obs::set_clock(&c1);
  const std::string t1 = run_and_trace(1);
  Tracer::global().reset();

  obs::ManualClock c1b(1000);
  obs::set_clock(&c1b);
  const std::string t1b = run_and_trace(1);
  Tracer::global().reset();

  obs::ManualClock c4(1000);
  obs::set_clock(&c4);
  const std::string t4 = run_and_trace(4);

  EXPECT_FALSE(t1.empty());
  EXPECT_TRUE(valid_json(t1));
  EXPECT_EQ(t1, t1b) << "same-thread-count repeat must be byte-identical";
  EXPECT_EQ(t1, t4) << "trace must not depend on the pool size";
}

/// Counts phase executions exactly as the engine reports them.
struct PhaseCounter final : EngineObserver {
  std::map<std::string, int> runs;
  void on_phase_end(const Phase& phase, const EngineContext& ctx) override {
    (void)ctx;
    ++runs[phase.name()];
  }
};

TEST_F(ObsTest, OneTraceSpanPerExecutedPhase) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    Tracer::global().reset();
    ThreadPool::set_global_threads(threads);

    SyntheticConfig dc;
    dc.train_size = 64;
    dc.test_size = 32;
    Rng drng(1);
    const Dataset data = make_synthetic_mnist(dc, drng);
    RcsConfig rc;
    rc.tile_rows = 64;
    rc.tile_cols = 64;
    RcsSystem rcs(rc, Rng(42));
    Rng nrng(2);
    Network net = make_mlp({784, 16, 10}, rcs.factory(), nrng);

    FtFlowConfig flow;
    flow.iterations = 6;
    flow.batch_size = 4;
    flow.eval_period = 3;
    flow.eval_samples = 32;
    flow.detection_enabled = true;
    flow.detection_period = 3;

    FtEngine engine(flow);
    ObsObserver observer;
    PhaseCounter phase_counter;
    engine.add_observer(&observer);
    engine.add_observer(&phase_counter);
    (void)engine.run(net, &rcs, data, Rng(3));

    std::map<std::string, int> spans;
    for (const obs::TraceEvent& ev : Tracer::global().collect())
      if (ev.category == "phase") ++spans[ev.name];
    EXPECT_EQ(spans, phase_counter.runs);
    EXPECT_EQ(spans.count("train-step"), 1u);
    EXPECT_EQ(spans["train-step"], 6);
  }
}

TEST_F(ObsTest, EngineRunPopulatesTheMetricCatalogue) {
  obs::ManualClock clock(1000);
  obs::set_clock(&clock);
  (void)run_and_trace(1);

  const auto snap = MetricsRegistry::instance().snapshot();
  const char* expected[] = {
      "engine.runs",          "engine.iterations",
      "engine.run_ns",        "engine.phase.train-step.runs",
      "engine.phase.train-step.ns", "engine.phase_ns",
      "store.writes",         "store.fused_forward.calls",
      "store.fused_pack_tiles", "detector.rounds",
      "detector.cycles",      "detector.cells_tested",
      "detector.pulses",      "detector.adc_reads",
      "detector.precision",   "detector.recall",
      "pool.parallel_for.calls",
  };
  for (const char* name : expected)
    EXPECT_NE(find(snap, name), nullptr) << "missing metric " << name;

  const MetricSnapshot* iters = find(snap, "engine.iterations");
  ASSERT_NE(iters, nullptr);
  EXPECT_EQ(iters->count, 6u);
  const MetricSnapshot* writes = find(snap, "store.writes");
  ASSERT_NE(writes, nullptr);
  EXPECT_GT(writes->count, 0u);
  const MetricSnapshot* runs = find(snap, "engine.phase.train-step.runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(runs->count, 6u);
}

TEST_F(ObsTest, ObsObserverTimingTableListsEveryPhase) {
  obs::ManualClock clock(1000);
  obs::set_clock(&clock);
  ThreadPool::set_global_threads(1);

  SyntheticConfig dc;
  dc.train_size = 64;
  dc.test_size = 32;
  Rng drng(1);
  const Dataset data = make_synthetic_mnist(dc, drng);
  RcsConfig rc;
  rc.tile_rows = 64;
  rc.tile_cols = 64;
  RcsSystem rcs(rc, Rng(42));
  Rng nrng(2);
  Network net = make_mlp({784, 16, 10}, rcs.factory(), nrng);

  FtFlowConfig flow;
  flow.iterations = 4;
  flow.batch_size = 4;
  flow.eval_period = 2;
  flow.eval_samples = 32;

  FtEngine engine(flow);
  ObsObserver observer;
  engine.add_observer(&observer);
  (void)engine.run(net, &rcs, data, Rng(3));

  ASSERT_FALSE(observer.phase_stats().empty());
  EXPECT_GT(observer.run_ns(), 0u);
  const std::string table = observer.timing_table();
  EXPECT_NE(table.find("phase"), std::string::npos);
  EXPECT_NE(table.find("train-step"), std::string::npos);
  EXPECT_NE(table.find("eval"), std::string::npos);
  for (const ObsObserver::PhaseStat& st : observer.phase_stats()) {
    EXPECT_GT(st.runs, 0u);
    EXPECT_GT(st.total_ns, 0u) << st.name;
  }
}

// ---------------------------------------------------------------------------
// Capture flags (obs/capture.hpp)
// ---------------------------------------------------------------------------

// Starts with every obs layer off and turns them all off again on
// teardown; ObsTest's teardown restores the steady clock.
class ObsCaptureTest : public ObsTest {
 protected:
  void SetUp() override {
    ObsTest::SetUp();
    enable_all(false);
  }
  void TearDown() override {
    enable_all(false);
    obs::TimeseriesRecorder::global().reset_for_tests();
    obs::EventLog::global().reset_for_tests();
    ObsTest::TearDown();
  }

  static void enable_all(bool on) {
    MetricsRegistry::instance().set_enabled(on);
    Tracer::global().set_enabled(on);
    obs::TimeseriesRecorder::global().set_enabled(on);
    obs::EventLog::global().set_enabled(on);
  }

  /// init_obs over `args`, with a program name prepended as argv[0].
  static obs::ObsOptions init(std::vector<std::string> args) {
    args.insert(args.begin(), "prog");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    return obs::init_obs(static_cast<int>(argv.size()), argv.data());
  }

  static std::string slurp(const std::string& path) {
    std::ifstream is(path);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
  }
};

TEST_F(ObsCaptureTest, MetricsOutSuffixSelectsCsvOrJson) {
  const std::string csv = ::testing::TempDir() + "refit_capture_metrics.csv";
  const std::string txt = ::testing::TempDir() + "refit_capture_metrics.txt";

  const obs::ObsOptions opts = init({"--metrics-out=" + csv});
  EXPECT_EQ(opts.metrics_out, csv);
  EXPECT_TRUE(MetricsRegistry::instance().enabled());
  EXPECT_FALSE(Tracer::global().enabled());
  obs::write_obs(opts);
  obs::write_obs(init({"--metrics-out=" + txt}));

  EXPECT_EQ(slurp(csv).rfind("name,type,unit,value,", 0), 0u);
  const std::string json = slurp(txt);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  std::remove(csv.c_str());
  std::remove(txt.c_str());
}

TEST_F(ObsCaptureTest, ManualClockFlagInstallsManualClock) {
  const obs::ObsOptions opts = init({"--manual-clock"});
  EXPECT_TRUE(opts.manual_clock);
  EXPECT_FALSE(opts.enabled());
  // A ManualClock steps a fixed 1000 ns per call on each thread.
  const std::uint64_t a = obs::now_ns();
  const std::uint64_t b = obs::now_ns();
  EXPECT_EQ(a % 1000u, 0u);
  EXPECT_EQ(b - a, 1000u);
}

TEST_F(ObsCaptureTest, UnrecognisedArgumentsAreLeftAlone) {
  const std::vector<std::string> args = {"model=cnn", "iters=5",
                                         "--trace-out", "--manual-clock=1"};
  const obs::ObsOptions opts = init(args);
  EXPECT_FALSE(opts.enabled());
  EXPECT_FALSE(opts.manual_clock);
  for (const std::string& a : args) EXPECT_FALSE(obs::is_obs_flag(a)) << a;
  EXPECT_TRUE(obs::is_obs_flag("--trace-out=t.json"));
  EXPECT_TRUE(obs::is_obs_flag("--manual-clock"));
}

TEST_F(ObsCaptureTest, NoFlagEnablesNothing) {
  const obs::ObsOptions opts = init({});
  EXPECT_FALSE(opts.enabled());
  EXPECT_FALSE(opts.manual_clock);
  EXPECT_FALSE(MetricsRegistry::instance().enabled());
  EXPECT_FALSE(Tracer::global().enabled());
  EXPECT_FALSE(obs::TimeseriesRecorder::global().enabled());
  EXPECT_FALSE(obs::EventLog::global().enabled());
}

}  // namespace
}  // namespace refit
