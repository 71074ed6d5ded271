// Tests for the structured event log (src/obs/events.hpp):
//
//   * emission order, sequence numbers, payload fidelity, JSONL shape,
//   * ring wraparound keeping the newest kCapacity events,
//   * engine integration — detection/remap/checkpoint events appear with
//     the documented details and fields, identically at 1 and 4 threads,
//   * the flight recorder — enabling the log installs a hook that dumps
//     the event tail to stderr when a REFIT_CHECK fails.
#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/obs_observer.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "obs/clock.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace refit {
namespace {

using obs::EventKind;
using obs::EventLog;
using obs::EventSeverity;

class EventsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EventLog::global().reset_for_tests();
    EventLog::global().set_enabled(true);
  }
  void TearDown() override {
    EventLog::global().set_enabled(false);
    EventLog::global().reset_for_tests();
    obs::set_clock(nullptr);
    ThreadPool::set_global_threads(1);
  }
};

TEST_F(EventsTest, EmitPreservesOrderPayloadAndNames) {
  obs::ManualClock clock(1000);
  obs::set_clock(&clock);
  EventLog::global().emit(EventKind::kFaultDetected, EventSeverity::kInfo,
                          "detection", {{"iteration", 3}, {"precision", 0.9}});
  EventLog::global().emit(EventKind::kRemap, EventSeverity::kWarn, "remap",
                          {{"cost_after", 12}});
  EventLog::global().emit(EventKind::kPhaseError, EventSeverity::kError,
                          "train", {});

  const auto events = EventLog::global().collect();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_LT(events[0].t_ns, events[1].t_ns);  // manual clock ticks forward
  EXPECT_EQ(events[0].kind, EventKind::kFaultDetected);
  EXPECT_EQ(events[0].detail, "detection");
  ASSERT_EQ(events[0].fields.size(), 2u);
  EXPECT_EQ(events[0].fields[0].first, "iteration");
  EXPECT_DOUBLE_EQ(events[0].fields[1].second, 0.9);
  EXPECT_EQ(events[1].severity, EventSeverity::kWarn);
  EXPECT_EQ(events[2].severity, EventSeverity::kError);

  std::ostringstream os;
  EventLog::global().write_jsonl(os);
  const std::string jsonl = os.str();
  EXPECT_NE(jsonl.find("\"kind\":\"fault-detected\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"severity\":\"warn\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"detail\":\"remap\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"fields\":{\"iteration\":3,\"precision\":0.9}"),
            std::string::npos);
  // One line per event.
  std::size_t lines = 0;
  for (const char c : jsonl) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3u);
}

TEST_F(EventsTest, KindAndSeverityNamesAreStable) {
  EXPECT_STREQ(obs::event_kind_name(EventKind::kFaultDetected),
               "fault-detected");
  EXPECT_STREQ(obs::event_kind_name(EventKind::kSoftClassified),
               "soft-classified");
  EXPECT_STREQ(obs::event_kind_name(EventKind::kRemap), "remap");
  EXPECT_STREQ(obs::event_kind_name(EventKind::kCheckpoint), "checkpoint");
  EXPECT_STREQ(obs::event_kind_name(EventKind::kPhaseError), "phase-error");
  EXPECT_STREQ(obs::event_severity_name(EventSeverity::kInfo), "info");
  EXPECT_STREQ(obs::event_severity_name(EventSeverity::kWarn), "warn");
  EXPECT_STREQ(obs::event_severity_name(EventSeverity::kError), "error");
}

TEST_F(EventsTest, DisabledLogRecordsNothing) {
  EventLog::global().set_enabled(false);
  EventLog::global().emit(EventKind::kRemap, EventSeverity::kInfo, {});
  EXPECT_EQ(EventLog::global().emitted(), 0u);
  EXPECT_TRUE(EventLog::global().collect().empty());
}

TEST_F(EventsTest, RingKeepsTheNewestEventsAfterWraparound) {
  const std::size_t n = EventLog::kCapacity + 100;
  for (std::size_t i = 0; i < n; ++i) {
    EventLog::global().emit(EventKind::kCheckpoint, EventSeverity::kInfo,
                            "wrap", {{"i", static_cast<double>(i)}});
  }
  EXPECT_EQ(EventLog::global().emitted(), n);
  const auto events = EventLog::global().collect();
  ASSERT_EQ(events.size(), EventLog::kCapacity);
  EXPECT_EQ(events.front().seq, 100u);  // the 100 oldest were overwritten
  EXPECT_EQ(events.back().seq, n - 1);
  EXPECT_DOUBLE_EQ(events.back().fields[0].second,
                   static_cast<double>(n - 1));
}

TEST_F(EventsTest, DumpTailPrintsTheLastEvents) {
  for (int i = 0; i < 50; ++i) {
    EventLog::global().emit(EventKind::kFaultDetected, EventSeverity::kInfo,
                            "detection", {{"iteration", static_cast<double>(i)}});
  }
  std::ostringstream os;
  EventLog::global().dump_tail(os, 8);
  const std::string tail = os.str();
  EXPECT_EQ(tail.find("iteration=41"), std::string::npos) << "before window";
  EXPECT_NE(tail.find("iteration=42"), std::string::npos) << "window start";
  EXPECT_NE(tail.find("iteration=49"), std::string::npos) << "window end";
  EXPECT_NE(tail.find("fault-detected"), std::string::npos);
}

TEST_F(EventsTest, FlightRecorderDumpsTailOnCheckFailure) {
  EventLog::global().emit(EventKind::kRemap, EventSeverity::kWarn, "remap",
                          {{"cost_after", 7}});
  // Capture stderr around the failing check; the hook installed by
  // set_enabled(true) must print the ring tail before the throw.
  std::ostringstream captured;
  std::streambuf* old = std::cerr.rdbuf(captured.rdbuf());
  EXPECT_THROW(REFIT_CHECK_MSG(1 == 2, "forced"), CheckError);
  std::cerr.rdbuf(old);
  const std::string err = captured.str();
  EXPECT_NE(err.find("flight recorder"), std::string::npos);
  EXPECT_NE(err.find("remap"), std::string::npos);
  EXPECT_NE(err.find("cost_after=7"), std::string::npos);
}

TEST_F(EventsTest, NoFlightRecorderDumpWhenLogDisabled) {
  EventLog::global().set_enabled(false);
  std::ostringstream captured;
  std::streambuf* old = std::cerr.rdbuf(captured.rdbuf());
  EXPECT_THROW(REFIT_CHECK(false), CheckError);
  std::cerr.rdbuf(old);
  EXPECT_EQ(captured.str().find("flight recorder"), std::string::npos);
}

/// The same small full-flow run as the other obs tests: detection + remap
/// + checkpoints over 6 iterations, returning the event JSONL.
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
  EventLog::global().write_jsonl(os);
  return os.str();
}

TEST_F(EventsTest, EngineEmitsDetectionEventsByteStablyAcrossThreadCounts) {
  obs::ManualClock c1(1000);
  obs::set_clock(&c1);
  const std::string d1 = run_and_dump(1);

  EventLog::global().reset_for_tests();
  obs::ManualClock c4(1000);
  obs::set_clock(&c4);
  const std::string d4 = run_and_dump(4);

  EXPECT_FALSE(d1.empty());
  EXPECT_NE(d1.find("\"kind\":\"fault-detected\""), std::string::npos);
  EXPECT_EQ(d1, d4) << "event log must not depend on the pool size";
}

}  // namespace
}  // namespace refit
