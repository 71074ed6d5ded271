// Time-series telemetry: a sampler over MetricsRegistry driven through
// the obs Clock seam.
//
// The engine observer calls sample() at the end of every iteration and
// once more at the end of each detection round, so detection quality —
// precision/recall, accuracy, wear — is visible *as a function of
// training time*, not just as an end-of-run snapshot. Samples land in a
// bounded ring (the most recent kCapacity are kept) and flush as JSONL
// via write_jsonl().
//
// Determinism: sampling happens on the calling thread and reads the
// injected clock once per sample, so under ManualClock the JSONL output
// is byte-identical at any worker-thread count — provided
// thread-count-dependent metric *names* are excluded, which is why
// metrics under "pool." are skipped (pool.worker.<lane>.busy_ns changes
// name set with the lane count and measures the host, not the model).
// Golden-tested in tests/test_timeseries.cpp.
//
// The recorder starts disabled and sample() is a relaxed load until
// set_enabled(true). State is intentionally leaked (never destroyed).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace refit::obs {

/// One sampled metric, condensed: histograms keep count/sum/percentiles,
/// not the full bucket array (the end-of-run snapshot has those).
struct TimeseriesValue {
  std::string name;
  MetricType type = MetricType::kCounter;
  double value = 0.0;       // gauge value / histogram sum
  std::uint64_t count = 0;  // counter total / histogram sample count
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;  // histogram only
};

struct TimeseriesSample {
  std::uint64_t seq = 0;        // global sample index (counts dropped ones)
  std::uint64_t t_ns = 0;       // obs::now_ns() at sample time
  std::uint64_t iteration = 0;  // engine iteration passed by the caller
  std::vector<TimeseriesValue> values;  // name-sorted (registry order)
};

class TimeseriesRecorder {
 public:
  /// Ring capacity: the recorder keeps the most recent kCapacity samples.
  static constexpr std::size_t kCapacity = 4096;

  static TimeseriesRecorder& global();

  /// Runtime gate (starts disabled). A disabled sample() never reads the
  /// clock, so leaving the recorder off cannot perturb golden traces.
  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const;

  /// Record one snapshot of every metric outside "pool." at now_ns().
  void sample(std::uint64_t iteration);

  /// Total samples ever taken (including any the ring has dropped).
  [[nodiscard]] std::uint64_t sampled() const;

  /// Retained samples in order.
  [[nodiscard]] std::vector<TimeseriesSample> samples() const;

  /// One JSON object per line, one line per sample.
  void write_jsonl(std::ostream& os) const;

  /// Drop retained samples and reset the sequence counter.
  void reset_for_tests();

 private:
  TimeseriesRecorder();
  ~TimeseriesRecorder() = delete;  // leaked singleton — see header comment
  struct Impl;
  Impl* impl_;
};

}  // namespace refit::obs
