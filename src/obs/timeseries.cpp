// Ring-buffered sampler behind obs/timeseries.hpp: snapshots
// the MetricsRegistry through the Clock seam so JSONL output is
// byte-stable at any thread count under ManualClock.
#include "obs/timeseries.hpp"

#include <atomic>
#include <cstdio>
#include <deque>
#include <mutex>
#include <ostream>
#include <utility>

#include "obs/clock.hpp"

namespace refit::obs {

namespace {

/// %.12g, matching the metrics writers so goldens share one format.
void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  out += buf;
}

/// The pool's per-lane host-performance counters, whose *names* depend
/// on the worker-thread count.
bool excluded(const std::string& name) { return name.starts_with("pool."); }

}  // namespace

struct TimeseriesRecorder::Impl {
  std::atomic<bool> enabled{false};
  mutable std::mutex mu;
  std::deque<TimeseriesSample> ring;
  std::uint64_t next_seq = 0;

  // Sampling is cold (once per engine iteration); a mutex is fine here —
  // the lock-free discipline only matters on metric/event hot paths.
  void record(std::uint64_t iteration, std::uint64_t t_ns) {
    TimeseriesSample sample;
    sample.t_ns = t_ns;
    sample.iteration = iteration;
    for (const MetricSnapshot& s : MetricsRegistry::instance().snapshot()) {
      if (excluded(s.name)) continue;
      TimeseriesValue v;
      v.name = s.name;
      v.type = s.type;
      v.value = s.value;
      v.count = s.count;
      if (s.type == MetricType::kHistogram) {
        v.p50 = s.percentile(0.50);
        v.p95 = s.percentile(0.95);
        v.p99 = s.percentile(0.99);
      }
      sample.values.push_back(std::move(v));
    }
    std::lock_guard<std::mutex> lk(mu);
    sample.seq = next_seq++;
    ring.push_back(std::move(sample));
    if (ring.size() > kCapacity) ring.pop_front();
  }
};

TimeseriesRecorder::TimeseriesRecorder() : impl_(new Impl) {}

TimeseriesRecorder& TimeseriesRecorder::global() {
  static TimeseriesRecorder* recorder = new TimeseriesRecorder();  // leaked
  return *recorder;
}

void TimeseriesRecorder::set_enabled(bool on) {
  impl_->enabled.store(on, std::memory_order_relaxed);
}

bool TimeseriesRecorder::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void TimeseriesRecorder::sample(std::uint64_t iteration) {
  if (!enabled()) return;  // no clock read when disabled
  impl_->record(iteration, now_ns());
}

std::uint64_t TimeseriesRecorder::sampled() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->next_seq;
}

std::vector<TimeseriesSample> TimeseriesRecorder::samples() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return {impl_->ring.begin(), impl_->ring.end()};
}

void TimeseriesRecorder::write_jsonl(std::ostream& os) const {
  for (const TimeseriesSample& sample : samples()) {
    std::string line = "{\"seq\":";
    line += std::to_string(sample.seq);
    line += ",\"t_ns\":";
    line += std::to_string(sample.t_ns);
    line += ",\"iteration\":";
    line += std::to_string(sample.iteration);
    line += ",\"metrics\":{";
    bool first = true;
    for (const TimeseriesValue& v : sample.values) {
      if (!first) line += ',';
      first = false;
      line += '"';
      line += v.name;  // metric names are identifier-like, no escaping
      line += "\":{";
      switch (v.type) {
        case MetricType::kCounter:
          line += "\"count\":";
          line += std::to_string(v.count);
          break;
        case MetricType::kGauge:
          line += "\"value\":";
          append_double(line, v.value);
          break;
        case MetricType::kHistogram:
          line += "\"count\":";
          line += std::to_string(v.count);
          line += ",\"sum\":";
          append_double(line, v.value);
          line += ",\"p50\":";
          append_double(line, v.p50);
          line += ",\"p95\":";
          append_double(line, v.p95);
          line += ",\"p99\":";
          append_double(line, v.p99);
          break;
      }
      line += '}';
    }
    line += "}}\n";
    os << line;
  }
}

void TimeseriesRecorder::reset_for_tests() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->ring.clear();
  impl_->next_seq = 0;
}

}  // namespace refit::obs
