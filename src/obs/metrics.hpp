// Process-global metrics: monotonic counters, gauges, and fixed-bucket
// histograms behind a MetricsRegistry.
//
// Design: call sites pre-register a cheap handle once (typically a
// function-local static) and then hit it from any thread:
//
//   static obs::Counter writes =
//       obs::MetricsRegistry::instance().counter("store.writes", "writes");
//   writes.add();
//
// There are no locks on the increment path — handles point at cells whose
// hot fields are relaxed std::atomic's, and all aggregation happens at
// snapshot() time. Cells live in a std::deque so handle pointers stay
// valid forever (metrics are never unregistered). snapshot() returns
// entries sorted by metric name, which makes the JSON/CSV output
// deterministic for golden tests.
//
// Cost model: the layer starts disabled and every handle operation is a
// single relaxed load until set_enabled(true). The
// registry is intentionally leaked (never destroyed) so instrumented
// threads may record during process teardown.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace refit::obs {

enum class MetricType { kCounter, kGauge, kHistogram };

/// One metric's aggregated state at snapshot time.
struct MetricSnapshot {
  std::string name;
  MetricType type = MetricType::kCounter;
  std::string unit;
  double value = 0.0;       // counter total / gauge value / histogram sum
  std::uint64_t count = 0;  // counter total / histogram sample count
  std::vector<double> bounds;          // histogram upper bounds (finite)
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (last = overflow)

  /// Bucket-interpolated percentile estimate for histograms: walks the
  /// cumulative counts to the bucket holding rank q*count and
  /// interpolates linearly inside it (the overflow bucket clamps to the
  /// last finite bound). Deterministic — a pure function of the snapshot.
  /// Returns 0 for empty histograms and non-histogram types.
  [[nodiscard]] double percentile(double q) const;
};

namespace detail {

/// Storage behind one handle. Counters use `count`; gauges pack the value
/// into `bits` as double bits; histograms use the bucket array plus
/// `bits` (sum, CAS-accumulated) and `count` (samples).
struct MetricCell {
  std::string name;
  std::string unit;
  MetricType type = MetricType::kCounter;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> bits{0};
  std::vector<double> bounds;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
};

/// Defined in metrics.cpp; relaxed — this is the per-operation gate.
extern std::atomic<bool> g_metrics_enabled;

inline bool enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

}  // namespace detail

/// True when the metrics layer is runtime-enabled (cheap relaxed load;
/// callers may use it to skip clock reads feeding a counter).
inline bool metrics_enabled() { return detail::enabled(); }

class MetricsRegistry;

/// Monotonic counter handle. Default-constructed handles are inert.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) {
    if (cell_ == nullptr || !detail::enabled()) return;
    cell_->count.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::MetricCell* cell) : cell_(cell) {}
  detail::MetricCell* cell_ = nullptr;
};

/// Last-value gauge handle.
class Gauge {
 public:
  Gauge() = default;
  void set(double v) {
    if (cell_ == nullptr || !detail::enabled()) return;
    cell_->bits.store(std::bit_cast<std::uint64_t>(v),
                      std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::MetricCell* cell) : cell_(cell) {}
  detail::MetricCell* cell_ = nullptr;
};

/// Fixed-bucket histogram handle: sample v lands in the first bucket with
/// v <= bound, or the trailing overflow bucket.
class Histogram {
 public:
  Histogram() = default;
  void observe(double v) {
    if (cell_ == nullptr || !detail::enabled()) return;
    std::size_t b = 0;
    while (b < cell_->bounds.size() && v > cell_->bounds[b]) ++b;
    cell_->buckets[b].fetch_add(1, std::memory_order_relaxed);
    cell_->count.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t old = cell_->bits.load(std::memory_order_relaxed);
    while (!cell_->bits.compare_exchange_weak(
        old, std::bit_cast<std::uint64_t>(std::bit_cast<double>(old) + v),
        std::memory_order_relaxed)) {
    }
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::MetricCell* cell) : cell_(cell) {}
  detail::MetricCell* cell_ = nullptr;
};

/// The process-global registry. Registration (cold path) takes a mutex
/// and is idempotent by name: re-registering returns the existing cell.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter counter(const std::string& name, const std::string& unit = "");
  Gauge gauge(const std::string& name, const std::string& unit = "");
  Histogram histogram(const std::string& name, std::vector<double> bounds,
                      const std::string& unit = "");

  /// Runtime gate for every handle operation (starts disabled).
  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const { return detail::enabled(); }

  /// All registered metrics, sorted by name (deterministic).
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

  /// Snapshot serializers: {"metrics": [...]} JSON / one-row-per-metric CSV.
  void write_json(std::ostream& os) const;
  void write_csv(std::ostream& os) const;

  /// Zero every cell's recorded values; registrations and handles survive.
  void reset_for_tests();

 private:
  MetricsRegistry();
  ~MetricsRegistry() = delete;  // leaked singleton — see the header comment
  struct Impl;
  Impl* impl_;
};

}  // namespace refit::obs
