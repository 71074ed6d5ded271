// MetricsRegistry implementation (see metrics.hpp): cold-path
// registration, deterministic snapshots, JSON/CSV serialization.
#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>

namespace refit::obs {

// A pure function of snapshot data, used by both the writers here and the
// timeseries sampler.
double MetricSnapshot::percentile(double q) const {
  if (type != MetricType::kHistogram || count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const std::uint64_t prev = cum;
    cum += buckets[b];
    if (buckets[b] == 0 || static_cast<double>(cum) < target) continue;
    const double lo = b == 0 ? 0.0 : bounds[b - 1];
    const double hi = b < bounds.size()
                          ? bounds[b]
                          : (bounds.empty() ? 0.0 : bounds.back());
    double frac = (target - static_cast<double>(prev)) /
                  static_cast<double>(buckets[b]);
    frac = std::min(1.0, std::max(0.0, frac));
    return lo + (hi - lo) * frac;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

namespace {

/// Shortest deterministic decimal form for snapshot output.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

const char* type_name(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

}  // namespace

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  std::deque<detail::MetricCell> cells;  // deque: stable cell addresses
  std::map<std::string, detail::MetricCell*> by_name;

  detail::MetricCell* find_or_create(const std::string& name,
                                     const std::string& unit, MetricType type,
                                     std::vector<double> bounds) {
    std::lock_guard<std::mutex> lk(mu);
    auto it = by_name.find(name);
    if (it != by_name.end()) {
      assert(it->second->type == type && "metric re-registered as a new type");
      return it->second;
    }
    cells.emplace_back();
    detail::MetricCell* cell = &cells.back();
    cell->name = name;
    cell->unit = unit;
    cell->type = type;
    if (type == MetricType::kHistogram) {
      std::sort(bounds.begin(), bounds.end());
      cell->bounds = std::move(bounds);
      cell->buckets =
          std::make_unique<std::atomic<std::uint64_t>[]>(cell->bounds.size() +
                                                         1);
      for (std::size_t b = 0; b <= cell->bounds.size(); ++b)
        cell->buckets[b].store(0, std::memory_order_relaxed);
    }
    by_name.emplace(name, cell);
    return cell;
  }
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

MetricsRegistry& MetricsRegistry::instance() {
  // Leaked on purpose: worker threads may still record while statics are
  // being torn down, so the registry must outlive every other static.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter MetricsRegistry::counter(const std::string& name,
                                 const std::string& unit) {
  return Counter(
      impl_->find_or_create(name, unit, MetricType::kCounter, {}));
}

Gauge MetricsRegistry::gauge(const std::string& name, const std::string& unit) {
  return Gauge(impl_->find_or_create(name, unit, MetricType::kGauge, {}));
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     std::vector<double> bounds,
                                     const std::string& unit) {
  return Histogram(impl_->find_or_create(name, unit, MetricType::kHistogram,
                                         std::move(bounds)));
}

void MetricsRegistry::set_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot() const {
  std::vector<MetricSnapshot> out;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    out.reserve(impl_->cells.size());
    for (const detail::MetricCell& cell : impl_->cells) {
      MetricSnapshot s;
      s.name = cell.name;
      s.type = cell.type;
      s.unit = cell.unit;
      s.count = cell.count.load(std::memory_order_relaxed);
      switch (cell.type) {
        case MetricType::kCounter:
          s.value = static_cast<double>(s.count);
          break;
        case MetricType::kGauge:
          s.value = std::bit_cast<double>(
              cell.bits.load(std::memory_order_relaxed));
          s.count = 0;
          break;
        case MetricType::kHistogram:
          s.value = std::bit_cast<double>(
              cell.bits.load(std::memory_order_relaxed));
          s.bounds = cell.bounds;
          s.buckets.resize(cell.bounds.size() + 1);
          for (std::size_t b = 0; b < s.buckets.size(); ++b)
            s.buckets[b] = cell.buckets[b].load(std::memory_order_relaxed);
          break;
      }
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

void MetricsRegistry::reset_for_tests() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  for (detail::MetricCell& cell : impl_->cells) {
    cell.count.store(0, std::memory_order_relaxed);
    cell.bits.store(0, std::memory_order_relaxed);
    for (std::size_t b = 0; b < cell.bounds.size() + 1 && cell.buckets; ++b)
      cell.buckets[b].store(0, std::memory_order_relaxed);
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  const std::vector<MetricSnapshot> snap = snapshot();
  os << "{\"metrics\":[";
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const MetricSnapshot& s = snap[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "{\"name\":\"" << s.name << "\",\"type\":\"" << type_name(s.type)
       << "\",\"unit\":\"" << s.unit << "\"";
    switch (s.type) {
      case MetricType::kCounter:
        os << ",\"value\":" << s.count;
        break;
      case MetricType::kGauge:
        os << ",\"value\":" << fmt_double(s.value);
        break;
      case MetricType::kHistogram: {
        os << ",\"count\":" << s.count << ",\"sum\":" << fmt_double(s.value)
           << ",\"p50\":" << fmt_double(s.percentile(0.50))
           << ",\"p95\":" << fmt_double(s.percentile(0.95))
           << ",\"p99\":" << fmt_double(s.percentile(0.99))
           << ",\"bounds\":[";
        for (std::size_t b = 0; b < s.bounds.size(); ++b)
          os << (b ? "," : "") << fmt_double(s.bounds[b]);
        os << "],\"buckets\":[";
        for (std::size_t b = 0; b < s.buckets.size(); ++b)
          os << (b ? "," : "") << s.buckets[b];
        os << "]";
        break;
      }
    }
    os << "}";
  }
  os << (snap.empty() ? "]}" : "\n]}") << "\n";
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  os << "name,type,unit,value,count,p50,p95,p99,buckets\n";
  for (const MetricSnapshot& s : snapshot()) {
    os << s.name << "," << type_name(s.type) << "," << s.unit << ",";
    if (s.type == MetricType::kCounter)
      os << s.count;
    else
      os << fmt_double(s.value);
    os << "," << s.count << ",";
    if (s.type == MetricType::kHistogram) {
      os << fmt_double(s.percentile(0.50)) << ","
         << fmt_double(s.percentile(0.95)) << ","
         << fmt_double(s.percentile(0.99)) << ",";
    } else {
      os << ",,,";
    }
    for (std::size_t b = 0; b < s.buckets.size(); ++b)
      os << (b ? ";" : "") << s.buckets[b];
    os << "\n";
  }
}

}  // namespace refit::obs
