// Engine-side observability wiring (see obs_observer.hpp).
#include "core/obs_observer.hpp"

#include <cstdio>
#include <cstring>

#include "obs/clock.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "rcs/rcs_system.hpp"

namespace refit {

namespace {

// Per-phase wall-time distribution across all ObsObserver instances;
// exponential nanosecond bounds, 1 µs … 1 s.
obs::Histogram phase_ns_histogram() {
  static obs::Histogram h = obs::MetricsRegistry::instance().histogram(
      "engine.phase_ns",
      {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}, "ns");
  return h;
}

}  // namespace

ObsObserver::PhaseStat& ObsObserver::stat_for(const char* name) {
  for (PhaseStat& s : stats_) {
    if (s.name == name) return s;
  }
  PhaseStat s;
  s.name = name;
  s.runs_metric = obs::MetricsRegistry::instance().counter(
      "engine.phase." + s.name + ".runs", "runs");
  s.ns_metric = obs::MetricsRegistry::instance().counter(
      "engine.phase." + s.name + ".ns", "ns");
  stats_.push_back(std::move(s));
  return stats_.back();
}

void ObsObserver::on_run_begin(const EngineContext& ctx) {
  (void)ctx;
  run_start_ns_ = obs::now_ns();
  static obs::Counter runs_metric =
      obs::MetricsRegistry::instance().counter("engine.runs", "runs");
  runs_metric.add();
}

void ObsObserver::on_phase_begin(const Phase& phase, const EngineContext& ctx) {
  (void)phase;
  (void)ctx;
  // Phases execute strictly one at a time on the engine thread, so a
  // single pending start timestamp suffices.
  phase_start_ns_ = obs::now_ns();
}

void ObsObserver::on_phase_end(const Phase& phase, const EngineContext& ctx) {
  const std::uint64_t end_ns = obs::now_ns();
  const std::uint64_t dur_ns = end_ns - phase_start_ns_;
  obs::Tracer::global().emit_complete(phase.name(), "phase", phase_start_ns_,
                                      dur_ns);
  PhaseStat& stat = stat_for(phase.name());
  ++stat.runs;
  stat.total_ns += dur_ns;
  stat.runs_metric.add();
  stat.ns_metric.add(dur_ns);
  phase_ns_histogram().observe(static_cast<double>(dur_ns));
  // Detection rounds are the paper's unit of "on-line" progress: take an
  // extra timeseries sample right after each one so precision/recall
  // gauges are captured at the round, not only at the iteration's end.
  if (std::strcmp(phase.name(), "detection") == 0) {
    obs::TimeseriesRecorder::global().sample(ctx.iteration);
  }
}

void ObsObserver::on_iteration_end(const EngineContext& ctx) {
  static obs::Counter iters_metric =
      obs::MetricsRegistry::instance().counter("engine.iterations", "iters");
  iters_metric.add();
  obs::TimeseriesRecorder::global().sample(ctx.iteration);
}

void ObsObserver::on_run_end(const EngineContext& ctx) {
  // Per-cell device-write distribution at run end — the wear histogram the
  // report's wear chart renders. Logical-cell counts follow remapped cells
  // (see CrossbarWeightStore::cell_write_count).
  if (ctx.rcs != nullptr) {
    static obs::Histogram wear = obs::MetricsRegistry::instance().histogram(
        "store.wear_writes", {1, 10, 100, 1e3, 1e4, 1e5, 1e6}, "writes");
    for (const CrossbarWeightStore* store : ctx.rcs->stores()) {
      for (std::size_t i = 0; i < store->rows(); ++i) {
        for (std::size_t j = 0; j < store->cols(); ++j) {
          wear.observe(static_cast<double>(store->cell_write_count(i, j)));
        }
      }
    }
  }
  const std::uint64_t end_ns = obs::now_ns();
  run_total_ns_ = end_ns - run_start_ns_;
  obs::Tracer::global().emit_complete("run", "engine", run_start_ns_,
                                      run_total_ns_);
  static obs::Counter run_ns_metric =
      obs::MetricsRegistry::instance().counter("engine.run_ns", "ns");
  run_ns_metric.add(run_total_ns_);
}

std::string ObsObserver::timing_table() const {
  std::string out;
  char line[128];
  std::snprintf(line, sizeof(line), "%-12s %8s %12s %12s\n", "phase", "runs",
                "total ms", "mean ms");
  out += line;
  for (const PhaseStat& s : stats_) {
    const double total_ms = static_cast<double>(s.total_ns) * 1e-6;
    const double mean_ms =
        s.runs == 0 ? 0.0 : total_ms / static_cast<double>(s.runs);
    std::snprintf(line, sizeof(line), "%-12s %8llu %12.3f %12.3f\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.runs),
                  total_ms, mean_ms);
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-12s %8s %12.3f\n", "run", "",
                static_cast<double>(run_total_ns_) * 1e-6);
  out += line;
  return out;
}

}  // namespace refit
