// Capture-flag parser and end-of-run writer (see capture.hpp).
#include "obs/capture.hpp"

#include <fstream>

#include "obs/clock.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace refit::obs {

namespace {

struct FileFlag {
  std::string_view prefix;
  std::string ObsOptions::*path;
};

constexpr FileFlag kFileFlags[] = {
    {"--trace-out=", &ObsOptions::trace_out},
    {"--metrics-out=", &ObsOptions::metrics_out},
    {"--timeseries-out=", &ObsOptions::timeseries_out},
    {"--events-out=", &ObsOptions::events_out},
};

constexpr std::string_view kManualClock = "--manual-clock";

// Record `arg` in `opts` when it is a capture flag; false otherwise.
bool apply_flag(std::string_view arg, ObsOptions& opts) {
  if (arg == kManualClock) {
    opts.manual_clock = true;
    return true;
  }
  for (const FileFlag& f : kFileFlags) {
    if (arg.starts_with(f.prefix)) {
      opts.*f.path = std::string(arg.substr(f.prefix.size()));
      return true;
    }
  }
  return false;
}

}  // namespace

bool is_obs_flag(std::string_view arg) {
  ObsOptions scratch;
  return apply_flag(arg, scratch);
}

ObsOptions init_obs(int argc, char** argv) {
  ObsOptions opts;
  for (int i = 1; i < argc; ++i) apply_flag(argv[i], opts);
  if (opts.manual_clock) {
    // Leaked like the rest of the obs state: instrumented threads may
    // still read the clock during process teardown.
    static ManualClock* manual = new ManualClock();
    set_clock(manual);
  }
  if (opts.enabled()) MetricsRegistry::instance().set_enabled(true);
  if (!opts.trace_out.empty()) Tracer::global().set_enabled(true);
  if (!opts.timeseries_out.empty()) {
    TimeseriesRecorder::global().set_enabled(true);
  }
  if (!opts.events_out.empty()) EventLog::global().set_enabled(true);
  return opts;
}

void write_obs(const ObsOptions& opts) {
  if (!opts.metrics_out.empty()) {
    std::ofstream os(opts.metrics_out);
    if (opts.metrics_out.ends_with(".csv")) {
      MetricsRegistry::instance().write_csv(os);
    } else {
      MetricsRegistry::instance().write_json(os);
    }
  }
  if (!opts.trace_out.empty()) {
    std::ofstream os(opts.trace_out);
    Tracer::global().write_chrome_json(os);
  }
  if (!opts.timeseries_out.empty()) {
    std::ofstream os(opts.timeseries_out);
    TimeseriesRecorder::global().write_jsonl(os);
  }
  if (!opts.events_out.empty()) {
    std::ofstream os(opts.events_out);
    EventLog::global().write_jsonl(os);
  }
}

}  // namespace refit::obs
