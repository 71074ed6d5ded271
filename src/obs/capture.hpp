// Capture flags for the command-line drivers: one parser and one writer
// shared by quickstart, experiment_cli, bench_backend and soft_faults
// (docs/observability.md lists the flags).
//
//   --trace-out=FILE       Chrome trace-event JSON
//   --metrics-out=FILE     metrics snapshot; a .csv suffix writes CSV,
//                          anything else JSON
//   --timeseries-out=FILE  per-iteration metric samples, JSONL
//   --events-out=FILE      structured event log, JSONL
//   --manual-clock         install a ManualClock (byte-stable output)
//
// init_obs() runtime-enables exactly the layers a flag asks for; with no
// flag set the obs layer stays off.
#pragma once

#include <string>
#include <string_view>

namespace refit::obs {

/// What the capture flags asked for.
struct ObsOptions {
  std::string trace_out;
  std::string metrics_out;
  std::string timeseries_out;
  std::string events_out;
  /// Install a deterministic obs::ManualClock (golden/CI runs).
  bool manual_clock = false;
  [[nodiscard]] bool enabled() const {
    return !trace_out.empty() || !metrics_out.empty() ||
           !timeseries_out.empty() || !events_out.empty();
  }
};

/// True when `arg` is one of the capture flags above, so a driver's own
/// argument parser can skip it.
[[nodiscard]] bool is_obs_flag(std::string_view arg);

/// Parse the capture flags from argv and runtime-enable the obs layer
/// accordingly. Other arguments are left alone.
ObsOptions init_obs(int argc, char** argv);

/// Write the trace / metrics / timeseries / events files at run end.
/// No-op for options that were not requested.
void write_obs(const ObsOptions& opts);

}  // namespace refit::obs
