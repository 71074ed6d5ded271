// ObsObserver — the engine-side wiring of the observability layer
// (src/obs): an EngineObserver that times every executed Phase::run as a
// trace span, exports per-phase wall time and run counts as metrics,
// stamps the engine iteration counter, and keeps its own per-phase totals
// for the CLI's end-of-run timing table.
//
// Attach with FtEngine::add_observer before the run; the observer never
// mutates the context. Trace spans land in
// obs::Tracer::global() only while tracing is runtime-enabled; the
// metrics go through the usual per-handle runtime gate. Timestamps come
// from the obs::Clock seam, so runs under an injected ManualClock produce
// byte-stable traces (tests/test_obs.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "obs/metrics.hpp"

namespace refit {

class ObsObserver final : public EngineObserver {
 public:
  /// Accumulated totals for one phase, in first-execution order.
  struct PhaseStat {
    std::string name;
    std::uint64_t runs = 0;
    std::uint64_t total_ns = 0;
    obs::Counter runs_metric;
    obs::Counter ns_metric;
  };

  void on_run_begin(const EngineContext& ctx) override;
  void on_phase_begin(const Phase& phase, const EngineContext& ctx) override;
  void on_phase_end(const Phase& phase, const EngineContext& ctx) override;
  void on_iteration_end(const EngineContext& ctx) override;
  void on_run_end(const EngineContext& ctx) override;

  [[nodiscard]] const std::vector<PhaseStat>& phase_stats() const {
    return stats_;
  }
  /// Wall time of the whole run (on_run_begin → on_run_end).
  [[nodiscard]] std::uint64_t run_ns() const { return run_total_ns_; }

  /// Human-readable per-phase timing table (the CLI prints this at run
  /// end when --trace-out/--metrics-out observability is on).
  [[nodiscard]] std::string timing_table() const;

 private:
  PhaseStat& stat_for(const char* name);

  std::vector<PhaseStat> stats_;
  std::uint64_t run_start_ns_ = 0;
  std::uint64_t phase_start_ns_ = 0;
  std::uint64_t run_total_ns_ = 0;
};

}  // namespace refit
