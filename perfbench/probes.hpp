// Instrumentation of the traced run, built only from public library calls:
// an EngineObserver that times every engine phase, and a train step that
// reproduces TrainStepPhase::run call for call while timing each layer's
// forward and backward, the loss, the batch draw and the threshold update.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"

namespace perfbench {

/// Host time and work accumulated over the traced curves.
struct Probe {
  std::map<std::string, double> phase_s;          ///< by Phase::name()
  std::map<std::string, std::uint64_t> phase_runs;  ///< by Phase::name()
  std::vector<double> step_s;                     ///< every FtEngine::step
  /// "fwd.<kind><i>" / "bwd.<kind><i>" for matrix layers (i counts layers
  /// of that kind), "fwd.other" / "bwd.other" for the rest.
  std::map<std::string, double> layer_s;
  double matrix_fwd_s = 0.0;
  double matrix_bwd_s = 0.0;
  double loss_s = 0.0;
  double batch_s = 0.0;
  double update_s = 0.0;               ///< ThresholdTrainer::step
  std::uint64_t train_flops = 0;       ///< tensor.gemm.flops in fwd + bwd
};

/// Times each engine phase into Probe::phase_s.
class PhaseTimer final : public refit::EngineObserver {
 public:
  explicit PhaseTimer(Probe& probe) : probe_(probe) {}
  void on_phase_begin(const refit::Phase& phase,
                      const refit::EngineContext& ctx) override;
  void on_phase_end(const refit::Phase& phase,
                    const refit::EngineContext& ctx) override;

 private:
  Probe& probe_;
  std::chrono::steady_clock::time_point t0_{};
};

/// The engine's standard phase list with its train step replaced by the
/// split, timed one above.
std::vector<std::unique_ptr<refit::Phase>> traced_phases(
    const refit::FtFlowConfig& cfg, Probe& probe);

/// Current total of a registry counter (0 when it was never registered).
std::uint64_t counter_value(const std::string& name);

}  // namespace perfbench
