// Energy estimation for RCS operations (extension; the paper motivates
// RCS by energy efficiency but reports no energy numbers).
//
// The model is deliberately simple: per-operation energy constants taken
// from typical published HfOx RRAM figures, multiplied by the operation
// counters the simulator already tracks. It answers questions like "how
// much energy does a detection phase cost relative to the training writes
// it protects?".
#pragma once

#include <cstdint>

#include "core/engine.hpp"
#include "detect/march_test.hpp"
#include "detect/quiescent_detector.hpp"

namespace refit {

/// Per-operation energy constants (picojoules).
struct EnergyModel {
  /// One SET/RESET programming pulse.
  double write_pj = 10.0;
  /// One single-cell read.
  double read_pj = 1.0;
  /// One column read-out through the ADC (shared across the cells of a
  /// test cycle — the quiescent method's amortization win).
  double adc_sample_pj = 2.0;
  /// Analog MAC energy per cell per vector-matrix multiplication.
  double mac_pj = 0.1;
};

/// Aggregate energy estimate, in nanojoules, with a component breakdown.
struct EnergyEstimate {
  double write_nj = 0.0;
  double read_nj = 0.0;
  double adc_nj = 0.0;

  [[nodiscard]] double total_nj() const { return write_nj + read_nj + adc_nj; }
};

/// Energy of one quiescent-voltage detection run over a crossbar with
/// `rows`×`cols` cells (the initial read scans every cell; each test cycle
/// samples every column/row output once).
EnergyEstimate detection_energy(const EnergyModel& m,
                                const DetectionOutcome& outcome,
                                std::size_t rows, std::size_t cols);

/// Energy of one March-test run.
EnergyEstimate march_energy(const EnergyModel& m, const MarchOutcome& outcome);

/// Energy of a whole training run's device writes (training + detection
/// pulses as counted in TrainingResult::device_writes).
EnergyEstimate training_write_energy(const EnergyModel& m,
                                     const TrainingResult& result);

}  // namespace refit
