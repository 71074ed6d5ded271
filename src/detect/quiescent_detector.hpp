// On-line fault detection by quiescent-voltage comparison (paper §4).
//
// Per fault type (SA0, then SA1) the detector:
//   1. reads the crossbar and stores the values off-chip (the reference),
//   2. chooses candidate cells — with selected-cell testing (§4.3) only
//      cells whose read-out level makes the fault possible (SA0 ⇒ lowest
//      level, SA1 ⇒ highest level); without it, every cell,
//   3. writes a one-level increment (+δw) / decrement (−δw) to the
//      candidates,
//   4. drives groups of Tr rows per cycle, reading every column output
//      concurrently through the ADC; the comparator reduces both the
//      measured sum and the stored-value reference modulo the divisor
//      (mod 2ⁿ = bit truncation, §4.2) and records the stuck-count residue,
//   5. repeats in the transpose direction (crossbars work both ways),
//   6. restores the original weights with the opposite pulse,
//   7. decodes the residues into per-cell predictions (decoder.hpp).
//
// Test time is counted in voltage-application cycles:
// ceil(Er/Tr) + ceil(Ec/Tc) per pass, where Er/Ec are the selected
// row/column counts (paper §6.1).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "rcs/crossbar_store.hpp"
#include "rram/crossbar.hpp"
#include "rram/fault_map.hpp"

namespace refit {

/// Detector knobs.
struct DetectorConfig {
  /// Rows driven per test cycle (Tr); the transpose direction drives as
  /// many columns per cycle (Tc = Tr).
  std::size_t test_rows_per_cycle = 16;
  /// Modulo divisor for the reference-voltage comparison (paper uses 16).
  std::size_t modulo_divisor = 16;
  /// Selected-cell testing (§4.3).
  bool selected_cells_only = true;
  /// Enable the exact constraint-propagation rules in the decoder.
  bool use_constraint_propagation = true;
  /// Re-test every predicted-faulty cell with a strong programming pulse to
  /// split hard (permanent) from soft (transient) faults: a cell that moves
  /// under the strong pulse was only transiently pinned — it is scrubbed
  /// and reported in DetectionOutcome::classified_soft instead of being
  /// handed to re-mapping. Off by default (extra pulses cost endurance).
  bool classify_soft = false;
};

/// Result of one detection run over one crossbar (or one store).
struct DetectionOutcome {
  FaultMatrix predicted;
  std::size_t cycles = 0;          ///< voltage-application cycles
  std::size_t cells_tested = 0;    ///< candidate cells pulsed
  std::uint64_t device_writes = 0; ///< ±δw pulses issued (endurance cost)
  std::uint64_t adc_reads = 0;     ///< group read-outs digitized by the ADC
  // Populated only when cfg.classify_soft:
  /// Predicted cells the re-test pass found transient (subset of
  /// predicted's faulty set; these were scrubbed in place).
  FaultMatrix classified_soft;
  /// Ground-truth snapshot taken before any test pulse — classification
  /// scrubs soft faults, so evaluating against post-detection truth would
  /// erase exactly the positives being scored (see evaluate_classified).
  FaultMatrix truth_before;
  /// Cells given the strong re-test pulse.
  std::size_t cells_retested = 0;
};

/// The quiescent-voltage comparison detector.
class QuiescentVoltageDetector {
 public:
  explicit QuiescentVoltageDetector(DetectorConfig cfg) : cfg_(cfg) {}

  [[nodiscard]] const DetectorConfig& config() const { return cfg_; }

  /// Run both fault-type passes on a raw crossbar.
  [[nodiscard]] DetectionOutcome detect(Crossbar& xbar) const;

  /// Run detection tile-by-tile over a crossbar-backed weight store and
  /// assemble the predictions in the store's physical coordinates.
  [[nodiscard]] DetectionOutcome detect_store(CrossbarWeightStore& store) const;

 private:
  /// One fault-type pass. `stuck_level` is the level a faulty cell is
  /// pinned at (0 for SA0, levels-1 for SA1); `pulse` is ±1 level.
  void run_pass(Crossbar& xbar, int stuck_level, int pulse,
                const std::vector<std::vector<int>>& stored,
                FaultMatrix& predicted, DetectionOutcome& out) const;

  DetectorConfig cfg_;
};

/// Compare a prediction against the crossbar's ground truth (binary
/// faulty / fault-free, the paper's §6.1 metrics).
ConfusionCounts evaluate_detection(const Crossbar& xbar,
                                   const FaultMatrix& predicted);

/// Compare a store-level prediction against the store's ground truth.
ConfusionCounts evaluate_detection(const CrossbarWeightStore& store,
                                   const FaultMatrix& predicted);

/// Per-class detection quality of a classify_soft run: the hard counts
/// score (predicted ∧ ¬classified_soft) against hard ground truth, the
/// soft counts score classified_soft against soft ground truth — both
/// relative to the pre-detection snapshot in DetectionOutcome::truth_before.
struct ClassifiedConfusion {
  ConfusionCounts hard;
  ConfusionCounts soft;
};
ClassifiedConfusion evaluate_classified(const DetectionOutcome& out);

/// Program a crossbar with random level content for standalone detection
/// experiments: `p_low` of the cells at the lowest level (high resistance),
/// `p_high` at the highest, the rest uniform over interior levels.
void randomize_crossbar_content(Crossbar& xbar, double p_low, double p_high,
                                Rng& rng);

}  // namespace refit
