// RRAM crossbar array model (S4 in DESIGN.md).
//
// Each cell holds a normalized conductance g ∈ [0, 1] (0 = g_off / high
// resistance, 1 = g_on / low resistance). Writes snap the target to one of
// `levels` discrete resistance levels (multi-level cell per [17] of the
// paper, 8 by default) and then add a small Gaussian perturbation — the
// "write variance" soft-fault source.
//
// Hard faults: a cell may be stuck-at-0 (conductance pinned to 0) or
// stuck-at-1 (pinned to 1), either injected at fabrication
// (faults.hpp) or caused by endurance wear-out: each cell draws a write
// budget from a Gaussian endurance model [3]; a write beyond the budget
// leaves the cell permanently stuck.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/rng.hpp"

namespace refit {

/// Fault state of a cell. kStuckAt* are permanent (fabrication defects or
/// endurance wear-out); kSoftStuck* are transient pins with a TTL — the
/// cell reads stuck for a few device-time ticks and then recovers its
/// pre-fault conductance (see device/noise_model.hpp).
enum class FaultKind : std::uint8_t {
  kNone = 0,
  kStuckAt0 = 1,
  kStuckAt1 = 2,
  kSoftStuck0 = 3,
  kSoftStuck1 = 4,
};

[[nodiscard]] constexpr bool fault_is_hard(FaultKind k) {
  return k == FaultKind::kStuckAt0 || k == FaultKind::kStuckAt1;
}
[[nodiscard]] constexpr bool fault_is_soft(FaultKind k) {
  return k == FaultKind::kSoftStuck0 || k == FaultKind::kSoftStuck1;
}

/// The fault of a weight whose `legs` cells hold faults f[0..legs-1]:
/// hard > soft > none, and the lower leg breaks ties.
[[nodiscard]] constexpr FaultKind merge_leg_faults(const FaultKind* f,
                                                   std::size_t legs) {
  FaultKind merged = FaultKind::kNone;
  for (std::size_t leg = 0; leg < legs; ++leg) {
    if (fault_is_hard(f[leg])) return f[leg];
    if (merged == FaultKind::kNone) merged = f[leg];
  }
  return merged;
}

/// Geometry and write-physics knobs of a crossbar.
struct CrossbarConfig {
  std::size_t rows = 128;
  std::size_t cols = 128;
  /// Discrete resistance levels a write can target (≥ 2).
  std::size_t levels = 8;
  /// Stddev of the analog perturbation after a write (fraction of range).
  double write_noise_sigma = 0.02;
  /// Interconnect (IR-drop) loss per wire segment, as a fraction of the
  /// signal: a cell at row r / column c sees its contribution attenuated
  /// by 1 / (1 + ratio·(r + c + 2)). 0 disables the model. Larger arrays
  /// suffer more — the classic argument bounding practical crossbar sizes.
  double wire_resistance_ratio = 0.0;

  [[nodiscard]] double level_gap() const {
    return 1.0 / static_cast<double>(levels - 1);
  }
};

/// Per-cell write-endurance distribution (Gaussian, per the paper's §6.2.1).
/// mean == 0 disables wear-out.
struct EnduranceModel {
  double mean = 0.0;
  double stddev = 0.0;
  /// Probability an endurance failure leaves the cell SA0. Cycling failure
  /// in filamentary RRAM is dominated by permanent filament rupture (stuck
  /// high-resistance = SA0); stuck shorts are rare, so this defaults high.
  double sa0_probability = 0.9;

  static EnduranceModel unlimited() { return {}; }
  static EnduranceModel gaussian(double mean, double stddev) {
    return {mean, stddev, 0.9};
  }
  [[nodiscard]] bool limited() const { return mean > 0.0; }
};

/// A single RRAM crossbar tile.
class Crossbar {
 public:
  Crossbar(CrossbarConfig cfg, EnduranceModel endurance, Rng rng);

  [[nodiscard]] const CrossbarConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t rows() const { return cfg_.rows; }
  [[nodiscard]] std::size_t cols() const { return cfg_.cols; }

  /// Program a cell towards target conductance (clamped to [0,1], snapped
  /// to the nearest level). A write to a stuck cell is a no-op; a write to
  /// a healthy cell consumes endurance and may wear the cell out.
  void write(std::size_t r, std::size_t c, double target_g);

  /// Actual analog conductance (stuck cells report their pinned value).
  [[nodiscard]] double conductance(std::size_t r, std::size_t c) const;

  /// IR-drop attenuation factor of the cell's contribution to an analog
  /// read-out (1.0 when wire resistance modelling is disabled).
  [[nodiscard]] double attenuation(std::size_t r, std::size_t c) const;

  /// Conductance as seen by the analog compute/read-out path:
  /// conductance × attenuation.
  [[nodiscard]] double effective_conductance(std::size_t r,
                                             std::size_t c) const;

  /// ADC-quantized read: nearest level index in [0, levels).
  [[nodiscard]] int read_level(std::size_t r, std::size_t c) const;

  [[nodiscard]] FaultKind fault(std::size_t r, std::size_t c) const;
  [[nodiscard]] bool is_stuck(std::size_t r, std::size_t c) const {
    return fault(r, c) != FaultKind::kNone;
  }

  /// Pin a cell to a hard fault (used by fabrication-fault injection).
  /// Soft kinds are rejected — transient pins go through force_soft_fault
  /// so the recovery state is tracked.
  void force_fault(std::size_t r, std::size_t c, FaultKind kind);

  /// Pin a cell to a transient fault for `ttl` decay ticks (≥ 1). The
  /// pre-fault conductance is remembered and restored on recovery. A cell
  /// that is already faulty (hard or soft) keeps its existing fault.
  void force_soft_fault(std::size_t r, std::size_t c, FaultKind kind,
                        std::uint32_t ttl);

  /// One device-time tick of soft-fault decay: every transient fault's TTL
  /// drops by one; expired cells recover their pre-fault conductance.
  void decay_soft_faults();

  /// Conductance relaxation: every healthy cell moves toward `target` by
  /// `rate` of the remaining gap (g += rate·(target − g)). Analog — no
  /// level snap, no write cost, no RNG.
  void drift_toward(double target, double rate);

  /// A programming pulse strong enough to re-form a transiently pinned
  /// cell: clears any soft fault, then behaves exactly like write().
  /// Hard-stuck cells still suppress it. This is the detector's scrub
  /// primitive for cells its re-test pass classifies as soft.
  void strong_write(std::size_t r, std::size_t c, double target_g);

  /// Analog column read: sum of conductances of `row_set` cells in `col`
  /// (the quiescent-voltage test observable, row-direction test).
  [[nodiscard]] double sum_conductance_rows(
      const std::vector<std::size_t>& row_set, std::size_t col) const;
  /// Transpose-direction test observable.
  [[nodiscard]] double sum_conductance_cols(
      const std::vector<std::size_t>& col_set, std::size_t row) const;

  [[nodiscard]] std::uint64_t write_count(std::size_t r, std::size_t c) const;
  [[nodiscard]] std::uint64_t total_writes() const { return total_writes_; }
  /// Analog read-out accesses (effective_conductance calls) served so far.
  /// Diagnostic probe: lets tests assert that incremental rebuilds do not
  /// re-read clean tiles. Not serialized.
  [[nodiscard]] std::uint64_t read_count() const { return reads_; }
  /// Bumped by every member that changes state a read-out can see, so a
  /// cache over the tile is current while the count is unchanged. Not
  /// serialized; same single-writer rule as total_writes().
  [[nodiscard]] std::uint64_t mutations() const { return mutations_; }
  /// Writes that were suppressed because the cell is stuck.
  [[nodiscard]] std::uint64_t suppressed_writes() const {
    return suppressed_writes_;
  }

  [[nodiscard]] std::size_t fault_count() const { return fault_count_; }
  [[nodiscard]] double fault_fraction() const;
  /// Faults caused by endurance wear-out (subset of fault_count()).
  [[nodiscard]] std::size_t wearout_fault_count() const {
    return wearout_faults_;
  }
  /// Currently active transient faults (subset of fault_count()).
  [[nodiscard]] std::size_t soft_fault_count() const { return soft_faults_; }

  /// Checkpointing: serialize the full device state (conductances, faults,
  /// per-cell wear, RNG) so a simulation can resume bit-exactly.
  void save(std::ostream& os) const;
  /// Overwrite this tile's state with a checkpoint of a tile of the same
  /// rows, cols and levels (checked before any cell state is read). The
  /// fault bytes and saved fault counts are checked against each other; a
  /// rejected checkpoint throws CheckError and leaves the tile unchanged.
  void restore(std::istream& is);

 private:
  [[nodiscard]] std::size_t idx(std::size_t r, std::size_t c) const;
  /// Snap to the nearest discrete level.
  [[nodiscard]] double snap(double g) const;

  CrossbarConfig cfg_;
  EnduranceModel endurance_;
  Rng rng_;
  std::vector<double> g_;                    ///< actual conductances
  std::vector<FaultKind> faults_;
  std::vector<std::uint32_t> writes_;        ///< per-cell write counters
  std::vector<std::uint32_t> endurance_limit_;
  /// Read-out probe; mutable because reads are logically const. Only ever
  /// touched by the single lane that owns this tile during a parallel pass.
  mutable std::uint64_t reads_ = 0;
  std::uint64_t total_writes_ = 0;
  std::uint64_t mutations_ = 0;
  std::uint64_t suppressed_writes_ = 0;
  std::size_t fault_count_ = 0;
  std::size_t wearout_faults_ = 0;
  /// Transient-fault state: remaining decay ticks and the conductance to
  /// restore on recovery (valid only while the cell is soft-stuck).
  std::vector<std::uint32_t> soft_ttl_;
  std::vector<double> soft_restore_;
  std::size_t soft_faults_ = 0;
};

}  // namespace refit
