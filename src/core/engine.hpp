// FtEngine — the fault-tolerant on-line training flow (paper Fig. 2) as an
// ordered list of pluggable phases over a shared EngineContext.
//
// Every iteration the engine asks each phase, in order, whether it is due
// and runs the ones that are:
//
//   DetectionPhase  every detection_period iterations: quiescent-voltage
//                   testing per store, pruning-mask refresh, targeted
//                   read-back, prune write-back  (Fig. 2 right-hand side)
//   RemapPhase      immediately after a detection, early phases only:
//                   neuron re-ordering aligning pruned zeros with SA0 cells
//   TrainStepPhase  always: forward on the RCS, backward, threshold update
//   EvalPhase       every eval_period iterations: test-subset accuracy
//
// The phases share one EngineContext (network, RcsSystem, prune/detected
// state, RNG streams, counters, accumulating TrainingResult); observers
// attach at phase boundaries for tracing without touching the flow; and
// the context is serializable, so a run can checkpoint and resume
// mid-flow bit-identically (save_checkpoint / load_checkpoint).
//
// Swapping a phase is how related flows are meant to be built: an on-line
// soft-error scrubber replaces DetectionPhase, a drop-connect update rule
// replaces TrainStepPhase — without forking the loop. baseline_config()
// derives the paper's four experimental configurations (§6, Fig. 7) from
// a base schedule:
//   ideal / original method .. threshold/detection/remap all disabled
//                              (ideal = run on a software-backed network)
//   threshold training ....... threshold enabled
//   entire FT flow ........... threshold + detection + pruning + re-mapping
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/prune.hpp"
#include "core/remap.hpp"
#include "core/threshold_trainer.hpp"
#include "data/dataset.hpp"
#include "detect/quiescent_detector.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "rcs/rcs_system.hpp"

namespace refit {

/// Configuration of the full flow.
struct FtFlowConfig {
  std::size_t iterations = 3000;
  std::size_t batch_size = 16;
  LrSchedule lr{0.05, 0.5, 1200, 1e-4};

  /// Threshold training (§5.1); false reproduces the "original method".
  bool threshold_training = true;
  ThresholdConfig threshold;

  /// On-line detection (§4) + re-mapping (§5.2).
  bool detection_enabled = false;
  std::size_t detection_period = 500;
  DetectorConfig detector;
  bool remap_enabled = true;
  /// Re-mapping runs during the first two detection phases only (see
  /// RemapPhase).
  RemapConfig remap;
  PruneConfig prune;
  /// Suppress training writes to cells the detector flagged faulty. Saves
  /// endurance/energy, but detector false positives freeze healthy cells,
  /// so this is off by default.
  bool skip_writes_on_detected_faults = false;

  /// Evaluation cadence (test-subset accuracy snapshots).
  std::size_t eval_period = 100;
  std::size_t eval_samples = 512;

  /// Advance device time (drift / soft-fault decay+injection, see
  /// rcs/crossbar_store.hpp tick_noise) every this many iterations; 0
  /// disables the phase entirely — the default, and bit-identical to the
  /// pre-device-model engine. Only has an effect when the stores' noise
  /// config is active.
  std::size_t device_tick_period = 0;
};

/// The paper's experimental configurations (§6, Fig. 7 curves).
enum class FtBaseline { kIdeal, kOriginal, kThreshold, kFullFlow };

/// Derive one of the paper's four baseline configurations from a base
/// flow config (iterations / lr / eval cadence are taken from `base`).
/// The full flow enables detection every iterations/6 steps, magnitude
/// pruning on FC layers only (30 %), and exact Hungarian re-mapping —
/// the settings of the Fig. 7 reproduction benches.
[[nodiscard]] FtFlowConfig baseline_config(FtBaseline baseline,
                                           FtFlowConfig base);

/// One detection/re-mapping phase record.
struct PhaseEvent {
  std::size_t iteration = 0;
  std::size_t cycles = 0;
  std::uint64_t detection_writes = 0;
  double precision = 1.0;
  double recall = 1.0;
  double remap_cost_before = 0.0;
  double remap_cost_after = 0.0;
  // Populated only when detector.classify_soft (defaults = perfect/empty):
  double hard_precision = 1.0;
  double hard_recall = 1.0;
  double soft_precision = 1.0;
  double soft_recall = 1.0;
  std::uint64_t cells_retested = 0;
  std::uint64_t soft_detected = 0;  ///< cells classified transient + scrubbed
};

/// Full training trace + endurance statistics.
struct TrainingResult {
  std::vector<std::size_t> eval_iterations;
  std::vector<double> eval_accuracy;
  std::vector<double> fault_fraction;  ///< RCS fault ratio at eval points
  double peak_accuracy = 0.0;
  double final_accuracy = 0.0;

  std::uint64_t device_writes = 0;       ///< total (training + detection)
  std::uint64_t updates_written = 0;     ///< per-weight updates issued
  std::uint64_t updates_suppressed = 0;  ///< zeroed by the threshold
  std::uint64_t updates_zero = 0;        ///< δw exactly 0 (pruned / sparse)
  std::size_t wearout_faults = 0;
  double final_fault_fraction = 0.0;
  std::vector<PhaseEvent> phases;

  /// Fraction of weight updates that required no device write (threshold-
  /// suppressed plus naturally zero) — the paper's "~90 % of δw below the
  /// threshold" statistic.
  [[nodiscard]] double suppression_ratio() const {
    const auto total = updates_written + updates_suppressed + updates_zero;
    if (total == 0) return 0.0;
    return static_cast<double>(updates_suppressed + updates_zero) /
           static_cast<double>(total);
  }
};

/// State shared by every phase of one engine run. Wiring pointers are
/// non-owning and rebound by begin()/load_checkpoint(); everything that
/// defines the run's future behavior is serializable.
struct EngineContext {
  // ---- Wiring (not serialized; rebound on begin/resume) -----------------
  Network* net = nullptr;
  RcsSystem* rcs = nullptr;  ///< nullptr for an all-software network
  const Dataset* data = nullptr;
  const FtFlowConfig* cfg = nullptr;

  // ---- Progress ---------------------------------------------------------
  std::size_t iteration = 0;            ///< iteration being executed (1-based)
  std::size_t phase_count = 0;          ///< detection phases run so far
  std::size_t detection_iteration = 0;  ///< iteration of the latest detection

  // ---- Shared FT state --------------------------------------------------
  PruneState prune_state;
  DetectedFaults detected;  ///< empty until the first detection phase

  // ---- RNG streams (split off the run seed by begin()) ------------------
  Rng batch_rng{1};
  Rng phase_rng{2};

  // ---- Derived per-run state (rebuilt on begin/resume) ------------------
  std::unique_ptr<Batcher> batcher;
  Tensor eval_images;
  std::vector<std::uint8_t> eval_labels;
  std::uint64_t writes_at_start = 0;

  // ---- Accumulating output ----------------------------------------------
  TrainingResult result;

  /// Evaluate on the held-out subset and append a trace row.
  double evaluate(std::size_t iter);
};

/// One step of the flow. due() gates run() each iteration. A phase keeps
/// all its state in the EngineContext, which is what engine checkpoints
/// round-trip.
class Phase {
 public:
  virtual ~Phase() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual bool due(const EngineContext& ctx) const = 0;
  virtual void run(EngineContext& ctx) = 0;
};

/// Tracing hook. Observers are non-owning, never serialized, and must not
/// mutate the context (benches/tools attach CSV writers or progress
/// meters here without touching the flow).
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  virtual void on_run_begin(const EngineContext& ctx) { (void)ctx; }
  virtual void on_phase_begin(const Phase& phase, const EngineContext& ctx) {
    (void)phase;
    (void)ctx;
  }
  virtual void on_phase_end(const Phase& phase, const EngineContext& ctx) {
    (void)phase;
    (void)ctx;
  }
  virtual void on_iteration_end(const EngineContext& ctx) { (void)ctx; }
  virtual void on_run_end(const EngineContext& ctx) { (void)ctx; }
};

// ---- The paper's phases --------------------------------------------------

/// Forward + backward + threshold-filtered SGD update (§5.1). Runs every
/// iteration; when threshold_training is off, the threshold is forced to 0
/// and updates go through apply_delta_full (the "original method").
class TrainStepPhase final : public Phase {
 public:
  explicit TrainStepPhase(const FtFlowConfig& cfg);
  [[nodiscard]] const char* name() const override { return "train-step"; }
  [[nodiscard]] bool due(const EngineContext& ctx) const override;
  void run(EngineContext& ctx) override;

 private:
  ThresholdTrainer updater_;
};

/// Device-time advance: every device_tick_period iterations each store's
/// conductances drift, transient faults decay, and new ones may strike
/// (rcs/crossbar_store.hpp tick_noise). Placed before detection so a
/// detection iteration tests the post-tick device.
class DeviceTickPhase final : public Phase {
 public:
  [[nodiscard]] const char* name() const override { return "device-tick"; }
  [[nodiscard]] bool due(const EngineContext& ctx) const override;
  void run(EngineContext& ctx) override;
};

/// On-line quiescent-voltage detection over every store, pruning-mask
/// refresh, targeted read-back, prune write-back (Fig. 2, right side).
class DetectionPhase final : public Phase {
 public:
  [[nodiscard]] const char* name() const override { return "detection"; }
  [[nodiscard]] bool due(const EngineContext& ctx) const override;
  void run(EngineContext& ctx) override;
};

/// Neuron re-ordering (§5.2); runs right after a detection, during the
/// first two detection phases only.
class RemapPhase final : public Phase {
 public:
  [[nodiscard]] const char* name() const override { return "remap"; }
  [[nodiscard]] bool due(const EngineContext& ctx) const override;
  void run(EngineContext& ctx) override;
};

/// Periodic test-subset accuracy snapshot.
class EvalPhase final : public Phase {
 public:
  [[nodiscard]] const char* name() const override { return "eval"; }
  [[nodiscard]] bool due(const EngineContext& ctx) const override;
  void run(EngineContext& ctx) override;
};

/// Orchestrates the flow of Fig. 2 as a phase pipeline.
class FtEngine {
 public:
  /// Engine with the paper's standard phase list.
  explicit FtEngine(FtFlowConfig cfg);
  /// Engine with a custom phase list (related-work flows plug in here).
  FtEngine(FtFlowConfig cfg, std::vector<std::unique_ptr<Phase>> phases);

  /// The standard phase list (device-tick → detection → remap → train →
  /// eval; the per-iteration order of the monolithic flow this engine
  /// replaced, with device time advancing before anything observes it).
  [[nodiscard]] static std::vector<std::unique_ptr<Phase>> standard_phases(
      const FtFlowConfig& cfg);

  [[nodiscard]] const FtFlowConfig& config() const { return cfg_; }
  [[nodiscard]] const EngineContext& context() const { return ctx_; }

  /// Register a tracing observer (non-owning; must outlive the run). The
  /// CLIs attach an ObsObserver (core/obs_observer.hpp) here.
  void add_observer(EngineObserver* obs);

  // ---- Stepwise interface ----------------------------------------------
  /// Start a fresh run: bind the wiring, derive the RNG streams from
  /// `rng`, record the iteration-0 evaluation.
  void begin(Network& net, RcsSystem* rcs, const Dataset& data, Rng rng);
  [[nodiscard]] bool done() const;
  /// Execute one iteration (all due phases, in order).
  void step();
  /// Final evaluation + endurance totals; returns the completed result.
  TrainingResult finish();

  /// begin + step-to-completion + finish. `rcs` may be nullptr for an
  /// all-software network (the ideal baseline); when given, it must be the
  /// system whose factory produced the network's crossbar stores.
  TrainingResult run(Network& net, RcsSystem* rcs, const Dataset& data,
                     Rng rng);

  // ---- Checkpoint / resume ---------------------------------------------
  /// Serialize the full mid-run context (progress, RNG streams, batcher,
  /// per-store device state, biases, prune/detected maps, trace so far).
  /// Call between iterations (after step() returns). Throws CheckError
  /// when the stream goes bad mid-write (partial checkpoint on disk).
  void save_checkpoint(std::ostream& os) const;
  /// Resume a run saved by save_checkpoint into freshly constructed
  /// net/rcs/data (built the same way as the original run's); overwrites
  /// their state in place. Continue with step()/finish(). Throws
  /// CheckError on a truncated, corrupt or mismatched checkpoint; the
  /// engine is then unstarted (step(), finish() and save_checkpoint()
  /// throw until begin() or a successful load), and the net and RCS may be
  /// part-restored, so rebuild them before reusing them.
  void load_checkpoint(Network& net, RcsSystem* rcs, const Dataset& data,
                       std::istream& is);

 private:
  void bind(Network& net, RcsSystem* rcs, const Dataset& data);

  FtFlowConfig cfg_;
  std::vector<std::unique_ptr<Phase>> phases_;
  std::vector<EngineObserver*> observers_;
  EngineContext ctx_;
  bool begun_ = false;
};

}  // namespace refit
