// Phase-decomposed fault-tolerant training engine (see engine.hpp).
#include "core/engine.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>

#include "common/log.hpp"
#include "common/serialize.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace refit {

FtFlowConfig baseline_config(FtBaseline baseline, FtFlowConfig base) {
  switch (baseline) {
    case FtBaseline::kIdeal:
    case FtBaseline::kOriginal:
      base.threshold_training = false;
      base.detection_enabled = false;
      break;
    case FtBaseline::kThreshold:
      base.threshold_training = true;
      base.detection_enabled = false;
      break;
    case FtBaseline::kFullFlow:
      base.threshold_training = true;
      base.detection_enabled = true;
      base.detection_period = std::max<std::size_t>(1, base.iterations / 6);
      base.prune.enabled = true;
      base.prune.fc_sparsity = 0.3;
      base.prune.conv_sparsity = 0.0;
      base.remap_enabled = true;
      base.remap.algorithm = RemapAlgorithm::kHungarian;
      break;
  }
  return base;
}

double EngineContext::evaluate(std::size_t iter) {
  const double acc = net->evaluate(eval_images, eval_labels);
  result.eval_iterations.push_back(iter);
  result.eval_accuracy.push_back(acc);
  result.fault_fraction.push_back(rcs != nullptr ? rcs->fault_fraction()
                                                 : 0.0);
  result.peak_accuracy = std::max(result.peak_accuracy, acc);
  return acc;
}

// ---- TrainStepPhase ------------------------------------------------------

namespace {
ThresholdConfig effective_threshold(const FtFlowConfig& cfg) {
  ThresholdConfig thr = cfg.threshold;
  // θ = 0 sends every update through apply_delta_full — the "original"
  // scheme that re-programs the whole array each step.
  if (!cfg.threshold_training) thr.threshold_ratio = 0.0;
  return thr;
}
}  // namespace

TrainStepPhase::TrainStepPhase(const FtFlowConfig& cfg)
    : updater_(effective_threshold(cfg), cfg.lr) {}

bool TrainStepPhase::due(const EngineContext& ctx) const {
  (void)ctx;
  return true;
}

void TrainStepPhase::run(EngineContext& ctx) {
  const FtFlowConfig& cfg = *ctx.cfg;
  const Batch batch = ctx.batcher->next();
  (void)ctx.net->train_gradients(batch.images, batch.labels);
  auto params = ctx.net->params();
  const ThresholdStepStats st = updater_.step(
      params, ctx.iteration,
      cfg.prune.enabled ? &ctx.prune_state : nullptr,
      (cfg.skip_writes_on_detected_faults && !ctx.detected.empty())
          ? &ctx.detected
          : nullptr);
  ctx.result.updates_written += st.writes_issued;
  ctx.result.updates_suppressed += st.writes_suppressed;
  ctx.result.updates_zero += st.updates_zero;
  ctx.net->zero_grad();
}

// ---- DeviceTickPhase -----------------------------------------------------

bool DeviceTickPhase::due(const EngineContext& ctx) const {
  const FtFlowConfig& cfg = *ctx.cfg;
  return ctx.rcs != nullptr && cfg.device_tick_period > 0 &&
         ctx.iteration % cfg.device_tick_period == 0;
}

void DeviceTickPhase::run(EngineContext& ctx) {
  for (CrossbarWeightStore* store : ctx.rcs->stores()) {
    store->tick_noise();
  }
}

// ---- DetectionPhase ------------------------------------------------------

bool DetectionPhase::due(const EngineContext& ctx) const {
  const FtFlowConfig& cfg = *ctx.cfg;
  return cfg.detection_enabled && ctx.rcs != nullptr &&
         cfg.detection_period > 0 &&
         ctx.iteration % cfg.detection_period == 0;
}

void DetectionPhase::run(EngineContext& ctx) {
  const FtFlowConfig& cfg = *ctx.cfg;
  Network& net = *ctx.net;
  PhaseEvent ev;
  ev.iteration = ctx.iteration;
  ++ctx.phase_count;
  ctx.detection_iteration = ctx.iteration;

  // "On-line detection": per-store quiescent-voltage testing → F of §5.2.
  const QuiescentVoltageDetector detector(cfg.detector);
  const bool classify = cfg.detector.classify_soft;
  ConfusionCounts confusion;
  ClassifiedConfusion classified;
  const auto layers = net.matrix_layers();
  ctx.detected.resize(layers.size());
  for (std::size_t k = 0; k < layers.size(); ++k) {
    auto* store = dynamic_cast<CrossbarWeightStore*>(&layers[k]->weights());
    if (store == nullptr) continue;
    DetectionOutcome outcome = detector.detect_store(*store);
    if (classify) {
      // Classification scrubbed the transient pins, so score against the
      // pre-detection snapshot (post-detection truth has them healthy).
      for (std::size_t r = 0; r < outcome.predicted.rows(); ++r) {
        for (std::size_t c = 0; c < outcome.predicted.cols(); ++c) {
          confusion.add(outcome.truth_before.faulty(r, c),
                        outcome.predicted.faulty(r, c));
        }
      }
      const ClassifiedConfusion cc = evaluate_classified(outcome);
      classified.hard += cc.hard;
      classified.soft += cc.soft;
      ev.cells_retested += outcome.cells_retested;
      // Hand re-mapping and write-skipping only the permanent faults: the
      // classified-soft cells are healthy again after the scrub.
      for (std::size_t r = 0; r < outcome.predicted.rows(); ++r) {
        for (std::size_t c = 0; c < outcome.predicted.cols(); ++c) {
          if (outcome.classified_soft.faulty(r, c)) {
            outcome.predicted.set(r, c, FaultKind::kNone);
            ++ev.soft_detected;
          }
        }
      }
    } else {
      confusion += evaluate_detection(*store, outcome.predicted);
    }
    ctx.detected[k] = std::move(outcome.predicted);
    ev.cycles += outcome.cycles;
    ev.detection_writes += outcome.device_writes;
  }
  ev.precision = confusion.precision();
  ev.recall = confusion.recall();
  obs::EventLog::global().emit(
      obs::EventKind::kFaultDetected, obs::EventSeverity::kInfo, "detection",
      {{"iteration", static_cast<double>(ctx.iteration)},
       {"cycles", static_cast<double>(ev.cycles)},
       {"device_writes", static_cast<double>(ev.detection_writes)},
       {"precision", ev.precision},
       {"recall", ev.recall}});
  // Per-round detection quality gauges (docs/observability.md).
  static obs::Gauge precision_gauge =
      obs::MetricsRegistry::instance().gauge("detector.precision");
  static obs::Gauge recall_gauge =
      obs::MetricsRegistry::instance().gauge("detector.recall");
  precision_gauge.set(ev.precision);
  recall_gauge.set(ev.recall);
  if (classify) {
    ev.hard_precision = classified.hard.precision();
    ev.hard_recall = classified.hard.recall();
    ev.soft_precision = classified.soft.precision();
    ev.soft_recall = classified.soft.recall();
    static obs::Gauge hard_p_gauge =
        obs::MetricsRegistry::instance().gauge("detector.precision.hard");
    static obs::Gauge hard_r_gauge =
        obs::MetricsRegistry::instance().gauge("detector.recall.hard");
    static obs::Gauge soft_p_gauge =
        obs::MetricsRegistry::instance().gauge("detector.precision.soft");
    static obs::Gauge soft_r_gauge =
        obs::MetricsRegistry::instance().gauge("detector.recall.soft");
    hard_p_gauge.set(ev.hard_precision);
    hard_r_gauge.set(ev.hard_recall);
    soft_p_gauge.set(ev.soft_precision);
    soft_r_gauge.set(ev.soft_recall);
    obs::EventLog::global().emit(
        obs::EventKind::kSoftClassified, obs::EventSeverity::kInfo,
        "detection",
        {{"iteration", static_cast<double>(ctx.iteration)},
         {"cells_retested", static_cast<double>(ev.cells_retested)},
         {"soft_detected", static_cast<double>(ev.soft_detected)},
         {"soft_precision", ev.soft_precision},
         {"soft_recall", ev.soft_recall}});
  }

  // "Generate pruning": compute the masks from the off-chip target weights
  // *before* any read-back, so the mask reflects functional importance (the
  // paper's P comes from software training and is fault-agnostic); the
  // re-mapping phase is what aligns P with the fault distribution F.
  if (cfg.prune.enabled) {
    if (cfg.prune.structured) {
      // A structured mask is kept stable once chosen: re-ranking neurons
      // every phase would flip membership and repeatedly zero/revive whole
      // units, which costs far more accuracy than a slightly stale ranking.
      if (ctx.prune_state.empty()) {
        ctx.prune_state =
            compute_structured_pruning(net, cfg.prune.neuron_sparsity);
      }
    } else {
      ctx.prune_state = PruneState::compute(net, cfg.prune);
    }
  }

  // Read the fault-hosted weights back off-chip (Fig. 3's read/store step,
  // applied where it matters): their targets collapse to what the device
  // actually computes, so re-mapping relocates the functioning network
  // instead of stale off-chip values. Healthy cells keep their full-
  // precision off-chip accumulation.
  for (std::size_t k = 0; k < layers.size(); ++k) {
    if (auto* store = dynamic_cast<CrossbarWeightStore*>(&layers[k]->weights()))
      store->sync_targets_where(ctx.detected[k]);
  }

  // Write the pruned zeros (the pruned network P of §5.2).
  if (cfg.prune.enabled) {
    ctx.prune_state.apply_to(net);
  }

  ctx.result.phases.push_back(ev);
}

// ---- RemapPhase ----------------------------------------------------------

namespace {
// Re-map only during the first this-many detection phases. On-line
// training adapts the surviving weights *around* the current fault
// placement, so a late re-map invalidates that adaptation even when it
// reduces static collisions; early re-maps get the alignment benefit
// without the cost.
constexpr std::size_t kRemapMaxPhases = 2;
}  // namespace

bool RemapPhase::due(const EngineContext& ctx) const {
  const FtFlowConfig& cfg = *ctx.cfg;
  // Runs only in an iteration whose detection phase just completed (the
  // phase list places it right after DetectionPhase), and only during the
  // first kRemapMaxPhases detections.
  return cfg.remap_enabled && ctx.detection_iteration == ctx.iteration &&
         !ctx.result.phases.empty() &&
         ctx.phase_count <= kRemapMaxPhases;
}

void RemapPhase::run(EngineContext& ctx) {
  // "Re-mapping": align the pruned zeros with the detected SA0 cells.
  const RemapReport rr = remap_network(*ctx.net, ctx.detected,
                                       ctx.prune_state, ctx.cfg->remap,
                                       ctx.phase_rng);
  PhaseEvent& ev = ctx.result.phases.back();
  ev.remap_cost_before = rr.cost_before;
  ev.remap_cost_after = rr.cost_after;
  // A remap that leaves residual cost means pruned zeros could not cover
  // every stuck cell — worth flagging above info level.
  obs::EventLog::global().emit(
      obs::EventKind::kRemap,
      rr.cost_after > 0 ? obs::EventSeverity::kWarn
                        : obs::EventSeverity::kInfo,
      "remap",
      {{"iteration", static_cast<double>(ctx.iteration)},
       {"cost_before", static_cast<double>(rr.cost_before)},
       {"cost_after", static_cast<double>(rr.cost_after)}});
}

// ---- EvalPhase -----------------------------------------------------------

bool EvalPhase::due(const EngineContext& ctx) const {
  return ctx.cfg->eval_period > 0 &&
         ctx.iteration % ctx.cfg->eval_period == 0;
}

void EvalPhase::run(EngineContext& ctx) {
  const double acc = ctx.evaluate(ctx.iteration);
  // Exported as a gauge so the timeseries sampler sees accuracy-over-time.
  static obs::Gauge acc_gauge =
      obs::MetricsRegistry::instance().gauge("engine.eval_accuracy");
  acc_gauge.set(acc);
  REFIT_DEBUG("iter " << ctx.iteration << " acc=" << acc);
}

// ---- FtEngine ------------------------------------------------------------

FtEngine::FtEngine(FtFlowConfig cfg) : cfg_(cfg) {
  phases_ = standard_phases(cfg_);
}

FtEngine::FtEngine(FtFlowConfig cfg, std::vector<std::unique_ptr<Phase>> phases)
    : cfg_(cfg), phases_(std::move(phases)) {}

std::vector<std::unique_ptr<Phase>> FtEngine::standard_phases(
    const FtFlowConfig& cfg) {
  std::vector<std::unique_ptr<Phase>> phases;
  phases.push_back(std::make_unique<DeviceTickPhase>());
  phases.push_back(std::make_unique<DetectionPhase>());
  phases.push_back(std::make_unique<RemapPhase>());
  phases.push_back(std::make_unique<TrainStepPhase>(cfg));
  phases.push_back(std::make_unique<EvalPhase>());
  return phases;
}

void FtEngine::add_observer(EngineObserver* obs) {
  if (obs != nullptr) observers_.push_back(obs);
}

void FtEngine::bind(Network& net, RcsSystem* rcs, const Dataset& data) {
  ctx_.net = &net;
  ctx_.rcs = rcs;
  ctx_.data = &data;
  ctx_.cfg = &cfg_;
  const std::size_t eval_n = std::min(cfg_.eval_samples, data.test_size());
  ctx_.eval_images = slice_batch(data.test_images, 0, eval_n);
  ctx_.eval_labels.assign(
      data.test_labels.begin(),
      data.test_labels.begin() + static_cast<std::ptrdiff_t>(eval_n));
}

void FtEngine::begin(Network& net, RcsSystem* rcs, const Dataset& data,
                     Rng rng) {
  REFIT_CHECK(cfg_.iterations > 0 && cfg_.batch_size > 0);
  // An engine may be reused across runs; per-run state starts fresh.
  ctx_ = EngineContext{};
  bind(net, rcs, data);
  ctx_.batch_rng = rng.split(1);
  ctx_.phase_rng = rng.split(2);
  // The Batcher holds a reference to ctx_.batch_rng (stable: ctx_ is a
  // member and never relocates) and draws its first shuffle here.
  ctx_.batcher = std::make_unique<Batcher>(data, cfg_.batch_size,
                                           ctx_.batch_rng);
  ctx_.writes_at_start = rcs != nullptr ? rcs->total_device_writes() : 0;
  begun_ = true;
  ctx_.evaluate(0);
  for (auto* obs : observers_) obs->on_run_begin(ctx_);
}

bool FtEngine::done() const { return ctx_.iteration >= cfg_.iterations; }

void FtEngine::step() {
  REFIT_CHECK_MSG(begun_, "FtEngine::step() before begin()");
  REFIT_CHECK_MSG(!done(), "FtEngine::step() past the end of the run");
  ++ctx_.iteration;
  for (const auto& phase : phases_) {
    if (!phase->due(ctx_)) continue;
    for (auto* obs : observers_) obs->on_phase_begin(*phase, ctx_);
    try {
      phase->run(ctx_);
    } catch (...) {
      // Record which phase broke before the exception unwinds the run;
      // the flight recorder makes this visible in post-mortems.
      obs::EventLog::global().emit(
          obs::EventKind::kPhaseError, obs::EventSeverity::kError,
          phase->name(),
          {{"iteration", static_cast<double>(ctx_.iteration)}});
      throw;
    }
    for (auto* obs : observers_) obs->on_phase_end(*phase, ctx_);
  }
  if (ctx_.detection_iteration == ctx_.iteration &&
      !ctx_.result.phases.empty()) {
    const PhaseEvent& ev = ctx_.result.phases.back();
    REFIT_DEBUG("detection @" << ctx_.iteration << ": precision="
                              << ev.precision << " recall=" << ev.recall
                              << " remap " << ev.remap_cost_before << "→"
                              << ev.remap_cost_after);
  }
  for (auto* obs : observers_) obs->on_iteration_end(ctx_);
}

TrainingResult FtEngine::finish() {
  REFIT_CHECK_MSG(begun_, "FtEngine::finish() before begin()");
  ctx_.result.final_accuracy = ctx_.evaluate(cfg_.iterations);
  if (ctx_.rcs != nullptr) {
    ctx_.result.device_writes =
        ctx_.rcs->total_device_writes() - ctx_.writes_at_start;
    ctx_.result.wearout_faults = ctx_.rcs->wearout_fault_count();
    ctx_.result.final_fault_fraction = ctx_.rcs->fault_fraction();
  }
  for (auto* obs : observers_) obs->on_run_end(ctx_);
  begun_ = false;
  return std::move(ctx_.result);
}

TrainingResult FtEngine::run(Network& net, RcsSystem* rcs, const Dataset& data,
                             Rng rng) {
  begin(net, rcs, data, rng);
  while (!done()) step();
  return finish();
}

// ---- Checkpointing -------------------------------------------------------

namespace {

constexpr std::uint64_t kEngineTag = 0x5245464954454E47ULL;  // "REFITENG"
// 2: ThresholdConfig (inside the raw FtFlowConfig) lost its global_max
// flag, which changed the struct's layout.
// 3: remap_max_phases and RemapConfig's tuning fields became constants.
constexpr std::uint32_t kEngineVersion = 3;

void write_size_vec(std::ostream& os, const std::vector<std::size_t>& v) {
  std::vector<std::uint64_t> tmp(v.begin(), v.end());
  ser::write_vec(os, tmp);
}

std::vector<std::size_t> read_size_vec(std::istream& is) {
  const auto tmp = ser::read_vec<std::uint64_t>(is);
  return {tmp.begin(), tmp.end()};
}

void write_fault_matrix(std::ostream& os, const FaultMatrix& fm) {
  ser::write_pod<std::uint64_t>(os, fm.rows());
  ser::write_pod<std::uint64_t>(os, fm.cols());
  std::vector<std::uint8_t> cells(fm.cells().size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i] = static_cast<std::uint8_t>(fm.cells()[i]);
  }
  ser::write_vec(os, cells);
}

FaultMatrix read_fault_matrix(std::istream& is) {
  const auto rows = static_cast<std::size_t>(ser::read_pod<std::uint64_t>(is));
  const auto cols = static_cast<std::size_t>(ser::read_pod<std::uint64_t>(is));
  const auto raw = ser::read_vec<std::uint8_t>(is);
  std::vector<FaultKind> cells(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    REFIT_CHECK_MSG(raw[i] <= static_cast<std::uint8_t>(FaultKind::kSoftStuck1),
                    "corrupt engine checkpoint (fault kind)");
    cells[i] = static_cast<FaultKind>(raw[i]);
  }
  return FaultMatrix(rows, cols, std::move(cells));
}

void write_prune_mask(std::ostream& os, const PruneMask& mask) {
  ser::write_pod<std::uint64_t>(os, mask.rows);
  ser::write_pod<std::uint64_t>(os, mask.cols);
  ser::write_vec(os, mask.pruned);
}

PruneMask read_prune_mask(std::istream& is) {
  PruneMask mask;
  mask.rows = static_cast<std::size_t>(ser::read_pod<std::uint64_t>(is));
  mask.cols = static_cast<std::size_t>(ser::read_pod<std::uint64_t>(is));
  mask.pruned = ser::read_vec<std::uint8_t>(is);
  REFIT_CHECK_MSG(mask.pruned.size() == mask.rows * mask.cols,
                  "corrupt engine checkpoint (prune mask)");
  // Normalize to 0/1 so a re-saved checkpoint is byte-stable.
  for (std::uint8_t& b : mask.pruned) b = b != 0 ? 1 : 0;
  return mask;
}

void write_result(std::ostream& os, const TrainingResult& r) {
  write_size_vec(os, r.eval_iterations);
  ser::write_vec(os, r.eval_accuracy);
  ser::write_vec(os, r.fault_fraction);
  ser::write_pod(os, r.peak_accuracy);
  ser::write_pod(os, r.final_accuracy);
  ser::write_pod(os, r.device_writes);
  ser::write_pod(os, r.updates_written);
  ser::write_pod(os, r.updates_suppressed);
  ser::write_pod(os, r.updates_zero);
  ser::write_pod<std::uint64_t>(os, r.wearout_faults);
  ser::write_pod(os, r.final_fault_fraction);
  ser::write_vec(os, r.phases);
}

TrainingResult read_result(std::istream& is) {
  TrainingResult r;
  r.eval_iterations = read_size_vec(is);
  r.eval_accuracy = ser::read_vec<double>(is);
  r.fault_fraction = ser::read_vec<double>(is);
  r.peak_accuracy = ser::read_pod<double>(is);
  r.final_accuracy = ser::read_pod<double>(is);
  r.device_writes = ser::read_pod<std::uint64_t>(is);
  r.updates_written = ser::read_pod<std::uint64_t>(is);
  r.updates_suppressed = ser::read_pod<std::uint64_t>(is);
  r.updates_zero = ser::read_pod<std::uint64_t>(is);
  r.wearout_faults =
      static_cast<std::size_t>(ser::read_pod<std::uint64_t>(is));
  r.final_fault_fraction = ser::read_pod<double>(is);
  r.phases = ser::read_vec<PhaseEvent>(is);
  return r;
}

}  // namespace

void FtEngine::save_checkpoint(std::ostream& os) const {
  REFIT_CHECK_MSG(begun_, "save_checkpoint() outside an active run");
  ser::write_tag(os, kEngineTag);
  ser::write_pod(os, kEngineVersion);
  ser::write_pod(os, cfg_);

  ser::write_pod<std::uint64_t>(os, ctx_.iteration);
  ser::write_pod<std::uint64_t>(os, ctx_.phase_count);
  ser::write_pod<std::uint64_t>(os, ctx_.detection_iteration);
  ser::write_pod(os, ctx_.batch_rng.state());
  ser::write_pod(os, ctx_.phase_rng.state());
  ctx_.batcher->save(os);
  ser::write_pod(os, ctx_.writes_at_start);
  write_result(os, ctx_.result);

  // Every trainable parameter, in network order: full device state for
  // store-backed matrices, the raw tensor for peripheral (bias) params.
  auto params = ctx_.net->params();
  ser::write_pod<std::uint64_t>(os, params.size());
  for (const Param& p : params) {
    if (p.store != nullptr) {
      ser::write_pod<std::uint8_t>(os, 1);
      p.store->save_state(os);
    } else {
      ser::write_pod<std::uint8_t>(os, 0);
      write_tensor(os, *p.value);
    }
  }

  // Prune masks and detected-fault maps, one optional pair per matrix layer.
  const std::size_t nlayers = ctx_.net->matrix_layers().size();
  ser::write_pod<std::uint64_t>(os, nlayers);
  for (std::size_t k = 0; k < nlayers; ++k) {
    const PruneMask* mask = ctx_.prune_state.mask_for(k);
    ser::write_pod<std::uint8_t>(os, mask != nullptr ? 1 : 0);
    if (mask != nullptr) write_prune_mask(os, *mask);
    const FaultMatrix* fm = detected_for(ctx_.detected, k);
    ser::write_pod<std::uint8_t>(os, fm != nullptr ? 1 : 0);
    if (fm != nullptr) write_fault_matrix(os, *fm);
  }

  obs::EventLog::global().emit(
      obs::EventKind::kCheckpoint, obs::EventSeverity::kInfo, "engine",
      {{"iteration", static_cast<double>(ctx_.iteration)}});
}

void FtEngine::load_checkpoint(Network& net, RcsSystem* rcs,
                               const Dataset& data, std::istream& is) {
  // Any throw below leaves a context that is not a run (reset, or
  // half-read), so the engine stays unstarted until the load completes.
  begun_ = false;
  ser::expect_tag(is, kEngineTag);
  const auto version = ser::read_pod<std::uint32_t>(is);
  REFIT_CHECK_MSG(version == kEngineVersion,
                  "unsupported engine checkpoint version");
  const auto saved_cfg = ser::read_pod<FtFlowConfig>(is);
  REFIT_CHECK_MSG(saved_cfg.iterations == cfg_.iterations &&
                      saved_cfg.batch_size == cfg_.batch_size &&
                      saved_cfg.detection_period == cfg_.detection_period &&
                      saved_cfg.eval_period == cfg_.eval_period &&
                      saved_cfg.device_tick_period == cfg_.device_tick_period,
                  "engine checkpoint was written with a different config");

  ctx_ = EngineContext{};
  bind(net, rcs, data);
  ctx_.iteration = static_cast<std::size_t>(ser::read_pod<std::uint64_t>(is));
  ctx_.phase_count =
      static_cast<std::size_t>(ser::read_pod<std::uint64_t>(is));
  ctx_.detection_iteration =
      static_cast<std::size_t>(ser::read_pod<std::uint64_t>(is));
  const auto batch_state = ser::read_pod<Rng::State>(is);
  const auto phase_state = ser::read_pod<Rng::State>(is);
  // Construct the batcher first — its constructor draws a shuffle from the
  // RNG — then pin both streams to the saved states and overwrite the
  // shuffle with the saved order, so the resumed stream position is exact.
  ctx_.batcher = std::make_unique<Batcher>(data, cfg_.batch_size,
                                           ctx_.batch_rng);
  ctx_.batch_rng.set_state(batch_state);
  ctx_.phase_rng.set_state(phase_state);
  ctx_.batcher->load(is);
  ctx_.writes_at_start = ser::read_pod<std::uint64_t>(is);
  ctx_.result = read_result(is);

  auto params = net.params();
  const auto nparams =
      static_cast<std::size_t>(ser::read_pod<std::uint64_t>(is));
  REFIT_CHECK_MSG(nparams == params.size(),
                  "engine checkpoint does not match the network");
  for (Param& p : params) {
    const auto is_store = ser::read_pod<std::uint8_t>(is);
    if (is_store != 0) {
      REFIT_CHECK_MSG(p.store != nullptr,
                      "engine checkpoint does not match the network");
      p.store->restore_state(is);
    } else {
      REFIT_CHECK_MSG(p.value != nullptr,
                      "engine checkpoint does not match the network");
      Tensor t = read_tensor(is);
      REFIT_CHECK_MSG(t.shape() == p.value->shape(),
                      "engine checkpoint does not match the network");
      *p.value = std::move(t);
    }
  }

  auto layers = net.matrix_layers();
  const auto nlayers =
      static_cast<std::size_t>(ser::read_pod<std::uint64_t>(is));
  REFIT_CHECK_MSG(nlayers == layers.size(),
                  "engine checkpoint does not match the network");
  // A mask or fault map of another shape would be indexed past its end by
  // the next update or remap, so both must match their layer's weights.
  for (std::size_t k = 0; k < layers.size(); ++k) {
    const Shape& shape = layers[k]->weights().shape();
    if (ser::read_pod<std::uint8_t>(is) != 0) {
      const PruneMask mask = read_prune_mask(is);
      REFIT_CHECK_MSG(mask.rows == shape[0] && mask.cols == shape[1],
                      "engine checkpoint prune mask does not match its layer");
      ctx_.prune_state.merge_mask(k, mask);
    }
    if (ser::read_pod<std::uint8_t>(is) != 0) {
      FaultMatrix fm = read_fault_matrix(is);
      REFIT_CHECK_MSG(fm.rows() == shape[0] && fm.cols() == shape[1],
                      "engine checkpoint fault map does not match its layer");
      ctx_.detected.resize(layers.size());
      ctx_.detected[k] = std::move(fm);
    }
  }

  begun_ = true;
}

}  // namespace refit
