// Traced-run instrumentation (see probes.hpp).
#include "probes.hpp"

#include <cstring>

#include "core/threshold_trainer.hpp"
#include "nn/loss.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using namespace refit;

namespace {

using Clock = std::chrono::steady_clock;

/// Seconds since `t`, restarting `t` at now.
double lap(Clock::time_point& t) {
  const auto now = Clock::now();
  const double s = std::chrono::duration<double>(now - t).count();
  t = now;
  return s;
}

/// TrainStepPhase::run, split at every layer boundary. The calls and their
/// order are the engine's, so a traced curve reproduces the untraced one
/// bit for bit (the driver checks the digests).
class SplitTrainStep final : public Phase {
 public:
  SplitTrainStep(const FtFlowConfig& cfg, Probe& probe)
      : updater_(effective_threshold(cfg), cfg.lr), probe_(probe) {}

  [[nodiscard]] const char* name() const override { return "train-step"; }
  [[nodiscard]] bool due(const EngineContext& ctx) const override {
    (void)ctx;
    return true;
  }

  void run(EngineContext& ctx) override {
    const FtFlowConfig& cfg = *ctx.cfg;
    Network& net = *ctx.net;
    if (&net != labelled_) label(net);

    auto t = Clock::now();
    const Batch batch = ctx.batcher->next();
    probe_.batch_s += lap(t);

    const std::uint64_t flops0 = counter_value("tensor.gemm.flops");
    t = Clock::now();
    Tensor cur = batch.images;
    for (std::size_t i = 0; i < net.size(); ++i) {
      cur = net.layer(i).forward(cur, /*train=*/true);
      const double s = lap(t);
      probe_.layer_s[fwd_keys_[i]] += s;
      if (matrix_[i]) probe_.matrix_fwd_s += s;
    }
    LossResult loss = softmax_cross_entropy(cur, batch.labels);
    probe_.loss_s += lap(t);
    Tensor grad = loss.grad_logits;
    for (std::size_t i = net.size(); i-- > 0;) {
      grad = net.layer(i).backward(grad);
      const double s = lap(t);
      probe_.layer_s[bwd_keys_[i]] += s;
      if (matrix_[i]) probe_.matrix_bwd_s += s;
    }
    probe_.train_flops += counter_value("tensor.gemm.flops") - flops0;

    t = Clock::now();
    auto params = net.params();
    const ThresholdStepStats st = updater_.step(
        params, ctx.iteration,
        cfg.prune.enabled ? &ctx.prune_state : nullptr,
        (cfg.skip_writes_on_detected_faults && !ctx.detected.empty())
            ? &ctx.detected
            : nullptr);
    probe_.update_s += lap(t);
    ctx.result.updates_written += st.writes_issued;
    ctx.result.updates_suppressed += st.writes_suppressed;
    ctx.result.updates_zero += st.updates_zero;
    net.zero_grad();
    probe_.layer_s["bwd.other"] += lap(t);
  }

 private:
  // TrainStepPhase's rule: without threshold training θ = 0, which sends
  // every update through apply_delta_full (the "original" scheme).
  static ThresholdConfig effective_threshold(const FtFlowConfig& cfg) {
    ThresholdConfig thr = cfg.threshold;
    if (!cfg.threshold_training) thr.threshold_ratio = 0.0;
    return thr;
  }

  // Probe::layer_s keys of each layer, worked out once per network.
  void label(Network& net) {
    fwd_keys_.clear();
    bwd_keys_.clear();
    matrix_.clear();
    std::map<std::string, std::size_t> seen;
    for (std::size_t i = 0; i < net.size(); ++i) {
      Layer& layer = net.layer(i);
      const bool is_matrix = dynamic_cast<MatrixLayer*>(&layer) != nullptr;
      matrix_.push_back(is_matrix);
      std::string label = "other";
      if (is_matrix) {
        const std::string kind = layer.kind();
        label = kind + std::to_string(seen[kind]++);
      }
      fwd_keys_.push_back("fwd." + label);
      bwd_keys_.push_back("bwd." + label);
    }
    labelled_ = &net;
  }

  ThresholdTrainer updater_;
  Probe& probe_;
  const Network* labelled_ = nullptr;
  std::vector<std::string> fwd_keys_;
  std::vector<std::string> bwd_keys_;
  std::vector<bool> matrix_;
};

}  // namespace

void PhaseTimer::on_phase_begin(const Phase& phase, const EngineContext& ctx) {
  (void)phase;
  (void)ctx;
  t0_ = Clock::now();
}

void PhaseTimer::on_phase_end(const Phase& phase, const EngineContext& ctx) {
  (void)ctx;
  probe_.phase_s[phase.name()] +=
      std::chrono::duration<double>(Clock::now() - t0_).count();
  ++probe_.phase_runs[phase.name()];
}

std::vector<std::unique_ptr<Phase>> traced_phases(const FtFlowConfig& cfg,
                                                  Probe& probe) {
  std::vector<std::unique_ptr<Phase>> phases = FtEngine::standard_phases(cfg);
  for (auto& phase : phases) {
    if (std::strcmp(phase->name(), "train-step") == 0) {
      phase = std::make_unique<SplitTrainStep>(cfg, probe);
    }
  }
  return phases;
}

std::uint64_t counter_value(const std::string& name) {
  for (const obs::MetricSnapshot& m :
       obs::MetricsRegistry::instance().snapshot()) {
    if (m.name == name) return m.count;
  }
  return 0;
}

}  // namespace perfbench
