// Workload definitions and the curve runner (see workloads.hpp).
#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

using namespace refit;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The figure drivers' CNN schedule (bench/bench_util.cpp cnn_flow), kept
// here so the workload stays fixed when the drivers change.
FtFlowConfig cnn_flow(std::size_t iterations, std::size_t eval_samples) {
  FtFlowConfig cfg;
  cfg.iterations = iterations;
  cfg.batch_size = 8;
  cfg.lr = LrSchedule{0.03, 0.5, std::max<std::size_t>(1, iterations / 3),
                      1e-4};
  cfg.eval_period = std::max<std::size_t>(1, iterations / 5);
  cfg.eval_samples = eval_samples;
  cfg.threshold_training = false;
  return cfg;
}

// The paper's four Fig. 7 configurations (FtTrainer::baseline_config).
std::vector<CurveSpec> fig7_curves(const FtFlowConfig& base) {
  FtFlowConfig original = base;
  original.threshold_training = false;
  original.detection_enabled = false;
  FtFlowConfig threshold = original;
  threshold.threshold_training = true;
  FtFlowConfig full = threshold;
  full.detection_enabled = true;
  full.detection_period = std::max<std::size_t>(1, base.iterations / 6);
  full.prune.enabled = true;
  full.prune.fc_sparsity = 0.3;
  full.prune.conv_sparsity = 0.0;
  full.remap_enabled = true;
  full.remap.algorithm = RemapAlgorithm::kHungarian;
  return {{"ideal", original, false},
          {"original", original, true},
          {"threshold", threshold, true},
          {"full", full, true}};
}

// Per-paper RCS defaults of the figure drivers: 128×128 tiles, 8 levels.
RcsConfig cnn_rcs() {
  RcsConfig cfg;
  cfg.tile_rows = 128;
  cfg.tile_cols = 128;
  cfg.levels = 8;
  cfg.write_noise_sigma = 0.01;
  cfg.inject_fabrication = true;
  return cfg;
}

Workload mlp_online(Size size) {
  const bool full = size == Size::kFull;
  Workload w;
  w.data.train_size = full ? 2048 : 256;
  w.data.test_size = full ? 512 : 64;
  w.rcs.inject_fabrication = true;
  w.rcs.fabrication.fraction = 0.10;
  w.rcs.endurance = EnduranceModel::gaussian(2000, 600);
  FtFlowConfig flow;
  flow.iterations = full ? 250 : 20;
  flow.batch_size = 8;
  flow.threshold_training = true;
  flow.detection_enabled = true;
  flow.detection_period = full ? 100 : 10;
  flow.prune.enabled = true;
  flow.remap_enabled = true;
  flow.eval_period = full ? 100 : 10;
  w.curves = {{"full", flow, true}};
  return w;
}

Workload cnn(Size size, bool fc_only) {
  const bool full = size == Size::kFull;
  const std::size_t iters = full ? 80 : 12;
  Workload w;
  w.cnn = true;
  w.fc_only = fc_only;
  w.data.train_size = full ? 2048 : 64;
  w.data.test_size = full ? 384 : 32;
  w.data.noise_stddev = 0.35f;
  w.rcs = cnn_rcs();
  const auto it = static_cast<double>(iters);
  if (fc_only) {
    // A crossbar trained many times before: half its cells already stuck,
    // with plenty of endurance left.
    w.rcs.fabrication.fraction = 0.50;
    w.rcs.endurance = EnduranceModel::gaussian(20.0 * it, 6.0 * it);
  } else {
    // Low endurance: cells wear out within the run.
    w.rcs.fabrication.fraction = 0.10;
    w.rcs.endurance = EnduranceModel::gaussian(0.8 * it, 0.24 * it);
  }
  w.curves = fig7_curves(cnn_flow(iters, w.data.test_size));
  return w;
}

// FNV-1a over raw bytes.
class Hasher {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void pod(T v) {
    bytes(&v, sizeof v);
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    pod<std::uint64_t>(v.size());
    for (const T& x : v) pod(x);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

Workload make_workload(const std::string& name, Size size) {
  if (name == "mlp_online") return mlp_online(size);
  if (name == "cnn_fig7a") return cnn(size, /*fc_only=*/false);
  if (name == "cnn_fig7b_fc") return cnn(size, /*fc_only=*/true);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

namespace {

Dataset build_data(const Workload& w, const Rng& root, SetupTimes& setup) {
  const auto t0 = Clock::now();
  Rng data_rng = root.split(1);
  Dataset data = w.cnn ? make_synthetic_cifar(w.data, data_rng, 16)
                       : make_synthetic_mnist(w.data, data_rng);
  setup.data_s += seconds_since(t0);
  return data;
}

/// A curve's device system (null for software weights) and its network.
struct CurveInputs {
  std::unique_ptr<RcsSystem> rcs;
  Network net;
};

CurveInputs build_curve(const Workload& w, const CurveSpec& curve,
                        const Rng& root, SetupTimes& setup) {
  CurveInputs in;
  auto t0 = Clock::now();
  if (curve.on_rcs) in.rcs = std::make_unique<RcsSystem>(w.rcs, root.split(2));
  setup.rcs_s += seconds_since(t0);

  t0 = Clock::now();
  Rng net_rng = root.split(3);
  const StoreFactory fc =
      in.rcs ? in.rcs->factory() : software_store_factory();
  const StoreFactory conv =
      in.rcs && !w.fc_only ? in.rcs->factory() : software_store_factory();
  in.net = w.cnn ? make_vgg_mini(VggMiniConfig{}, conv, fc, net_rng)
                 : make_mlp({784, 100, 10}, fc, net_rng);
  setup.net_s += seconds_since(t0);
  return in;
}

}  // namespace

SetupTimes time_setup(const Workload& w, std::uint64_t seed) {
  const Rng root(seed);
  SetupTimes setup;
  const Dataset data = build_data(w, root, setup);
  for (const CurveSpec& curve : w.curves) build_curve(w, curve, root, setup);
  return setup;
}

PassResult run_pass(const Workload& w, std::uint64_t seed,
                    const PassHooks* hooks) {
  const Rng root(seed);
  PassResult out;
  const Dataset data = build_data(w, root, out.setup);

  for (const CurveSpec& curve : w.curves) {
    CurveInputs in = build_curve(w, curve, root, out.setup);
    std::unique_ptr<FtEngine> engine;
    if (hooks != nullptr && hooks->phases) {
      engine = std::make_unique<FtEngine>(curve.flow, hooks->phases(curve.flow));
    } else {
      engine = std::make_unique<FtEngine>(curve.flow);
    }
    if (hooks != nullptr) {
      for (EngineObserver* obs : hooks->observers) engine->add_observer(obs);
    }
    std::vector<double>* step_s = hooks != nullptr ? hooks->step_s : nullptr;

    const auto t0 = Clock::now();
    engine->begin(in.net, in.rcs.get(), data, root.split(4));
    while (!engine->done()) {
      if (step_s != nullptr) {
        const auto ts = Clock::now();
        engine->step();
        step_s->push_back(seconds_since(ts));
      } else {
        engine->step();
      }
    }
    TrainingResult result = engine->finish();
    out.wall_s += seconds_since(t0);

    CurveRun run{curve.name, std::move(result), {}};
    run.digest = digest(run.result);
    out.curves.push_back(std::move(run));
  }
  return out;
}

std::string digest(const TrainingResult& r) {
  Hasher h;
  h.vec(r.eval_iterations);
  h.vec(r.eval_accuracy);
  h.vec(r.fault_fraction);
  h.pod(r.peak_accuracy);
  h.pod(r.final_accuracy);
  h.pod(r.device_writes);
  h.pod(r.updates_written);
  h.pod(r.updates_suppressed);
  h.pod(r.updates_zero);
  h.pod<std::uint64_t>(r.wearout_faults);
  h.pod(r.final_fault_fraction);
  h.pod<std::uint64_t>(r.phases.size());
  for (const PhaseEvent& ev : r.phases) {
    h.pod<std::uint64_t>(ev.iteration);
    h.pod<std::uint64_t>(ev.cycles);
    h.pod(ev.detection_writes);
    h.pod(ev.precision);
    h.pod(ev.recall);
    h.pod(ev.remap_cost_before);
    h.pod(ev.remap_cost_after);
    h.pod(ev.hard_precision);
    h.pod(ev.hard_recall);
    h.pod(ev.soft_precision);
    h.pod(ev.soft_recall);
    h.pod(ev.cells_retested);
    h.pod(ev.soft_detected);
  }
  return h.hex();
}

const TrainingResult& full_flow(const PassResult& p) {
  if (p.curves.empty()) throw std::logic_error("pass ran no curves");
  return p.curves.back().result;
}

}  // namespace perfbench
