// Shared benchmark-harness helpers (see bench_util.hpp).
#include "bench_util.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace refit::bench {

bool fast_mode() {
  const char* v = std::getenv("REFIT_FAST");
  return v != nullptr && v[0] == '1';
}

std::size_t scaled(std::size_t n) {
  return fast_mode() ? std::max<std::size_t>(1, n / 4) : n;
}

Dataset cifar_like(std::size_t train, std::size_t test, std::uint64_t seed) {
  SyntheticConfig cfg;
  cfg.train_size = scaled(train);
  cfg.test_size = scaled(test);
  cfg.noise_stddev = 0.35f;
  Rng rng(seed);
  return make_synthetic_cifar(cfg, rng, 16);
}

Dataset mnist_like(std::size_t train, std::size_t test, std::uint64_t seed) {
  SyntheticConfig cfg;
  cfg.train_size = scaled(train);
  cfg.test_size = scaled(test);
  cfg.noise_stddev = 0.3f;
  cfg.background_clip = 0.4f;
  Rng rng(seed);
  return make_synthetic_mnist(cfg, rng);
}

VggMiniConfig vgg_mini_config() {
  return VggMiniConfig{};  // 4 conv (3×3) + 3 FC on 16×16×3, 10 classes
}

RcsConfig rcs_defaults() {
  RcsConfig cfg;
  cfg.tile_rows = 128;
  cfg.tile_cols = 128;
  cfg.levels = 8;
  cfg.write_noise_sigma = 0.01;
  cfg.inject_fabrication = false;
  return cfg;
}

FtFlowConfig cnn_flow(std::size_t iterations) {
  FtFlowConfig cfg;
  cfg.iterations = iterations;
  cfg.batch_size = 8;
  cfg.lr = LrSchedule{0.03, 0.5, std::max<std::size_t>(1, iterations / 3),
                      1e-4};
  cfg.eval_period = std::max<std::size_t>(1, iterations / 20);
  cfg.eval_samples = 512;
  cfg.threshold_training = false;
  return cfg;
}

FtFlowConfig mlp_flow(std::size_t iterations) {
  FtFlowConfig cfg = cnn_flow(iterations);
  cfg.lr = LrSchedule{0.05, 0.5, std::max<std::size_t>(1, iterations / 2),
                      1e-4};
  return cfg;
}

TrainingResult ScenarioBuilder::run(FtBaseline baseline) const {
  const FtFlowConfig cfg = baseline_config(baseline, flow_);
  Rng net_rng(2);
  if (baseline == FtBaseline::kIdeal) {
    Network net = make_vgg_mini(model_, software_store_factory(),
                                software_store_factory(), net_rng);
    return FtEngine(cfg).run(net, nullptr, *data_, Rng(3));
  }
  RcsSystem sys(rcs_, Rng(42));
  const StoreFactory conv =
      fc_only_ ? software_store_factory() : sys.factory();
  Network net = make_vgg_mini(model_, conv, sys.factory(), net_rng);
  return FtEngine(cfg).run(net, &sys, *data_, Rng(3));
}

double accuracy_at(const TrainingResult& r, std::size_t iteration) {
  // Last recorded evaluation at or before `iteration`.
  double acc = 0.0;
  for (std::size_t i = 0; i < r.eval_iterations.size(); ++i) {
    if (r.eval_iterations[i] <= iteration) acc = r.eval_accuracy[i];
  }
  return acc;
}

BenchProvenance collect_provenance() {
  BenchProvenance p;
  p.hardware_threads = std::thread::hardware_concurrency();
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  p.cpu_model = "unknown";
  while (std::getline(is, line)) {
    if (line.find("model name") == std::string::npos) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string name = line.substr(colon + 1);
    const auto first = name.find_first_not_of(" \t");
    p.cpu_model = first == std::string::npos ? name : name.substr(first);
    break;
  }
  p.compiler = __VERSION__;
#ifdef REFIT_BENCH_CXX_FLAGS
  p.cxx_flags = REFIT_BENCH_CXX_FLAGS;
#endif
#ifdef REFIT_BENCH_BUILD_TYPE
  p.build_type = REFIT_BENCH_BUILD_TYPE;
#endif
  return p;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void write_provenance_header(std::ostream& os, const std::string& bench_name,
                             const BenchProvenance& p) {
  os << "{\n";
  os << "  \"bench\": \"" << json_escape(bench_name) << "\",\n";
  os << "  \"provenance\": {\n";
  os << "    \"hardware_threads\": " << p.hardware_threads << ",\n";
  os << "    \"cpu_model\": \"" << json_escape(p.cpu_model) << "\",\n";
  os << "    \"compiler\": \"" << json_escape(p.compiler) << "\"";
  if (!p.cxx_flags.empty()) {
    os << ",\n    \"cxx_flags\": \"" << json_escape(p.cxx_flags) << "\"";
  }
  if (!p.build_type.empty()) {
    os << ",\n    \"build_type\": \"" << json_escape(p.build_type) << "\"";
  }
  os << "\n  },\n";
}

std::string bench_out_path(const std::string& default_path) {
  const char* env = std::getenv("REFIT_BENCH_OUT");
  return env != nullptr ? std::string(env) : default_path;
}

}  // namespace refit::bench
