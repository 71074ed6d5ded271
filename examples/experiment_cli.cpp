// experiment_cli — run a custom fault-tolerant training experiment from
// the command line without writing any C++.
//
//   build/examples/experiment_cli [key=value ...]
//
// Keys (defaults in brackets):
//   model=mlp|cnn          [mlp]    784×100×10 MLP or VGG-mini CNN
//   map=entire|fc_only     [entire] which layers live on crossbars
//   iters=N                [1000]   training iterations
//   batch=N                [8]      batch size
//   faults=F               [0.1]    initial stuck-at fraction
//   spatial=uniform|cluster|line [uniform]
//   endurance=E            [0]      mean cell endurance in writes (0 = ∞)
//   threshold=0|1          [1]      threshold training (§5.1)
//   detect=0|1             [0]      on-line detection + re-mapping
//   period=N               [iters/5] detection period
//   prune=S                [0.3]    FC pruning sparsity when detect=1
//   seed=N                 [1]      master seed
//
// Numeric values must be plain non-negative numbers, and iters and batch
// at least 1; anything else (abc, -5, 12x) exits 2 with a one-line
// message naming the key.
//
// Observability flags (docs/observability.md; any output flag enables
// the obs layer and the end-of-run per-phase timing table):
//   --trace-out=FILE       Chrome trace-event JSON (Perfetto-loadable)
//   --metrics-out=FILE     metrics snapshot; .csv extension → CSV, else JSON
//   --timeseries-out=FILE  per-iteration metric samples, JSONL
//   --events-out=FILE      structured event log, JSONL
//   --manual-clock         deterministic injected clock (golden runs)
//
// Example: reproduce the Fig. 7(b) setting in one line:
//   build/examples/experiment_cli model=cnn map=fc_only faults=0.5
//       iters=1200 detect=1
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "core/engine.hpp"
#include "core/obs_observer.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "obs/capture.hpp"

using namespace refit;

namespace {

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (obs::is_obs_flag(arg)) continue;  // handled by obs::init_obs
    const auto eq = arg.find('=');
    if (eq == std::string::npos || arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "ignoring malformed argument '%s'\n",
                   arg.c_str());
      continue;
    }
    kv[arg.substr(0, eq)] = arg.substr(eq + 1);
  }
  return kv;
}

std::string get(const std::map<std::string, std::string>& kv,
                const std::string& key, const std::string& dflt) {
  const auto it = kv.find(key);
  return it == kv.end() ? dflt : it->second;
}

[[noreturn]] void reject(const std::string& key, const std::string& text,
                         const char* want) {
  std::fprintf(stderr, "experiment_cli: %s=%s is not %s\n", key.c_str(),
               text.c_str(), want);
  std::exit(2);
}

/// An integer argument of at least `min`; exits 2 on anything else.
std::uint64_t get_count(const std::map<std::string, std::string>& kv,
                        const std::string& key, const std::string& dflt,
                        std::uint64_t min = 0) {
  const std::string text = get(kv, key, dflt);
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < min) {
    reject(key, text, min == 0 ? "a non-negative integer"
                               : "a positive integer");
  }
  return v;
}

/// A finite non-negative real argument; exits 2 on anything else.
double get_real(const std::map<std::string, std::string>& kv,
                const std::string& key, const std::string& dflt) {
  const std::string text = get(kv, key, dflt);
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < 0.0) {
    reject(key, text, "a non-negative number");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const auto kv = parse_args(argc, argv);
  const std::string model = get(kv, "model", "mlp");
  const std::string map = get(kv, "map", "entire");
  const std::size_t iters = get_count(kv, "iters", "1000", 1);
  const std::size_t batch = get_count(kv, "batch", "8", 1);
  const double faults = get_real(kv, "faults", "0.1");
  const std::string spatial = get(kv, "spatial", "uniform");
  const double endurance = get_real(kv, "endurance", "0");
  const bool threshold = get(kv, "threshold", "1") == "1";
  const bool detect = get(kv, "detect", "0") == "1";
  const std::size_t period = get_count(kv, "period", std::to_string(iters / 5));
  const double prune = get_real(kv, "prune", "0.3");
  const std::uint64_t seed = get_count(kv, "seed", "1");
  const obs::ObsOptions obs_opts = obs::init_obs(argc, argv);

  // Dataset.
  SyntheticConfig dc;
  dc.train_size = 2048;
  dc.test_size = 512;
  Rng drng(seed);
  const Dataset data = model == "cnn" ? make_synthetic_cifar(dc, drng, 16)
                                      : make_synthetic_mnist(dc, drng);

  // Chip.
  RcsConfig rc;
  rc.inject_fabrication = faults > 0.0;
  rc.fabrication.fraction = faults;
  if (spatial == "cluster")
    rc.fabrication.spatial = SpatialDistribution::kClustered;
  else if (spatial == "line")
    rc.fabrication.spatial = SpatialDistribution::kLineDefects;
  if (endurance > 0.0)
    rc.endurance = EnduranceModel::gaussian(endurance, 0.3 * endurance);
  RcsSystem rcs(rc, Rng(seed + 1));

  // Network.
  Rng nrng(seed + 2);
  Network net =
      model == "cnn"
          ? make_vgg_mini(VggMiniConfig{},
                          map == "fc_only" ? software_store_factory()
                                           : rcs.factory(),
                          rcs.factory(), nrng)
          : make_mlp({784, 100, 10}, rcs.factory(), nrng);

  // Flow.
  FtFlowConfig flow;
  flow.iterations = iters;
  flow.batch_size = batch;
  flow.lr = LrSchedule{model == "cnn" ? 0.03 : 0.05, 0.5, iters / 3, 1e-4};
  flow.eval_period = std::max<std::size_t>(1, iters / 10);
  flow.threshold_training = threshold;
  if (detect) {
    flow.detection_enabled = true;
    flow.detection_period = period;
    flow.prune.enabled = prune > 0.0;
    flow.prune.fc_sparsity = prune;
    flow.prune.conv_sparsity = 0.0;
    flow.remap_enabled = true;
    flow.remap.algorithm = RemapAlgorithm::kHungarian;
  }

  std::printf("model=%s map=%s iters=%zu faults=%.0f%%(%s) endurance=%s "
              "threshold=%d detect=%d\n\n",
              model.c_str(), map.c_str(), iters, faults * 100,
              spatial.c_str(),
              endurance > 0 ? get(kv, "endurance", "0").c_str() : "inf",
              threshold ? 1 : 0, detect ? 1 : 0);

  FtEngine engine(flow);
  ObsObserver obs_observer;
  if (obs_opts.enabled()) engine.add_observer(&obs_observer);
  const TrainingResult r = engine.run(net, &rcs, data, Rng(seed + 3));

  for (std::size_t i = 0; i < r.eval_iterations.size(); ++i) {
    std::printf("iter %6zu  accuracy %.3f  fault-ratio %.3f\n",
                r.eval_iterations[i], r.eval_accuracy[i],
                r.fault_fraction[i]);
  }
  std::printf("\npeak %.3f | final %.3f | writes %llu | suppressed %.1f%% | "
              "wearout faults %zu\n",
              r.peak_accuracy, r.final_accuracy,
              static_cast<unsigned long long>(r.device_writes),
              100.0 * r.suppression_ratio(), r.wearout_faults);
  for (const auto& ph : r.phases) {
    std::printf("phase @%zu: precision %.2f recall %.2f cycles %zu\n",
                ph.iteration, ph.precision, ph.recall, ph.cycles);
  }

  if (obs_opts.enabled()) {
    std::printf("\n%s", obs_observer.timing_table().c_str());
  }
  obs::write_obs(obs_opts);
  return 0;
}
