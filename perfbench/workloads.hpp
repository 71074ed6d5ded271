// The benchmark's workloads: the paper's three flows (quickstart MLP,
// Fig. 7(a) entire-CNN, Fig. 7(b) FC-only) as lists of training curves.
//
// One pass builds the dataset once, then for every curve a fresh RcsSystem
// and network, and drives the curve through FtEngine's begin/step/finish.
// Curves run back to back on the calling thread; the library's own pool
// parallelizes inside each step. Every random input (dataset, fabrication
// fault map, network init, training stream) is derived from the run seed,
// and the library receives only the generated inputs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "rcs/rcs_system.hpp"

namespace perfbench {

/// kFull is the measured size; kTiny is the benchmark's own smoke size.
enum class Size { kFull, kTiny };

/// One training curve of a workload (a Fig. 7 line, or the quickstart run).
struct CurveSpec {
  std::string name;
  refit::FtFlowConfig flow;
  bool on_rcs = true;  ///< false: software weights (the "ideal" curve)
};

struct Workload {
  bool cnn = false;      ///< VGG-mini on CIFAR-like data, else an MLP
  bool fc_only = false;  ///< conv layers in software (Fig. 7(b))
  refit::SyntheticConfig data;
  refit::RcsConfig rcs;
  std::vector<CurveSpec> curves;
};

/// The workload called `name` at `size`; throws std::invalid_argument for
/// an unknown name.
Workload make_workload(const std::string& name, Size size);

/// Set-up time of one pass, split by what is built.
struct SetupTimes {
  double data_s = 0.0;  ///< dataset synthesis (once per pass)
  double rcs_s = 0.0;   ///< RcsSystem construction, summed over curves
  double net_s = 0.0;   ///< network init incl. crossbar programming, summed
  [[nodiscard]] double total() const { return data_s + rcs_s + net_s; }
};

struct CurveRun {
  std::string name;
  refit::TrainingResult result;
  std::string digest;
};

struct PassResult {
  double wall_s = 0.0;  ///< begin → finish, summed over curves
  SetupTimes setup;
  std::vector<CurveRun> curves;
};

/// Instrumentation a traced pass plugs into the engine. Null members leave
/// the untraced behaviour in place.
struct PassHooks {
  /// Builds the engine's phase list (standard_phases when empty).
  std::function<std::vector<std::unique_ptr<refit::Phase>>(
      const refit::FtFlowConfig&)>
      phases;
  std::vector<refit::EngineObserver*> observers;
  /// Receives the host time of every FtEngine::step, in seconds.
  std::vector<double>* step_s = nullptr;
};

/// Build the dataset and every curve's RcsSystem and network, then drop
/// them: a pass's set-up without its training.
SetupTimes time_setup(const Workload& w, std::uint64_t seed);

/// Run every curve of `w` once from `seed`.
PassResult run_pass(const Workload& w, std::uint64_t seed,
                    const PassHooks* hooks = nullptr);

/// Hex digest of everything a curve produced: the eval-accuracy trace,
/// fault fractions, device writes, update counts and every PhaseEvent.
std::string digest(const refit::TrainingResult& r);

/// The full-flow curve's result (the last curve of every workload).
const refit::TrainingResult& full_flow(const PassResult& p);

}  // namespace perfbench
