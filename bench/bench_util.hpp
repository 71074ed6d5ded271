// Shared helpers for the figure/table reproduction harnesses.
//
// Every bench prints CSV-style series through SeriesPrinter with a
// `# paper:` line recording what the original reports, so output is
// directly comparable (EXPERIMENTS.md keeps the paper-vs-measured table).
//
// Set REFIT_FAST=1 to shrink workloads ~4× for smoke runs.
#pragma once

#include <cstddef>
#include <string>

#include "common/csv.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "rcs/rcs_system.hpp"

namespace refit::bench {

/// True when REFIT_FAST=1 is set in the environment.
bool fast_mode();

/// `n` or `n / 4` in fast mode (minimum 1).
std::size_t scaled(std::size_t n);

/// The CIFAR-like dataset used by the CNN experiments (16×16 RGB).
Dataset cifar_like(std::size_t train = 2048, std::size_t test = 512,
                   std::uint64_t seed = 1);

/// The MNIST-like dataset used by the MLP experiments ([N, 784]).
Dataset mnist_like(std::size_t train = 2048, std::size_t test = 512,
                   std::uint64_t seed = 1);

/// The paper's VGG-11 scaled to our 16×16 input (DESIGN.md §4).
VggMiniConfig vgg_mini_config();

/// Per-paper RCS defaults: 128×128 tiles, 8-level cells.
RcsConfig rcs_defaults();

/// Baseline training schedule for the CNN experiments.
FtFlowConfig cnn_flow(std::size_t iterations);

/// Baseline training schedule for MLP experiments.
FtFlowConfig mlp_flow(std::size_t iterations);

/// Runs the paper's four baseline configurations (Fig. 7 curves) with the
/// benches' fixed seeds: network init Rng(2), RcsSystem Rng(42), training
/// seed 3. Each run() builds a fresh network — and a fresh RcsSystem for
/// the on-RCS baselines — so successive curves are independent and
/// deterministic. The flow config passed at construction supplies the
/// schedule (iterations / lr / eval cadence); baseline_config (core/
/// engine.hpp) derives the per-curve feature toggles from it.
class ScenarioBuilder {
 public:
  ScenarioBuilder(const Dataset& data, VggMiniConfig model, FtFlowConfig flow)
      : data_(&data), model_(model), flow_(flow) {}

  /// Device configuration for the on-RCS baselines (ideal ignores it).
  ScenarioBuilder& rcs(const RcsConfig& rc) {
    rcs_ = rc;
    return *this;
  }

  /// Keep Conv layers in software and map only the FC layers onto the
  /// RCS — the paper's Fig. 7(b) case.
  ScenarioBuilder& fc_only(bool on) {
    fc_only_ = on;
    return *this;
  }

  /// Train one baseline curve and return its trace.
  TrainingResult run(FtBaseline baseline) const;

 private:
  const Dataset* data_;
  VggMiniConfig model_;
  FtFlowConfig flow_;
  RcsConfig rcs_ = rcs_defaults();
  bool fc_only_ = false;
};

/// Interpolate a training curve onto fixed iteration grid points so that
/// several runs can be printed side by side.
double accuracy_at(const TrainingResult& r, std::size_t iteration);

/// Hardware/compiler provenance for BENCH_*.json artifacts — the same
/// fields bench_backend stamps, so artifacts from one host are directly
/// comparable. cxx_flags/build_type are filled from the target's
/// REFIT_BENCH_CXX_FLAGS / REFIT_BENCH_BUILD_TYPE compile definitions
/// when present.
struct BenchProvenance {
  std::size_t hardware_threads = 0;
  std::string cpu_model;
  std::string compiler;
  std::string cxx_flags;
  std::string build_type;
};
[[nodiscard]] BenchProvenance collect_provenance();

/// Escape `"` and `\` for embedding in a JSON string literal.
[[nodiscard]] std::string json_escape(const std::string& s);

/// Emit the shared artifact preamble: the opening brace, "bench" name, and
/// the provenance object (trailing comma included — the caller continues
/// with its own fields). hardware_threads lives only inside provenance.
void write_provenance_header(std::ostream& os, const std::string& bench_name,
                             const BenchProvenance& p);

/// Artifact output path: REFIT_BENCH_OUT overrides `default_path`.
[[nodiscard]] std::string bench_out_path(const std::string& default_path);

}  // namespace refit::bench
