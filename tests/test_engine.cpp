// Tests for the FtEngine phase pipeline: stepwise execution, observer
// hooks, and mid-flow checkpoint/resume. The headline test interrupts a
// full FT run (threshold + detection + prune + greedy-swap re-mapping)
// between two detection phases, resumes it into freshly built objects,
// and requires the TrainingResult to be bit-identical to an
// uninterrupted run — at 1 and at 4 threads.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"

namespace refit {
namespace {

/// Restores the default global pool when a test is done overriding it.
struct PoolGuard {
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

Dataset small_mnist(std::uint64_t seed = 1) {
  SyntheticConfig cfg;
  cfg.train_size = 512;
  cfg.test_size = 128;
  cfg.noise_stddev = 0.3f;
  cfg.background_clip = 0.4f;
  Rng rng(seed);
  return make_synthetic_mnist(cfg, rng);
}

/// Full FT flow on a small MLP: detection every 80 iterations, pruning,
/// and greedy-swap re-mapping (the greedy pass consumes phase_rng, so a
/// resume with a mis-restored RNG stream diverges immediately).
FtFlowConfig ft_flow() {
  FtFlowConfig cfg;
  cfg.iterations = 240;
  cfg.batch_size = 16;
  cfg.lr = LrSchedule{0.05, 0.5, 120, 1e-4};
  cfg.eval_period = 60;
  cfg.eval_samples = 128;
  cfg.threshold_training = true;
  cfg.detection_enabled = true;
  cfg.detection_period = 80;
  cfg.detector.test_rows_per_cycle = 16;
  cfg.prune.enabled = true;
  cfg.prune.fc_sparsity = 0.4;
  cfg.remap_enabled = true;
  cfg.remap.algorithm = RemapAlgorithm::kGreedySwap;
  return cfg;
}

RcsConfig faulty_rcs() {
  RcsConfig cfg;
  cfg.tile_rows = 64;
  cfg.tile_cols = 64;
  cfg.levels = 8;
  cfg.write_noise_sigma = 0.01;
  cfg.inject_fabrication = true;
  cfg.fabrication.fraction = 0.1;
  cfg.endurance = EnduranceModel::gaussian(400.0, 120.0);
  return cfg;
}

/// Same faulty chip, but weights on differential G_p/G_n pairs with the
/// full device-noise model live (drift + transient soft faults), and the
/// detector classifying hard vs soft; exercises DeviceTickPhase plus the
/// noise-RNG/ticks serialization across checkpoint/resume.
FtFlowConfig device_flow() {
  FtFlowConfig cfg = ft_flow();
  cfg.device_tick_period = 10;
  cfg.detector.classify_soft = true;
  return cfg;
}

RcsConfig device_rcs() {
  RcsConfig cfg = faulty_rcs();
  cfg.encoding = EncodingKind::kDifferentialPair;
  cfg.noise.program_sigma = 0.01;
  cfg.noise.drift_rate = 0.002;
  cfg.noise.soft_fault_rate = 0.0005;
  cfg.noise.soft_fault_ttl = 3;
  return cfg;
}

struct Rig {
  RcsSystem sys;
  Network net;
  explicit Rig(const RcsConfig& chip = faulty_rcs())
      : sys(chip, Rng(42)), net(build(sys)) {}

  static Network build(RcsSystem& sys) {
    Rng rng(2);
    return make_mlp({784, 24, 10}, sys.factory(), rng);
  }
};

void expect_identical(const TrainingResult& a, const TrainingResult& b) {
  ASSERT_EQ(a.eval_iterations, b.eval_iterations);
  ASSERT_EQ(a.eval_accuracy.size(), b.eval_accuracy.size());
  for (std::size_t i = 0; i < a.eval_accuracy.size(); ++i) {
    EXPECT_EQ(a.eval_accuracy[i], b.eval_accuracy[i]) << "eval row " << i;
    EXPECT_EQ(a.fault_fraction[i], b.fault_fraction[i]) << "eval row " << i;
  }
  EXPECT_EQ(a.peak_accuracy, b.peak_accuracy);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.device_writes, b.device_writes);
  EXPECT_EQ(a.updates_written, b.updates_written);
  EXPECT_EQ(a.updates_suppressed, b.updates_suppressed);
  EXPECT_EQ(a.updates_zero, b.updates_zero);
  EXPECT_EQ(a.wearout_faults, b.wearout_faults);
  EXPECT_EQ(a.final_fault_fraction, b.final_fault_fraction);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].iteration, b.phases[i].iteration);
    EXPECT_EQ(a.phases[i].cycles, b.phases[i].cycles);
    EXPECT_EQ(a.phases[i].detection_writes, b.phases[i].detection_writes);
    EXPECT_EQ(a.phases[i].precision, b.phases[i].precision);
    EXPECT_EQ(a.phases[i].recall, b.phases[i].recall);
    EXPECT_EQ(a.phases[i].remap_cost_before, b.phases[i].remap_cost_before);
    EXPECT_EQ(a.phases[i].remap_cost_after, b.phases[i].remap_cost_after);
    EXPECT_EQ(a.phases[i].hard_precision, b.phases[i].hard_precision);
    EXPECT_EQ(a.phases[i].hard_recall, b.phases[i].hard_recall);
    EXPECT_EQ(a.phases[i].soft_precision, b.phases[i].soft_precision);
    EXPECT_EQ(a.phases[i].soft_recall, b.phases[i].soft_recall);
    EXPECT_EQ(a.phases[i].cells_retested, b.phases[i].cells_retested);
    EXPECT_EQ(a.phases[i].soft_detected, b.phases[i].soft_detected);
  }
}

TrainingResult run_uninterrupted(const Dataset& data,
                                 const FtFlowConfig& flow = ft_flow(),
                                 const RcsConfig& chip = faulty_rcs()) {
  Rig rig(chip);
  FtEngine engine(flow);
  return engine.run(rig.net, &rig.sys, data, Rng(3));
}

TrainingResult run_resumed(const Dataset& data, std::size_t interrupt_at,
                           const FtFlowConfig& flow = ft_flow(),
                           const RcsConfig& chip = faulty_rcs()) {
  std::stringstream checkpoint;
  {
    Rig rig(chip);
    FtEngine engine(flow);
    engine.begin(rig.net, &rig.sys, data, Rng(3));
    while (engine.context().iteration < interrupt_at) engine.step();
    engine.save_checkpoint(checkpoint);
    // The first engine, its network, and its RcsSystem are destroyed here
    // — the resumed run must not depend on them.
  }
  Rig rig(chip);
  FtEngine engine(flow);
  engine.load_checkpoint(rig.net, &rig.sys, data, checkpoint);
  EXPECT_EQ(engine.context().iteration, interrupt_at);
  while (!engine.done()) engine.step();
  return engine.finish();
}

TEST(EngineCheckpoint, ResumeBetweenDetectionPhasesIsBitIdentical) {
  PoolGuard guard;
  const Dataset data = small_mnist();
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool::set_global_threads(threads);
    const TrainingResult full = run_uninterrupted(data);
    // Detections fire at iterations 80/160/240; interrupt between the
    // first and second so detected-fault and prune state are live.
    ASSERT_EQ(full.phases.size(), 3u);
    const TrainingResult resumed = run_resumed(data, 100);
    expect_identical(full, resumed);
  }
}

TEST(EngineCheckpoint, DifferentialNoiseResumeIsBitIdentical) {
  PoolGuard guard;
  const Dataset data = small_mnist();
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool::set_global_threads(threads);
    const TrainingResult full =
        run_uninterrupted(data, device_flow(), device_rcs());
    ASSERT_EQ(full.phases.size(), 3u);
    // Interrupt between two device ticks (ticks at 10, 20, ... 240) and
    // after the first detection, so drift state, live soft-fault TTLs,
    // and the noise RNG stream must all survive serialization.
    const TrainingResult resumed =
        run_resumed(data, 95, device_flow(), device_rcs());
    expect_identical(full, resumed);
  }
}

TEST(EngineCheckpoint, ThreadCountDoesNotChangeTheResult) {
  PoolGuard guard;
  const Dataset data = small_mnist();
  ThreadPool::set_global_threads(1);
  const TrainingResult serial = run_uninterrupted(data);
  ThreadPool::set_global_threads(4);
  const TrainingResult parallel = run_uninterrupted(data);
  expect_identical(serial, parallel);
}

/// Checkpoint of the default Rig after one step of the full flow.
std::string one_step_checkpoint(const Dataset& data) {
  std::stringstream checkpoint;
  Rig rig;
  FtEngine engine(ft_flow());
  engine.begin(rig.net, &rig.sys, data, Rng(3));
  engine.step();
  engine.save_checkpoint(checkpoint);
  return checkpoint.str();
}

TEST(EngineCheckpoint, LoadRejectsMismatchedFlowConfig) {
  const Dataset data = small_mnist();
  std::stringstream checkpoint(one_step_checkpoint(data));
  Rig rig;
  FtFlowConfig other = ft_flow();
  other.iterations = 480;  // different schedule → not the same run
  FtEngine engine(other);
  EXPECT_THROW(engine.load_checkpoint(rig.net, &rig.sys, data, checkpoint),
               CheckError);
}

TEST(EngineCheckpoint, OtherVersionIsRejected) {
  const Dataset data = small_mnist();
  std::string bytes = one_step_checkpoint(data);
  // The u32 format version follows the u64 tag.
  const std::uint32_t old_version = 2;
  std::memcpy(bytes.data() + 8, &old_version, sizeof old_version);
  std::stringstream stale(bytes);
  Rig rig;
  FtEngine engine(ft_flow());
  EXPECT_THROW(engine.load_checkpoint(rig.net, &rig.sys, data, stale),
               CheckError);
}

TEST(EngineCheckpoint, RejectedLoadLeavesEngineUnstarted) {
  const Dataset data = small_mnist();
  const std::string bytes = one_step_checkpoint(data);
  // Cut right after the config block (the context is reset, nothing read
  // back) and at half length (the context is half-restored).
  const std::size_t after_config = 8 + 4 + sizeof(FtFlowConfig);
  for (std::size_t cut : {after_config, bytes.size() / 2}) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    Rig rig;
    FtEngine engine(ft_flow());
    engine.begin(rig.net, &rig.sys, data, Rng(3));
    engine.step();
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_THROW(engine.load_checkpoint(rig.net, &rig.sys, data, truncated),
                 CheckError);
    EXPECT_THROW(engine.step(), CheckError);
    EXPECT_THROW((void)engine.finish(), CheckError);
    std::stringstream out;
    EXPECT_THROW(engine.save_checkpoint(out), CheckError);
  }
}

/// The per-layer tail of a checkpoint of the default Rig saved after the
/// first detection with pruning on: a u64 layer count, then per layer a u8
/// flag + prune mask and a u8 flag + fault map, each written as u64 rows,
/// u64 cols, u64 byte count and the bytes. Returns the checkpoint and the
/// offset of layer 0's prune-mask header.
std::pair<std::string, std::size_t> checkpoint_with_layer_state(
    const Dataset& data, const FtFlowConfig& flow) {
  std::stringstream checkpoint;
  Rig rig;
  FtEngine engine(flow);
  engine.begin(rig.net, &rig.sys, data, Rng(3));
  while (engine.context().iteration < 100) engine.step();
  engine.save_checkpoint(checkpoint);
  const std::string bytes = checkpoint.str();
  constexpr std::size_t kCells0 = 784 * 24, kCells1 = 24 * 10;
  const std::size_t tail =
      8 + 2 * (1 + 24 + kCells0) + 2 * (1 + 24 + kCells1);
  const std::size_t section = bytes.size() - tail;
  std::uint64_t layers = 0;
  std::memcpy(&layers, bytes.data() + section, sizeof layers);
  EXPECT_EQ(layers, 2u);
  EXPECT_EQ(bytes[section + 8], 1) << "layer 0 must carry a prune mask";
  return {bytes, section + 9};
}

void put_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof v);
}

TEST(EngineCheckpoint, MaskOfAnotherShapeIsRejected) {
  // A transposed 24×784 mask has the same byte count as the 784×24 one, so
  // only a shape check against the layer catches it; a later remap would
  // read it past its end.
  const Dataset data = small_mnist();
  FtFlowConfig flow = ft_flow();
  flow.prune.structured = true;
  auto [bytes, mask] = checkpoint_with_layer_state(data, flow);
  put_u64(bytes, mask, 24);
  put_u64(bytes, mask + 8, 784);
  std::stringstream corrupt(bytes);
  Rig rig;
  FtEngine engine(flow);
  EXPECT_THROW(engine.load_checkpoint(rig.net, &rig.sys, data, corrupt),
               CheckError);
}

TEST(EngineCheckpoint, FaultByteOutOfRangeIsRejected) {
  const Dataset data = small_mnist();
  auto [bytes, mask] = checkpoint_with_layer_state(data, ft_flow());
  // Layer 0's fault map follows its mask and flag; its first cell byte sits
  // after the rows, cols and byte-count words.
  const std::size_t fm = mask + 24 + 784 * 24 + 1;
  ASSERT_EQ(bytes[fm - 1], 1) << "layer 0 must carry a fault map";
  bytes[fm + 24] = 5;  // one past FaultKind::kSoftStuck1
  std::stringstream corrupt(bytes);
  Rig rig;
  FtEngine engine(ft_flow());
  EXPECT_THROW(engine.load_checkpoint(rig.net, &rig.sys, data, corrupt),
               CheckError);
}

TEST(EngineObserver, SeesEveryPhaseBoundaryInOrder) {
  struct Recorder final : EngineObserver {
    std::vector<std::string> events;
    void on_run_begin(const EngineContext&) override {
      events.push_back("run-begin");
    }
    void on_phase_begin(const Phase& p, const EngineContext&) override {
      events.push_back(std::string("begin:") + p.name());
    }
    void on_phase_end(const Phase& p, const EngineContext&) override {
      events.push_back(std::string("end:") + p.name());
    }
    void on_iteration_end(const EngineContext& ctx) override {
      events.push_back("iter:" + std::to_string(ctx.iteration));
    }
    void on_run_end(const EngineContext&) override {
      events.push_back("run-end");
    }
  };

  const Dataset data = small_mnist();
  Rng rng(4);
  Network net = make_mlp({784, 16, 10}, software_store_factory(), rng);
  FtFlowConfig cfg;
  cfg.iterations = 2;
  cfg.batch_size = 8;
  cfg.eval_period = 1;
  cfg.eval_samples = 64;
  Recorder rec;
  FtEngine engine(cfg);
  engine.add_observer(&rec);
  (void)engine.run(net, nullptr, data, Rng(5));

  const std::vector<std::string> want = {
      "run-begin",
      "begin:train-step", "end:train-step", "begin:eval", "end:eval",
      "iter:1",
      "begin:train-step", "end:train-step", "begin:eval", "end:eval",
      "iter:2",
      "run-end",
  };
  EXPECT_EQ(rec.events, want);
}

TEST(FtEngine, RemapRunsInTheFirstTwoDetectionPhasesOnly) {
  struct PhaseCounter final : EngineObserver {
    std::size_t detections = 0;
    std::size_t remaps = 0;
    void on_phase_begin(const Phase& p, const EngineContext&) override {
      const std::string name = p.name();
      if (name == "detection") ++detections;
      if (name == "remap") ++remaps;
    }
  };
  const Dataset data = small_mnist();
  Rig rig;
  PhaseCounter counter;
  FtEngine engine(ft_flow());
  engine.add_observer(&counter);
  (void)engine.run(rig.net, &rig.sys, data, Rng(3));
  EXPECT_GE(counter.detections, 3u);
  EXPECT_EQ(counter.remaps, 2u);
}

TEST(FtEngine, StandardPhasesMatchTheMonolithicOrder) {
  const FtFlowConfig cfg = ft_flow();
  const auto phases = FtEngine::standard_phases(cfg);
  ASSERT_EQ(phases.size(), 5u);
  EXPECT_STREQ(phases[0]->name(), "device-tick");
  EXPECT_STREQ(phases[1]->name(), "detection");
  EXPECT_STREQ(phases[2]->name(), "remap");
  EXPECT_STREQ(phases[3]->name(), "train-step");
  EXPECT_STREQ(phases[4]->name(), "eval");
}

}  // namespace
}  // namespace refit
