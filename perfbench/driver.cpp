// refit_perfbench — runs one benchmark workload and prints one JSON object
// on stdout. perfbench/run.py builds this program, runs it, checks the
// digests it reports and prints the benchmark's result line.
//
//   refit_perfbench --workload NAME --seed N [--seconds S]
//                   [--mode measure|trace] [--size full|tiny]
//
// measure: untraced passes back to back until S seconds have elapsed (at
//          least one). Reports every pass's host times and curve digests,
//          the full-flow curve's simulated metrics and the peak RSS.
// trace:   S/3 seconds each of untraced passes at the pool's size, traced
//          passes at that size, and traced passes at 1 thread. Reports the
//          per-layer metrics and the digests of all three.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "workloads.hpp"

using namespace perfbench;
using refit::PhaseEvent;
using refit::ThreadPool;
using refit::TrainingResult;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 5;
constexpr std::size_t kMinPasses = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string mode = "measure";
  Size size = Size::kFull;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "refit_perfbench: %s\nusage: refit_perfbench --workload NAME "
               "--seed N [--seconds S] [--mode measure|trace] "
               "[--size full|tiny]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--mode") {
      if (val != "measure" && val != "trace") usage("bad --mode " + val);
      a.mode = val;
    } else if (key == "--size") {
      if (val != "full" && val != "tiny") usage("bad --size " + val);
      a.size = val == "full" ? Size::kFull : Size::kTiny;
    } else {
      usage("unknown argument " + key);
    }
  }
  if (a.workload.empty() || !have_seed) usage("--workload and --seed are required");
  return a;
}

// ---- JSON output ----------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Comma-separated JSON object members, in insertion order.
class Object {
 public:
  Object& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + quote(key) + ":" + json;
    return *this;
  }
  Object& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  Object& num(const std::string& key, double v) { return raw(key, ::num(v)); }
  [[nodiscard]] std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- Host facts -------------------------------------------------------------

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto first = line.find_first_not_of(" \t", colon + 1);
    return first == std::string::npos ? "unknown" : line.substr(first);
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// User + system CPU seconds of this process, all threads.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::string provenance(const Args& a, const Workload& w) {
  Object o;
  o.str("cpu_model", cpu_model());
  o.str("compiler", __VERSION__);
  o.str("build_type", PERFBENCH_BUILD_TYPE);
  o.str("cxx_flags", PERFBENCH_CXX_FLAGS);
  o.num("nproc", std::thread::hardware_concurrency());
  o.num("pool_threads", static_cast<double>(ThreadPool::global().size()));
  o.str("workload", a.workload);
  o.num("seed", static_cast<double>(a.seed));
  o.str("size", a.size == Size::kFull ? "full" : "tiny");
  o.num("iterations", static_cast<double>(w.curves.front().flow.iterations));
  o.num("curves", static_cast<double>(w.curves.size()));
  return o.json();
}

// ---- Passes -------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of `v` (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(0.0, std::ceil(q * static_cast<double>(v.size())) - 1.0));
  return v[std::min(rank, v.size() - 1)];
}

/// The passes of one configuration, plus what failed.
struct Series {
  std::vector<PassResult> passes;
  std::vector<std::string> errors;
  double elapsed_s = 0.0;
  double cpu_s = 0.0;
  std::size_t attempted = 0;  ///< curves attempted
  std::size_t failed = 0;     ///< curves lost to an exception
};

/// Run passes for `budget` seconds, and at least `min_passes` of them.
Series run_series(const Workload& w, std::uint64_t seed, double budget,
                  std::size_t min_passes, const PassHooks* hooks) {
  Series s;
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  for (std::size_t pass = 0; pass < min_passes || seconds_since(t0) < budget;
       ++pass) {
    s.attempted += w.curves.size();
    try {
      s.passes.push_back(run_pass(w, seed, hooks));
    } catch (const std::exception& e) {
      s.failed += w.curves.size();
      s.errors.emplace_back(e.what());
    }
  }
  s.elapsed_s = seconds_since(t0);
  s.cpu_s = cpu_seconds() - cpu0;
  return s;
}

std::string series_json(const Series& s) {
  std::string passes;
  for (const PassResult& p : s.passes) {
    Object digests;
    for (const CurveRun& c : p.curves) digests.str(c.name, c.digest);
    Object o;
    o.num("wall_s", p.wall_s)
        .num("setup_s", p.setup.total())
        .raw("digests", digests.json());
    passes += (passes.empty() ? "" : ",") + o.json();
  }
  std::string errors;
  for (const std::string& e : s.errors) {
    errors += (errors.empty() ? "" : ",") + quote(e);
  }
  Object o;
  o.num("attempted", static_cast<double>(s.attempted))
      .num("failed", static_cast<double>(s.failed))
      .raw("passes", "[" + passes + "]")
      .raw("errors", "[" + errors + "]");
  return o.json();
}

/// Simulated metrics of the full-flow curve: deterministic per seed.
std::string simulated_json(const PassResult& p) {
  const TrainingResult& r = full_flow(p);
  double cycles = 0.0, precision = 0.0, recall = 0.0;
  for (const PhaseEvent& ev : r.phases) {
    cycles += static_cast<double>(ev.cycles);
    precision += ev.precision;
    recall += ev.recall;
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, r.phases.size()));
  Object o;
  o.num("acc_final", r.final_accuracy)
      .num("device_writes_M", static_cast<double>(r.device_writes) / 1e6)
      .num("detect_cycles", cycles)
      .num("detect_precision", precision / n)
      .num("detect_recall", recall / n);
  return o.json();
}

// ---- Traced run -------------------------------------------------------------

/// Registry counters the per-layer metrics read, diffed around a series.
const std::vector<std::string>& tracked_counters() {
  static const std::vector<std::string> names = {
      "tensor.gemm.flops",       "store.fused_forward.calls",
      "store.fused_pack_tiles",  "detector.rounds",
      "detector.cells_tested",   "detector.adc_reads",
      "pool.parallel_for.calls", "pool.parallel_for.inline"};
  return names;
}

std::map<std::string, double> read_counters() {
  std::map<std::string, double> out;
  for (const std::string& name : tracked_counters()) {
    out[name] = static_cast<double>(counter_value(name));
  }
  return out;
}

struct Traced {
  Series series;
  Probe probe;
  std::map<std::string, double> counters;  ///< diff over the series
};

Traced run_traced(const Workload& w, std::uint64_t seed, double budget) {
  Traced t;
  PhaseTimer timer(t.probe);
  PassHooks hooks;
  hooks.phases = [&t](const refit::FtFlowConfig& cfg) {
    return traced_phases(cfg, t.probe);
  };
  hooks.observers = {&timer};
  hooks.step_s = &t.probe.step_s;
  const auto before = read_counters();
  t.series = run_series(w, seed, budget, 1, &hooks);
  for (const auto& [name, v] : read_counters()) t.counters[name] = v - before.at(name);
  return t;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Matrix-layer labels across the workloads' networks (VGG-mini has four
/// conv and three dense layers, the MLP two dense ones). A layer a
/// workload does not have reports 0.
const std::vector<std::string>& layer_labels() {
  static const std::vector<std::string> labels = {
      "conv0", "conv1", "conv2", "conv3", "dense0", "dense1", "dense2"};
  return labels;
}

std::string per_layer_json(const Workload& w, const Series& untraced,
                           const Traced& nt, const Traced& one) {
  Object m;
  const auto metric = [&m](const std::string& name, double v,
                           const std::string& unit) {
    m.raw(name, Object().num("value", v).str("unit", unit).json());
  };
  const Probe& p = nt.probe;
  const double n = static_cast<double>(std::max<std::size_t>(1, nt.series.passes.size()));
  const double n1 = static_cast<double>(std::max<std::size_t>(1, one.series.passes.size()));
  const auto phase = [](const Probe& pr, const char* name) {
    const auto it = pr.phase_s.find(name);
    return it == pr.phase_s.end() ? 0.0 : it->second;
  };
  const auto layer = [&p](const std::string& key) {
    const auto it = p.layer_s.find(key);
    return it == p.layer_s.end() ? 0.0 : it->second;
  };

  // core/engine
  metric("engine.train_step_s", phase(p, "train-step") / n, "s");
  metric("engine.eval_s", phase(p, "eval") / n, "s");
  metric("engine.detection_s", phase(p, "detection") / n, "s");
  metric("engine.remap_s", phase(p, "remap") / n, "s");
  metric("engine.step_p50_ms", 1e3 * percentile(p.step_s, 0.50), "ms");
  metric("engine.step_p99_ms", 1e3 * percentile(p.step_s, 0.99), "ms");
  metric("engine.step_samples", static_cast<double>(p.step_s.size()), "count");

  // nn
  for (const std::string& l : layer_labels()) {
    metric("nn.fwd." + l + "_s", layer("fwd." + l) / n, "s");
    metric("nn.bwd." + l + "_s", layer("bwd." + l) / n, "s");
  }
  metric("nn.fwd.other_s", layer("fwd.other") / n, "s");
  metric("nn.bwd.other_s", layer("bwd.other") / n, "s");
  metric("nn.loss_s", p.loss_s / n, "s");
  metric("data.batch_s", p.batch_s / n, "s");
  const auto eval_runs = p.phase_runs.count("eval") ? p.phase_runs.at("eval") : 0;
  const double eval_n = static_cast<double>(
      std::min(w.curves.front().flow.eval_samples, w.data.test_size));
  metric("nn.eval_samples_per_s",
         ratio(static_cast<double>(eval_runs) * eval_n, phase(p, "eval")),
         "1/s");

  // tensor
  metric("tensor.gemm_gflop", nt.counters.at("tensor.gemm.flops") / n / 1e9,
         "GFLOP");
  metric("tensor.train_gflops",
         ratio(static_cast<double>(p.train_flops) / 1e9,
               p.matrix_fwd_s + p.matrix_bwd_s),
         "GFLOP/s");

  // core/threshold + rcs write path
  double written = 0.0, suppressed = 0.0, zero = 0.0, writes = 0.0;
  double cost_before = 0.0, cost_after = 0.0;
  for (const PassResult& pass : nt.series.passes) {
    for (const CurveRun& c : pass.curves) {
      written += static_cast<double>(c.result.updates_written);
      suppressed += static_cast<double>(c.result.updates_suppressed);
      zero += static_cast<double>(c.result.updates_zero);
      writes += static_cast<double>(c.result.device_writes);
      for (const PhaseEvent& ev : c.result.phases) {
        cost_before += ev.remap_cost_before;
        cost_after += ev.remap_cost_after;
      }
    }
  }
  metric("core.update_s", p.update_s / n, "s");
  metric("core.update_ns_per_write", ratio(1e9 * p.update_s, written), "ns");
  metric("core.suppression_ratio",
         ratio(suppressed + zero, written + suppressed + zero), "ratio");
  metric("rcs.device_writes", writes / n, "count");

  // rcs forward
  const double fused_calls = nt.counters.at("store.fused_forward.calls");
  metric("rcs.fused_forward_calls", fused_calls / n, "count");
  metric("rcs.pack_tiles_per_forward",
         ratio(nt.counters.at("store.fused_pack_tiles"), fused_calls), "tiles");

  // detect / remap
  const double rounds = nt.counters.at("detector.rounds");
  metric("detect.rounds", rounds / n, "count");
  metric("detect.cells_tested", nt.counters.at("detector.cells_tested") / n,
         "count");
  metric("detect.adc_reads", nt.counters.at("detector.adc_reads") / n, "count");
  metric("detect.s_per_round", ratio(phase(p, "detection"), rounds), "s");
  metric("remap.cost_before", cost_before / n, "cost");
  metric("remap.cost_after", cost_after / n, "cost");

  // common/thread_pool
  const double calls = nt.counters.at("pool.parallel_for.calls");
  metric("pool.cpu_s", nt.series.cpu_s / n, "s");
  metric("pool.busy_cores", ratio(nt.series.cpu_s, nt.series.elapsed_s), "cores");
  metric("pool.parallel_for_calls", calls / n, "count");
  metric("pool.inline_frac", ratio(nt.counters.at("pool.parallel_for.inline"), calls),
         "ratio");
  const Probe& q = one.probe;
  const auto scale = [&](double t1, double tn) {
    return ratio(t1 / n1, tn / n);
  };
  metric("scale.engine.train_step",
         scale(phase(q, "train-step"), phase(p, "train-step")), "x");
  metric("scale.engine.eval", scale(phase(q, "eval"), phase(p, "eval")), "x");
  metric("scale.core.update", scale(q.update_s, p.update_s), "x");
  metric("scale.nn.matrix_fwd", scale(q.matrix_fwd_s, p.matrix_fwd_s), "x");
  metric("scale.nn.matrix_bwd", scale(q.matrix_bwd_s, p.matrix_bwd_s), "x");

  // setup (untraced passes)
  std::vector<double> data_s, rcs_s, net_s, wall_u, wall_t;
  for (const PassResult& pass : untraced.passes) {
    data_s.push_back(pass.setup.data_s);
    rcs_s.push_back(pass.setup.rcs_s);
    net_s.push_back(pass.setup.net_s);
    wall_u.push_back(pass.wall_s);
  }
  for (const PassResult& pass : nt.series.passes) wall_t.push_back(pass.wall_s);
  metric("setup.data_s", median(data_s), "s");
  metric("setup.rcs_s", median(rcs_s), "s");
  metric("setup.net_s", median(net_s), "s");

  // simulated, from the full-flow curve (deterministic per seed; digests
  // pin them exactly)
  const TrainingResult& full = full_flow(untraced.passes.front());
  double cycles = 0.0;
  for (const PhaseEvent& ev : full.phases) cycles += static_cast<double>(ev.cycles);
  metric("sim.acc_final", full.final_accuracy, "ratio");
  metric("sim.device_writes_M", static_cast<double>(full.device_writes) / 1e6,
         "Mwrites");
  metric("sim.detect_cycles", cycles, "cycles");

  // obs
  metric("trace.overhead_frac", ratio(median(wall_t), median(wall_u)) - 1.0,
         "ratio");
  return m.json();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    const Workload w = make_workload(args.workload, args.size);
    Object out;
    out.str("mode", args.mode).raw("provenance", provenance(args, w));
    if (args.mode == "measure") {
      // A median needs a few passes even when a pass outlasts the budget.
      const Series s = run_series(w, args.seed, args.seconds,
                                  args.seconds > 0 ? kMinPasses : 1, nullptr);
      // Set-up alone, a few more times, so its median rests on more
      // samples than the passes give.
      std::string setups;
      for (int i = 0; i < kSetupRepeats; ++i) {
        setups += (setups.empty() ? "" : ",") + num(time_setup(w, args.seed).total());
      }
      out.raw("untraced", series_json(s)).raw("setup_only_s", "[" + setups + "]");
      if (!s.passes.empty()) out.raw("simulated", simulated_json(s.passes.front()));
      out.num("peak_rss_mb", peak_rss_mb());
    } else {
      const std::size_t lanes = ThreadPool::global().size();
      const double third = args.seconds / 3.0;
      const Series untraced = run_series(w, args.seed, third, 1, nullptr);
      refit::obs::MetricsRegistry::instance().set_enabled(true);
      const Traced nt = run_traced(w, args.seed, third);
      ThreadPool::set_global_threads(1);
      const Traced one = run_traced(w, args.seed, third);
      ThreadPool::set_global_threads(lanes);
      refit::obs::MetricsRegistry::instance().set_enabled(false);
      out.raw("untraced", series_json(untraced))
          .raw("traced", series_json(nt.series))
          .raw("traced_1t", series_json(one.series));
      if (!untraced.passes.empty() && !nt.series.passes.empty() &&
          !one.series.passes.empty()) {
        out.raw("metrics", per_layer_json(w, untraced, nt, one));
      }
    }
    std::printf("%s\n", out.json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "refit_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
