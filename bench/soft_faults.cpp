// BENCH_device — device/encoding scenario families (grown from the old
// TAB_SOFT single-table bench; the §1/§2.2 on-line-vs-off-line story is
// family A).
//
//   A "encoding-noise": single-cell vs differential-pair encoding under
//     programming noise; off-line mapping (train in software, program
//     once) vs on-line training through the hardware. The paper's claim
//     (after Prezioso et al. [7]): on-line training absorbs soft faults.
//   B "drift": conductance relaxation toward g=0 advanced by the engine's
//     device-tick phase; on-line training must keep re-programming against
//     the decay.
//   C "soft-classify": transient stuck faults injected on-line; the
//     detector's classify_soft re-test splits hard from soft, scrubs the
//     transient pins, and reports per-class precision/recall — run at 1
//     and 4 threads to demonstrate the device trajectory is deterministic
//     at any thread count.
//
// Prints the CSV series on stdout and writes BENCH_device.json (override
// the path with REFIT_BENCH_OUT) with the same provenance header as
// BENCH_backend.json. REFIT_FAST=1 shrinks workloads for smoke runs.
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "nn/network_io.hpp"
#include "obs/capture.hpp"

using namespace refit;
using namespace refit::bench;

namespace {

const std::vector<std::size_t> kMlpDims = {784, 24, 10};

Network make_net(const StoreFactory& factory) {
  Rng rng(2);
  return make_mlp(kMlpDims, factory, rng);
}

const char* encoding_name(EncodingKind k) {
  return k == EncodingKind::kSingleCell ? "single" : "diff";
}

/// Mean of a PhaseEvent field over the recorded detection phases.
template <typename Get>
double phase_mean(const TrainingResult& r, Get get) {
  if (r.phases.empty()) return 0.0;
  double s = 0.0;
  for (const PhaseEvent& ev : r.phases) s += get(ev);
  return s / static_cast<double>(r.phases.size());
}

}  // namespace

int main(int argc, char** argv) {
  const obs::ObsOptions obs = obs::init_obs(argc, argv);
  const Dataset data = mnist_like();
  const BenchProvenance prov = collect_provenance();
  std::vector<std::string> json_rows;
  const auto row_json = [&json_rows](const std::ostringstream& os) {
    json_rows.push_back(os.str());
  };

  // ---- Family A: encoding × programming noise, off-line vs on-line ------
  {
    const std::size_t iters = scaled(1200);
    FtFlowConfig cfg = mlp_flow(iters);
    cfg.batch_size = 8;

    SeriesPrinter out(std::cout,
                      "BENCH_device A: encoding/noise, on-line vs off-line");
    out.paper_reference(
        "on-line training tolerates soft faults via the algorithm's inherent "
        "fault tolerance (sec 1, ref [7]); off-line mapping suffers the full "
        "variation error");
    out.header({"encoding", "program_sigma", "offline_accuracy",
                "online_accuracy"});

    // One software-trained reference network, shared by every offline case.
    Network sw_net = make_net(software_store_factory());
    FtEngine(cfg).run(sw_net, nullptr, data, Rng(3));
    std::stringstream weights;
    save_network_weights(sw_net, weights);

    const EncodingKind encodings[] = {EncodingKind::kSingleCell,
                                      EncodingKind::kDifferentialPair};
    const double sigmas[] = {0.0, 0.03, 0.08};
    for (const EncodingKind enc : encodings) {
      for (const double sigma : sigmas) {
        RcsConfig rc = rcs_defaults();
        rc.encoding = enc;
        rc.noise.program_sigma = sigma;

        double offline = 0.0;
        {
          RcsSystem sys(rc, Rng(42));
          Network net = make_net(sys.factory());
          std::stringstream ws(weights.str());
          load_network_weights(net, ws);
          offline = net.evaluate(data.test_images, data.test_labels);
        }
        double online = 0.0;
        {
          RcsSystem sys(rc, Rng(42));
          Network net = make_net(sys.factory());
          online = FtEngine(cfg).run(net, &sys, data, Rng(3)).peak_accuracy;
        }
        out.row({enc == EncodingKind::kSingleCell ? 0.0 : 1.0, sigma, offline,
                 online});
        std::ostringstream js;
        js << "{\"family\": \"encoding-noise\", \"encoding\": \""
           << encoding_name(enc) << "\", \"program_sigma\": " << sigma
           << ", \"offline_accuracy\": " << offline
           << ", \"online_accuracy\": " << online << ", \"threads\": 1}";
        row_json(js);
      }
    }
  }

  // ---- Family B: conductance drift under device ticks -------------------
  {
    const std::size_t iters = scaled(800);
    SeriesPrinter out(std::cout, "BENCH_device B: conductance drift");
    out.paper_reference(
        "drift/relaxation is a soft-fault source on-line training "
        "continuously compensates for (sec 2.2)");
    out.header({"drift_rate", "final_accuracy", "peak_accuracy",
                "device_writes"});

    const double rates[] = {0.0, 0.005, 0.02};
    for (const double rate : rates) {
      RcsConfig rc = rcs_defaults();
      rc.noise.drift_rate = rate;
      rc.noise.drift_target = 0.0;
      FtFlowConfig cfg = mlp_flow(iters);
      cfg.batch_size = 8;
      cfg.device_tick_period = 20;
      RcsSystem sys(rc, Rng(42));
      Network net = make_net(sys.factory());
      const TrainingResult r = FtEngine(cfg).run(net, &sys, data, Rng(3));
      out.row({rate, r.final_accuracy, r.peak_accuracy,
               static_cast<double>(r.device_writes)});
      std::ostringstream js;
      js << "{\"family\": \"drift\", \"drift_rate\": " << rate
         << ", \"tick_period\": " << cfg.device_tick_period
         << ", \"final_accuracy\": " << r.final_accuracy
         << ", \"peak_accuracy\": " << r.peak_accuracy
         << ", \"device_writes\": " << r.device_writes << ", \"threads\": 1}";
      row_json(js);
    }
  }

  // ---- Family C: transient faults + hard/soft classification ------------
  const std::size_t max_threads = 4;
  {
    const std::size_t iters = scaled(800);
    SeriesPrinter out(std::cout,
                      "BENCH_device C: soft-fault classification");
    out.paper_reference(
        "re-test confirmation splits transient pins from permanent faults; "
        "only permanent faults are handed to re-mapping (sec 4 extension)");
    out.header({"soft_fault_rate", "threads", "hard_precision", "hard_recall",
                "soft_precision", "soft_recall", "final_accuracy"});

    const double rates[] = {0.0005, 0.002};
    for (const double rate : rates) {
      double acc_serial = 0.0;
      for (const std::size_t threads : {std::size_t{1}, max_threads}) {
        ThreadPool::set_global_threads(threads);
        RcsConfig rc = rcs_defaults();
        rc.inject_fabrication = true;
        rc.fabrication.fraction = 0.02;
        rc.noise.soft_fault_rate = rate;
        rc.noise.soft_fault_ttl = 3;
        FtFlowConfig cfg = mlp_flow(iters);
        cfg.batch_size = 8;
        cfg.device_tick_period = 10;
        cfg.detection_enabled = true;
        cfg.detection_period = std::max<std::size_t>(1, iters / 4);
        cfg.detector.classify_soft = true;
        RcsSystem sys(rc, Rng(42));
        Network net = make_net(sys.factory());
        const TrainingResult r = FtEngine(cfg).run(net, &sys, data, Rng(3));
        const double hp =
            phase_mean(r, [](const PhaseEvent& e) { return e.hard_precision; });
        const double hr =
            phase_mean(r, [](const PhaseEvent& e) { return e.hard_recall; });
        const double sp =
            phase_mean(r, [](const PhaseEvent& e) { return e.soft_precision; });
        const double sr =
            phase_mean(r, [](const PhaseEvent& e) { return e.soft_recall; });
        if (threads == 1) acc_serial = r.final_accuracy;
        const bool deterministic =
            threads == 1 || r.final_accuracy == acc_serial;
        out.row({rate, static_cast<double>(threads), hp, hr, sp, sr,
                 r.final_accuracy});
        std::ostringstream js;
        js << "{\"family\": \"soft-classify\", \"soft_fault_rate\": " << rate
           << ", \"threads\": " << threads << ", \"hard_precision\": " << hp
           << ", \"hard_recall\": " << hr << ", \"soft_precision\": " << sp
           << ", \"soft_recall\": " << sr
           << ", \"final_accuracy\": " << r.final_accuracy
           << ", \"bit_identical\": " << (deterministic ? "true" : "false");
        if (threads > 1 && prov.hardware_threads < max_threads) {
          js << ", \"scaling_valid\": false";
        }
        js << "}";
        row_json(js);
      }
    }
    ThreadPool::set_global_threads(1);
  }

  // ---- Artifact ----------------------------------------------------------
  {
    const std::string path = bench_out_path("BENCH_device.json");
    std::ofstream os(path);
    // The provenance header and scaling_valid depend on the thread count
    // on purpose: they describe the measuring host and are excluded from
    // the deterministic comparison surface (result rows and bit_identical
    // are what the gate ctests compare).
    write_provenance_header(os, "device", prov);
    const bool scaling_valid = prov.hardware_threads >= max_threads;
    os << "  \"scaling_valid\": " << (scaling_valid ? "true" : "false")
       << ",\n";
    os << "  \"note\": \"family A: off-line vs on-line accuracy per "
          "encoding/noise level; family B: accuracy under conductance drift "
          "(engine device ticks); family C: detector hard-vs-soft "
          "classification quality, bit_identical compares the 4-thread "
          "trajectory to serial (rows carry scaling_valid: false when the "
          "host has fewer hardware threads)\",\n";
    os << "  \"results\": [\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      os << "    " << json_rows[i] << (i + 1 < json_rows.size() ? "," : "")
         << "\n";
    }
    os << "  ]\n}\n";
    std::cerr << "wrote " << path << "\n";
  }

  obs::write_obs(obs);
  return 0;
}
