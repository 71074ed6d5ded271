// Micro-benchmark for the parallel compute backend (common/thread_pool.hpp)
// and the packed GEMM / fused faulty-forward kernels (tensor/gemm.hpp,
// rcs/crossbar_store.hpp).
//
// Times the pooled tensor kernels against (a) the serial 1-thread path and
// (b) serial copies of the pre-blocking naive kernels, the effective-weight
// read-out after an update, and the fused faulty forward against
// materialize-then-matmul; verifies pooled outputs are bit-identical to
// serial; and writes the results as JSON (default ./BENCH_backend.json,
// override with REFIT_BENCH_OUT). Every row runs at 1, 2 and 4 threads;
// REFIT_FAST=1 shrinks repetitions (but not the peak probe's).
//
// GEMM-shaped rows carry achieved GFLOP/s and a roofline-style
// fraction-of-peak column, where "peak" is measured in-process by a
// register-resident multiply-add probe at the width of the dispatched
// GEMM kernel (same compiler, same flags, no memory traffic) and scaled by
// the lanes a row can use — see docs/kernels.md for how to read these. The JSON
// header records hardware provenance; when the host has fewer hardware
// threads than the bench was asked to scale to, scaling rows are marked
// "scaling_valid": false and a loud warning is printed (the seed's numbers
// were recorded on a 1-core host, which silently invalidated every
// scaling figure).
//
// The rebuild rows time effective() after a delta in the three regimes
// that matter for training. The store writes every update through to its
// read-out panel, so each is now a plain unpack; the row names stay for
// comparison with earlier BENCH_backend.json files:
//   rebuild_full        — every cell written,
//   rebuild_sparse_1pct — 1 % of cells updated at random (threshold
//                         training's surviving writes),
//   rebuild_tile_local  — a delta confined to one tile (detection repair,
//                         column-repair writes).
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/capture.hpp"
#include "obs/clock.hpp"
#include "rcs/crossbar_store.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace {

using refit::CrossbarWeightStore;
using refit::RcsConfig;
using refit::Rng;
using refit::Tensor;
using refit::ThreadPool;
using refit::bench::json_escape;

/// Best-of-`reps` wall-clock seconds for fn(), via the obs clock seam.
template <typename Fn>
double time_best(int reps, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    refit::obs::Stopwatch sw;
    fn();
    best = std::min(best, sw.seconds());
  }
  return best;
}

struct Row {
  std::string name;
  std::size_t threads;
  double seconds;
  double speedup_vs_serial;
  bool bit_identical;
  double gflops = 0.0;            ///< 0 for rows without a FLOP count
  double speedup_vs_naive = 0.0;  ///< 0 for rows without a naive baseline
};

/// Pool sizes every scaling row is measured at.
constexpr std::size_t kThreadCounts[] = {1, 2, 4};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// FNV-1a 64-bit over the tensor's float bytes — the golden hash asserted
/// by the Gate.GemmGoldenHash ctest.
std::uint64_t fnv1a64(const Tensor& t) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(t.data());
  for (std::size_t i = 0; i < t.numel() * sizeof(float); ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// ---- Measured peak --------------------------------------------------------

/// Repetitions of one peak probe (~1 ms each), independent of REFIT_FAST.
/// One probe can read low while the host is briefly slower, which would
/// push later rows' frac_peak past the roofline gate, so main() probes
/// before every GEMM-shaped timing and keeps the best.
constexpr int kPeakReps = 10;

/// Register-resident multiply-add probe for the portable kernel: 64
/// independent accumulators, each element a dependent acc = acc*m + c chain
/// whose latency is hidden by the 64-way parallelism. 2 flops per element
/// per iteration, no memory traffic — the compute ceiling of this
/// compiler+flags+CPU combination.
double portable_peak_gflops(int reps) {
  constexpr std::size_t kAcc = 64;
  constexpr std::size_t kIters = 1 << 18;
  float acc[kAcc];
  float mul[kAcc];
  float add[kAcc];
  for (std::size_t i = 0; i < kAcc; ++i) {
    acc[i] = 1.0f + 1e-6f * static_cast<float>(i);
    mul[i] = 0.999999f;
    add[i] = 1e-7f * static_cast<float>(i + 1);
  }
  double best = 1e300;
  float sink = 0.0f;
  for (int r = 0; r < reps; ++r) {
    refit::obs::Stopwatch sw;
    for (std::size_t it = 0; it < kIters; ++it) {
      for (std::size_t i = 0; i < kAcc; ++i) acc[i] = acc[i] * mul[i] + add[i];
    }
    best = std::min(best, sw.seconds());
    for (std::size_t i = 0; i < kAcc; ++i) sink += acc[i];
  }
  // Keep the accumulators observable so the loop cannot be elided.
  if (sink == 12345.678f) std::cout << "";
  return 2.0 * static_cast<double>(kAcc) * static_cast<double>(kIters) /
         (best * 1e9);
}

#if defined(__x86_64__) || defined(__i386__)
/// The same probe at the AVX kernel's width and under its target attribute:
/// 12 independent 256-bit chains of _mm256_mul_ps then _mm256_add_ps (no
/// FMA), which with the two operand registers fill the 16 ymm registers.
__attribute__((target("avx"))) double avx_peak_gflops(int reps) {
  constexpr std::size_t kAcc = 12;
  constexpr std::size_t kIters = 1 << 18;
  __m256 acc[kAcc];
  for (std::size_t i = 0; i < kAcc; ++i)
    acc[i] = _mm256_set1_ps(1.0f + 1e-6f * static_cast<float>(i));
  const __m256 mul = _mm256_set1_ps(0.999999f);
  const __m256 add = _mm256_set1_ps(1e-7f);
  double best = 1e300;
  float sink = 0.0f;
  for (int r = 0; r < reps; ++r) {
    refit::obs::Stopwatch sw;
    for (std::size_t it = 0; it < kIters; ++it) {
      for (std::size_t i = 0; i < kAcc; ++i)
        acc[i] = _mm256_add_ps(_mm256_mul_ps(acc[i], mul), add);
    }
    best = std::min(best, sw.seconds());
    float lanes[8];
    for (std::size_t i = 0; i < kAcc; ++i) {
      _mm256_storeu_ps(lanes, acc[i]);
      sink += lanes[0];
    }
  }
  if (sink == 12345.678f) std::cout << "";
  return 2.0 * 8.0 * static_cast<double>(kAcc) * static_cast<double>(kIters) /
         (best * 1e9);
}
#endif

/// Single-lane peak at the width of the dispatched GEMM kernel.
double measured_peak_gflops() {
#if defined(__x86_64__) || defined(__i386__)
  if (std::strcmp(refit::gemm::kernel_isa(), "avx") == 0)
    return avx_peak_gflops(kPeakReps);
#endif
  return portable_peak_gflops(kPeakReps);
}

// ---- Naive GEMM baselines (serial copies of the pre-blocking kernels) -----
//
// Pinned to -O2: the pre-blocking kernels shipped in a library built at -O2,
// and GCC's -O3 vectorizer would otherwise flatter these baselines beyond
// what the replaced code ever achieved.
#if defined(__GNUC__) && !defined(__clang__)
#define REFIT_BASELINE_OPT __attribute__((optimize("O2")))
#else
#define REFIT_BASELINE_OPT
#endif

REFIT_BASELINE_OPT
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* crow = c.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

REFIT_BASELINE_OPT
Tensor naive_matmul_tn(const Tensor& a, const Tensor& b) {
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = a.data()[kk * m + i];
      if (av == 0.0f) continue;
      const float* brow = b.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

REFIT_BASELINE_OPT
Tensor naive_matmul_nt(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* crow = c.data() + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b.data() + j * k;
      const float* b1 = b.data() + (j + 1) * k;
      const float* b2 = b.data() + (j + 2) * k;
      const float* b3 = b.data() + (j + 3) * k;
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        acc0 += av * b0[kk];
        acc1 += av * b1[kk];
        acc2 += av * b2[kk];
        acc3 += av * b3[kk];
      }
      crow[j] = acc0;
      crow[j + 1] = acc1;
      crow[j + 2] = acc2;
      crow[j + 3] = acc3;
    }
    for (; j < n; ++j) {
      const float* brow = b.data() + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = acc;
    }
  }
  return c;
}

RcsConfig store_config() {
  RcsConfig cfg;
  cfg.tile_rows = 128;
  cfg.tile_cols = 128;
  cfg.inject_fabrication = true;
  cfg.fabrication.fraction = 0.1;
  return cfg;
}

/// A fresh 512×512 store in a fully-rebuilt (clean) state.
std::unique_ptr<CrossbarWeightStore> make_store(std::size_t n) {
  Rng rng(7);
  Tensor w = Tensor::randn({n, n}, rng, 0.1f);
  auto store =
      std::make_unique<CrossbarWeightStore>(store_config(), w, Rng(11));
  (void)store->effective();
  return store;
}

}  // namespace

int main(int argc, char** argv) {
  const refit::obs::ObsOptions obs_opts = refit::obs::init_obs(argc, argv);
  const int reps = refit::bench::fast_mode() ? 2 : 5;
  const std::size_t n = 512;
  std::vector<Row> rows;
  double sink = 0.0;  // defeats dead-code elimination

  const refit::bench::BenchProvenance prov = refit::bench::collect_provenance();
  const std::size_t hw_threads = prov.hardware_threads;
  const std::size_t max_threads =
      *std::max_element(std::begin(kThreadCounts), std::end(kThreadCounts));
  const bool scaling_valid = hw_threads >= max_threads;
  if (!scaling_valid) {
    std::cerr << "*** WARNING: host has " << hw_threads
              << " hardware thread(s) but the bench scales to " << max_threads
              << " — every multi-thread speedup below is bounded by "
                 "oversubscription, not the backend. Treat scaling rows as "
                 "invalid (\"scaling_valid\": false in the JSON).\n";
  }

  // Single-lane peak: the best probe of the run, each probe taken right
  // before a GEMM-shaped timing so both see the same host state.
  double peak_gflops = 0.0;
  const auto probe_peak = [&] {
    peak_gflops = std::max(peak_gflops, measured_peak_gflops());
  };
  // Roofline fraction of the lanes a t-thread row can actually run on.
  const auto frac_of_peak = [&](double gflops, std::size_t t) {
    const std::size_t lanes = std::max<std::size_t>(1, std::min(t, hw_threads));
    return gflops / (peak_gflops * static_cast<double>(lanes));
  };

  // ---- GEMM + conv kernels ------------------------------------------------
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  const Tensor img = Tensor::randn({32, 3, 16, 16}, rng);
  refit::ConvGeometry geom;
  geom.in_channels = 3;
  geom.in_h = geom.in_w = 16;
  geom.kernel = 3;
  geom.pad = 1;

  // Golden hash (the Gate.GemmGoldenHash ratchet): stable across hosts and
  // thread counts because the kernel is bit-exact and Rng is portable.
  ThreadPool::set_global_threads(1);
  const std::uint64_t gemm_hash = fnv1a64(refit::matmul(a, b));
  std::cout << "gemm_output_hash=" << std::hex << gemm_hash << std::dec
            << "\n";

  struct Kernel {
    std::string name;
    std::function<Tensor()> run;
    double flops;                           // 0 = no FLOP column
    std::function<Tensor()> naive;          // null = no naive baseline
  };
  const double gemm_flops = 2.0 * static_cast<double>(n) * n * n;
  std::vector<std::size_t> pool_argmax;
  const std::vector<Kernel> kernels = {
      {"matmul_512", [&] { return refit::matmul(a, b); }, gemm_flops,
       [&] { return naive_matmul(a, b); }},
      {"matmul_tn_512", [&] { return refit::matmul_tn(a, b); }, gemm_flops,
       [&] { return naive_matmul_tn(a, b); }},
      {"matmul_nt_512", [&] { return refit::matmul_nt(a, b); }, gemm_flops,
       [&] { return naive_matmul_nt(a, b); }},
      {"im2col_b32", [&] { return refit::im2col(img, geom); }, 0.0, nullptr},
      {"maxpool2d_b32",
       [&] { return refit::maxpool2d(img, 2, 2, pool_argmax); }, 0.0,
       nullptr},
  };

  for (const auto& kern : kernels) {
    ThreadPool::set_global_threads(1);
    const Tensor ref = kern.run();
    const double serial = time_best(reps, [&] { sink += kern.run()[0]; });
    double naive_serial = 0.0;
    if (kern.naive) {
      const Tensor naive_out = kern.naive();
      probe_peak();
      naive_serial = time_best(reps, [&] { sink += kern.naive()[0]; });
      rows.push_back({"naive_" + kern.name, 1, naive_serial, 1.0,
                      same_bits(ref, naive_out),
                      kern.flops / (naive_serial * 1e9), 0.0});
      std::cout << "naive_" << kern.name << " threads=1 " << naive_serial
                << "s; blocked kernel is " << naive_serial / serial
                << "x faster single-thread\n";
    }
    for (const std::size_t t : kThreadCounts) {
      ThreadPool::set_global_threads(t);
      const Tensor pooled = kern.run();
      if (kern.flops > 0.0) probe_peak();
      const double secs = time_best(reps, [&] { sink += kern.run()[0]; });
      const double gflops =
          kern.flops > 0.0 ? kern.flops / (secs * 1e9) : 0.0;
      rows.push_back({kern.name, t, secs, serial / secs,
                      same_bits(ref, pooled), gflops,
                      naive_serial > 0.0 ? naive_serial / secs : 0.0});
      std::cout << kern.name << " threads=" << t << " " << secs << "s ("
                << serial / secs << "x)";
      if (gflops > 0.0) std::cout << " " << gflops << " GFLOP/s";
      std::cout << "\n";
    }
  }

  // ---- Fused faulty forward ----------------------------------------------
  // y = x·W_eff on a faulty 512×512 store: the fused kernel (packed panel,
  // no effective() materialization) vs materialize-then-matmul, in the clean
  // regime (weights unchanged between forwards — inference, fig7 evals)
  // and the dirty regime (a tile-local delta before every forward).
  {
    const std::size_t batch = 64;
    Rng xrng(5);
    const Tensor x = Tensor::randn({batch, n}, xrng);
    const double fwd_flops = 2.0 * static_cast<double>(batch) * n * n;
    Tensor delta_tile({n, n});
    delta_tile.at(3, 5) = 1e-4f;

    for (const std::size_t t : kThreadCounts) {
      ThreadPool::set_global_threads(t);
      auto store = make_store(n);
      const Tensor ref = refit::matmul(x, store->effective());
      const Tensor fused = store->forward_matmul(x);
      const bool bits = same_bits(ref, fused);

      probe_peak();
      const double mat_clean = time_best(
          reps, [&] { sink += refit::matmul(x, store->effective())[0]; });
      const double fus_clean =
          time_best(reps, [&] { sink += store->forward_matmul(x)[0]; });
      const double fus_gf = fwd_flops / (fus_clean * 1e9);
      rows.push_back({"materialize_forward_clean", t, mat_clean, 1.0, bits,
                      fwd_flops / (mat_clean * 1e9), 0.0});
      rows.push_back({"fused_forward_clean", t, fus_clean,
                      mat_clean / fus_clean, bits, fus_gf, 0.0});
      std::cout << "fused_forward_clean threads=" << t << " " << fus_clean
                << "s vs materialize " << mat_clean << "s ("
                << mat_clean / fus_clean << "x, bit_identical="
                << (bits ? "true" : "false") << ")\n";

      const double mat_dirty = time_best(reps, [&] {
        store->apply_delta(delta_tile);
        sink += refit::matmul(x, store->effective())[0];
      });
      const double fus_dirty = time_best(reps, [&] {
        store->apply_delta(delta_tile);
        sink += store->forward_matmul(x)[0];
      });
      rows.push_back(
          {"materialize_forward_dirty_tile", t, mat_dirty, 1.0, bits});
      rows.push_back({"fused_forward_dirty_tile", t, fus_dirty,
                      mat_dirty / fus_dirty, bits});
      std::cout << "fused_forward_dirty_tile threads=" << t << " "
                << fus_dirty << "s vs materialize " << mat_dirty << "s ("
                << mat_dirty / fus_dirty << "x)\n";
    }
  }

  // ---- Effective-weight read-out after an update ---------------------------
  // Deltas: full (every cell), sparse 1 % scattered, and tile-local 1 %.
  Rng drng(3);
  Tensor delta_full({n, n});
  for (std::size_t i = 0; i < delta_full.numel(); ++i) {
    delta_full[i] = static_cast<float>(drng.normal(0.0, 1e-3));
  }
  Tensor delta_sparse({n, n});
  const std::size_t sparse_cells = n * n / 100;
  for (std::size_t s = 0; s < sparse_cells; ++s) {
    delta_sparse[drng.uniform_index(n * n)] =
        static_cast<float>(drng.normal(0.0, 1e-3));
  }
  Tensor delta_local({n, n});
  for (std::size_t s = 0; s < sparse_cells; ++s) {
    const std::size_t r = drng.uniform_index(128);
    const std::size_t c = drng.uniform_index(128);
    delta_local.at(r, c) = static_cast<float>(drng.normal(0.0, 1e-3));
  }

  struct RebuildCase {
    std::string name;
    const Tensor* delta;
  };
  const std::vector<RebuildCase> cases = {
      {"rebuild_full", &delta_full},
      {"rebuild_sparse_1pct", &delta_sparse},
      {"rebuild_tile_local", &delta_local},
  };
  double serial_full_rebuild = 0.0;

  for (const auto& rc : cases) {
    // Time only the read-out, not store creation or the update.
    auto timed = [&](std::size_t t, const Tensor* ref) {
      ThreadPool::set_global_threads(t);
      double best = 1e300;
      bool bits = true;
      for (int i = 0; i < reps; ++i) {
        auto store = make_store(n);
        store->apply_delta(*rc.delta);
        refit::obs::Stopwatch sw;
        const Tensor& eff = store->effective();
        best = std::min(best, sw.seconds());
        sink += eff[0];
        if (ref != nullptr) bits = bits && same_bits(*ref, eff);
      }
      return std::make_pair(best, bits);
    };
    ThreadPool::set_global_threads(1);
    Tensor ref;
    {
      auto store = make_store(n);
      store->apply_delta(*rc.delta);
      ref = store->effective();
    }
    const double serial_rebuild = timed(1, &ref).first;
    if (rc.name == "rebuild_full") serial_full_rebuild = serial_rebuild;
    for (const std::size_t t : kThreadCounts) {
      const auto [secs, bits] = timed(t, &ref);
      rows.push_back({rc.name, t, secs, serial_rebuild / secs, bits});
      std::cout << rc.name << " threads=" << t << " " << secs << "s ("
                << serial_rebuild / secs << "x vs same-case serial, "
                << serial_full_rebuild / secs << "x vs full serial rebuild)\n";
      // Each case against the serial read-out after a full update,
      // recorded as an extra row.
      rows.push_back({rc.name + "_vs_full_serial", t, secs,
                      serial_full_rebuild / secs, bits});
    }
  }

  // ---- Emit JSON ----------------------------------------------------------
  std::cout << "gemm_isa=" << refit::gemm::kernel_isa()
            << " measured_peak_gflops=" << peak_gflops << "\n";
  const std::string path = refit::bench::bench_out_path("BENCH_backend.json");
  std::ofstream os(path);
  os << "{\n  \"bench\": \"backend\",\n";
  os << "  \"provenance\": {\n";
  // hardware_threads and scaling_valid depend on the thread count on
  // purpose: they are provenance — they describe the host the numbers were
  // measured on and are excluded from the deterministic comparison surface
  // (the gates compare gemm_output_hash and result rows, never provenance).
  // refit-check: allow(threadcount-value-dependence)
  os << "    \"hardware_threads\": " << hw_threads << ",\n";
  os << "    \"cpu_model\": \"" << json_escape(prov.cpu_model) << "\",\n";
  os << "    \"compiler\": \"" << json_escape(prov.compiler) << "\",\n";
  if (!prov.cxx_flags.empty())
    os << "    \"cxx_flags\": \"" << json_escape(prov.cxx_flags) << "\",\n";
  if (!prov.build_type.empty())
    os << "    \"build_type\": \"" << json_escape(prov.build_type) << "\",\n";
  os << "    \"gemm_isa\": \"" << refit::gemm::kernel_isa() << "\",\n";
  os << "    \"measured_peak_gflops\": " << peak_gflops << "\n  },\n";
  // refit-check: allow(threadcount-value-dependence) — provenance, above
  os << "  \"scaling_valid\": " << (scaling_valid ? "true" : "false")
     << ",\n";
  os << "  \"gemm_output_hash\": \"" << std::hex << gemm_hash << std::dec
     << "\",\n";
  os << "  \"note\": \"thread speedups are bounded by hardware_threads "
        "(invalid when scaling_valid is false); gflops/frac_peak are "
        "achieved FLOP throughput against the measured in-register peak "
        "at the dispatched kernel's width (gemm_isa), times the lanes a "
        "row can use "
        "(docs/kernels.md); the rebuild rows time the effective() read-out "
        "after an update (the panel is written through), *_vs_full_serial "
        "against the serial read-out after a full update\",\n";
  os << "  \"shape\": " << n << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"name\": \"" << r.name << "\", \"threads\": " << r.threads
       << ", \"seconds\": " << r.seconds << ", \"speedup_vs_serial\": "
       << r.speedup_vs_serial << ", \"bit_identical\": "
       << (r.bit_identical ? "true" : "false");
    if (r.gflops > 0.0) {
      os << ", \"gflops\": " << r.gflops << ", \"frac_peak\": "
         << frac_of_peak(r.gflops, r.threads);
    }
    if (r.speedup_vs_naive > 0.0) {
      os << ", \"speedup_vs_naive\": " << r.speedup_vs_naive;
    }
    if (r.threads > 1 && !scaling_valid) os << ", \"scaling_valid\": false";
    os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "wrote " << path << " (sink=" << sink << ")\n";
  refit::obs::write_obs(obs_opts);
  return 0;
}
