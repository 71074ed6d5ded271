// Persistent worker pool behind refit::parallel_for (see thread_pool.hpp).
//
// Telemetry (docs/observability.md): every top-level parallel_for bumps
// the pool.parallel_for.calls counter and records a trace span on the
// calling thread; each worker accumulates pool.worker.<lane>.busy_ns.
// Spans are recorded only on the caller outside every chunk and busy time
// only inside worker_loop, so traces taken with an injected ManualClock
// are byte-identical at any thread count.
#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>

#include "common/check.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace refit {

namespace {

// obs::in_pool_chunk() is true on threads currently executing a pool
// chunk; parallel_for on such a thread runs inline instead of fanning out
// again. It is also held on the *caller* while it executes its own chunk
// (inline or lane 0), which (a) keeps nested parallel_for calls inline —
// fanning out mid-job would corrupt the pending job — and (b) keeps every
// chunk span-free (obs/trace.hpp), so traces do not depend on the thread
// count.

// Scoped obs::set_in_pool_chunk (exception-safe restore).
struct InsidePoolGuard {
  InsidePoolGuard() { obs::set_in_pool_chunk(true); }
  ~InsidePoolGuard() { obs::set_in_pool_chunk(false); }
};

/// REFIT_THREADS when set and non-empty, else the hardware's threads.
std::size_t default_thread_count() {
  const char* env = std::getenv("REFIT_THREADS");
  if (env != nullptr && *env != '\0') return parse_thread_count(env);
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, kMaxThreads);
}

/// Chunk `lane` of [0, n) split into `lanes` contiguous ranges.
std::pair<std::size_t, std::size_t> chunk_range(std::size_t n,
                                                std::size_t lanes,
                                                std::size_t lane) {
  return {n * lane / lanes, n * (lane + 1) / lanes};
}

}  // namespace

std::size_t parse_thread_count(const char* value) {
  // Digit by digit, stopping once past the cap, so no value overflows.
  std::size_t v = 0;
  const char* p = value;
  for (; *p >= '0' && *p <= '9' && v <= kMaxThreads; ++p)
    v = v * 10 + static_cast<std::size_t>(*p - '0');
  REFIT_CHECK_MSG(p != value && *p == '\0' && v >= 1 && v <= kMaxThreads,
                  "REFIT_THREADS=\"" << value
                                     << "\" is not a lane count in [1, "
                                     << kMaxThreads << "]");
  return v;
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t lanes = std::max<std::size_t>(1, threads);
  workers_.reserve(lanes - 1);
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    workers_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_chunk(std::size_t lane) {
  if (lane >= job_lanes_) return;
  const auto [begin, end] = chunk_range(job_n_, job_lanes_, lane);
  if (begin >= end) return;
  (*job_body_)(begin, end);
}

void ThreadPool::worker_loop(std::size_t lane) {
  obs::set_in_pool_chunk(true);
  obs::Tracer::set_thread_tid(static_cast<std::uint32_t>(lane));
  obs::Counter busy_ns = obs::MetricsRegistry::instance().counter(
      "pool.worker." + std::to_string(lane) + ".busy_ns", "ns");
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      start_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    std::exception_ptr err;
    const bool timed = obs::metrics_enabled();
    const std::uint64_t t0 = timed ? obs::now_ns() : 0;
    try {
      run_chunk(lane);
    } catch (...) {
      err = std::current_exception();
    }
    if (timed) busy_ns.add(obs::now_ns() - t0);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (err && !job_error_) job_error_ = err;
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  // Nested call from inside a pool chunk: always inline, never measured —
  // the outer call owns the job slots and the trace span.
  if (obs::in_pool_chunk()) {
    body(0, n);
    return;
  }
  static obs::Counter calls = obs::MetricsRegistry::instance().counter(
      "pool.parallel_for.calls", "calls");
  static obs::Counter inline_calls = obs::MetricsRegistry::instance().counter(
      "pool.parallel_for.inline", "calls");
  calls.add();
  obs::TraceSpan span("parallel_for", "pool");
  const std::size_t lanes = std::min(size(), n);
  // Serial fallback: a 1-lane pool or a range of one item. Runs the exact
  // same chunk math (one chunk = [0, n)) without waking any worker.
  if (workers_.empty() || lanes <= 1) {
    inline_calls.add();
    InsidePoolGuard guard;
    body(0, n);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_n_ = n;
    job_lanes_ = lanes;
    job_body_ = &body;
    job_error_ = nullptr;
    pending_ = workers_.size();
    ++generation_;
  }
  start_cv_.notify_all();
  std::exception_ptr err;
  try {
    InsidePoolGuard guard;
    run_chunk(0);
  } catch (...) {
    err = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return pending_ == 0; });
    job_body_ = nullptr;
    if (!err) err = job_error_;
  }
  if (err) std::rethrow_exception(err);
}

void parallel_for_weighted(const std::vector<std::size_t>& cost,
                           const std::function<void(std::size_t)>& body) {
  const std::size_t n = cost.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost[a] > cost[b];
                   });
  const std::size_t total =
      std::accumulate(cost.begin(), cost.end(), std::size_t{0});
  const std::size_t lanes =
      std::min(n, std::max<std::size_t>(
                      1, (total + kParallelGrain - 1) / kParallelGrain));
  std::atomic<std::size_t> next{0};
  // One chunk per lane; each claims items until none is left (a nested
  // call runs the one chunk inline, which claims them all in order).
  ThreadPool::global().parallel_for(lanes, [&](std::size_t, std::size_t) {
    for (std::size_t k = next++; k < n; k = next++) body(order[k]);
  });
}

namespace {
std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
}  // namespace

ThreadPool& ThreadPool::global() {
  auto& slot = global_pool_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(default_thread_count());
  return *slot;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  auto& slot = global_pool_slot();
  slot = std::make_unique<ThreadPool>(threads);
}

}  // namespace refit
