// Shared data-parallel backend for the simulation hot paths.
//
// A ThreadPool owns N-1 worker threads (the calling thread is the Nth
// lane) and exposes two primitives. parallel_for(n, body) splits [0, n)
// into at most N contiguous chunks by *static* partitioning and runs
// body(begin, end) on each: chunk boundaries depend only on (n, N), and
// callers write disjoint output ranges, so pooled results are
// bit-identical to the serial path at any thread count.
// parallel_for_weighted(cost, body) runs body(i) once per item, the lanes
// claiming items heaviest first; items write disjoint state, so results
// are again bit-identical at any thread count.
//
// These are the only fan-outs: a flow's pass-level jobs (sample chunks,
// weight-gradient and update items, tile visits) call them, and the
// tensor kernels below a job are serial.
//
// The global pool is sized from REFIT_THREADS when set (1 disables
// workers entirely and parallel_for degenerates to an inline loop on the
// caller), otherwise from std::thread::hardware_concurrency(), at most
// kMaxThreads lanes either way.
// Exceptions thrown inside a chunk are captured and rethrown on the
// calling thread. parallel_for called from inside a worker runs inline
// (no nested fan-out, no deadlock).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace refit {

class ThreadPool {
 public:
  /// A pool of `threads` lanes total (caller included); threads == 0 is
  /// treated as 1. A 1-lane pool spawns no workers.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (worker threads + the calling thread).
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Run body(begin, end) over a static partition of [0, n) into
  /// min(n, size()) chunks. Blocks until every chunk finished; rethrows
  /// the first chunk exception. One chunk runs inline on the caller
  /// without waking any worker.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// The process-wide pool (REFIT_THREADS / hardware concurrency).
  static ThreadPool& global();
  /// Re-create the global pool with `threads` lanes (tests / benches).
  static void set_global_threads(std::size_t threads);

 private:
  void worker_loop(std::size_t lane);
  /// Chunk `lane` of the current job; nothing when the lane has no chunk.
  void run_chunk(std::size_t lane);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;

  // Current job (valid while pending_ > 0).
  std::size_t job_n_ = 0;
  std::size_t job_lanes_ = 0;
  const std::function<void(std::size_t, std::size_t)>* job_body_ = nullptr;
  std::exception_ptr job_error_;
};

/// Most lanes the global pool runs: a REFIT_THREADS above it is rejected,
/// and a larger hardware_concurrency() is capped to it.
inline constexpr std::size_t kMaxThreads = 256;

/// The lane count a REFIT_THREADS value names: decimal digits only, in
/// [1, kMaxThreads]. Throws CheckError naming the variable and the value
/// otherwise ("4x", "1e9", "0", "-2", "300").
[[nodiscard]] std::size_t parse_thread_count(const char* value);

/// parallel_for on the global pool — the call sites' spelling.
inline void parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  ThreadPool::global().parallel_for(n, body);
}

/// Minimum scalar-op work a lane must amortize before fan-out pays for the
/// pool handshake (wakeup + join ≈ tens of microseconds):
/// parallel_for_weighted runs one lane per kParallelGrain of total cost.
inline constexpr std::size_t kParallelGrain = 65536;

/// Run body(i) once for every item i in [0, cost.size()) in one pool job
/// over at most ceil(Σ cost / kParallelGrain) lanes, `cost` in scalar ops.
/// The lanes claim items heaviest first (ties by index), so one long item
/// does not trail behind short ones. Which lane runs an item depends on
/// timing: items must write disjoint state, and results are then
/// bit-identical at any thread count.
void parallel_for_weighted(const std::vector<std::size_t>& cost,
                           const std::function<void(std::size_t)>& body);

}  // namespace refit
