// Benign writes inside thread-pool lambdas: none of these may fire. The
// clean cases mirror the exemptions the rule documents: per-lane element
// writes, std::atomic, a dominating lock, by-value captures, locals, and
// an explicit suppression. The lock case needs a raw std::mutex, which
// the concurrency rule keeps inside common/thread_pool:
// refit-check: allow-file(concurrency)
#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

struct Pool {
  template <class F>
  void parallel_for(std::size_t n, F f);
};

void lanes(Pool& pool, std::vector<float>& out) {
  pool.parallel_for(out.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) out[i] = 1.0f;
  });
}

void atomics(Pool& pool, std::size_t n) {
  std::atomic<int> hits{0};
  pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
    hits += static_cast<int>(e - b);
  });
}

void locked(Pool& pool, std::size_t n) {
  std::mutex mu;
  double sum = 0.0;
  pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
    std::lock_guard<std::mutex> g(mu);
    sum += static_cast<double>(e - b);
  });
}

void copies(Pool& pool, std::size_t n) {
  int scratch = 0;
  pool.parallel_for(n, [=](std::size_t b, std::size_t e) mutable {
    scratch += static_cast<int>(e - b);
  });
  (void)scratch;
}

void locals(Pool& pool, std::size_t n) {
  pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
    double acc = 0.0;
    for (std::size_t i = b; i < e; ++i) acc += 1.0;
    (void)acc;
  });
}

float suppressed(Pool& pool, std::size_t n) {
  float tally = 0.0f;
  pool.parallel_for(n, [&](std::size_t i) {
    (void)i;
    // refit-check: allow(parallel-shared-write) — pool pinned to one thread
    tally = tally + 1.0f;
  });
  return tally;
}
