// Fixture: concurrency primitives outside common/thread_pool.
#include <thread>

void spawn_raw_thread() {
  std::thread t([] {});  // EXPECT: concurrency
  t.join();
}

void raw_mutex() {
  static std::mutex mu;  // EXPECT: concurrency
  (void)mu;
}

void raw_async() {
  auto f = std::async([] { return 1; });  // EXPECT: concurrency
  (void)f;
}

void raw_condvar() {
  std::condition_variable cv;  // EXPECT: concurrency
  (void)cv;
}

unsigned hw_query_is_fine() {
  return std::thread::hardware_concurrency();
}

void suppressed_mutex() {
  // refit-check: allow(concurrency)
  static std::mutex deliberate;
  (void)deliberate;
}
