// Fixture: tests build nondeterminism on purpose — timing a run,
// probing the host's thread count, keying scratch state by pointer — and
// write no artifact, so the determinism rules leave tests/ alone. Must
// lint clean.
#include <chrono>
#include <map>
#include <thread>
#include <unordered_map>

void probe() {
  const auto t0 = std::chrono::steady_clock::now();
  const unsigned hw = std::thread::hardware_concurrency();
  std::unordered_map<int, int> seen;
  std::map<const Tile*, int> by_tile;
  (void)t0;
  (void)hw;
  (void)seen;
  (void)by_tile;
}
