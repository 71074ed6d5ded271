// Fixture: bench_util owns the host-provenance query — the thread count
// it records describes the measuring host and is never compared. Must
// lint clean.
#include <thread>

struct Provenance {
  unsigned hardware_threads = 0;
};

Provenance collect_provenance() {
  Provenance p;
  p.hardware_threads = std::thread::hardware_concurrency();
  return p;
}
