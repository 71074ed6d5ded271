// det fixture: std::thread::hardware_concurrency() stored into a
// provenance struct, returned, and serialized — plus a direct metric
// sample of the same value. Deterministic artifacts must be identical at
// any REFIT_THREADS, so the worker count cannot appear in them.
#include <thread>

struct Provenance {
  unsigned hardware_threads = 0;
};

Provenance collect_provenance() {
  Provenance p;
  p.hardware_threads = std::thread::hardware_concurrency();
  return p;
}

void write_header(std::ostream& os) {
  Provenance p = collect_provenance();
  os << p.hardware_threads << "\n";  // EXPECT: threadcount-value-dependence
}

void sample_workers(Gauge& workers) {
  workers.set(std::thread::hardware_concurrency());  // EXPECT: threadcount-value-dependence
}
