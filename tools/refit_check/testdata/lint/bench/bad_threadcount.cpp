// Fixture: the worker count and thread identity reaching a bench's
// output. Artifacts must be identical at any REFIT_THREADS, so outside
// common/thread_pool, src/obs and bench/bench_util (see bench_util.cpp
// here) the query itself is flagged.
#include <thread>

struct Provenance {
  unsigned hardware_threads = 0;
};

Provenance collect_provenance() {
  Provenance p;
  p.hardware_threads = std::thread::hardware_concurrency();  // EXPECT: concurrency
  return p;
}

void write_header(std::ostream& os) {
  Provenance p = collect_provenance();
  os << p.hardware_threads << "\n";
}

void sample_workers(Gauge& workers) {
  workers.set(std::thread::hardware_concurrency());  // EXPECT: concurrency
}

void tag_row(std::ostream& os) {
  os << std::this_thread::get_id() << "\n";  // EXPECT: concurrency
}

void write_configured(std::ostream& os, unsigned configured_threads) {
  os << configured_threads << "\n";  // the configured value: fine
}
