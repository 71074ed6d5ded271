// det fixture: a raw std::chrono::steady_clock read (outside the
// obs::Clock seam) crosses a function boundary and lands in a serialized
// row — the artifact differs on every run.
#include <chrono>

double elapsed_ms() {
  const auto t0 = std::chrono::steady_clock::now();
  spin_workload();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void write_row(std::ostream& os) {
  os << elapsed_ms() << "\n";  // EXPECT: wallclock-to-output
}
