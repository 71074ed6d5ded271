// Fixture: a bench timing its own work with raw clocks instead of the
// obs::Clock seam, and writing the result into a row. Every clock
// spelling is flagged in bench/ exactly as in src/.
#include <chrono>
#include <ctime>

#include <sys/time.h>

double elapsed_ms() {
  const auto t0 = std::chrono::steady_clock::now();  // EXPECT: obs-timing
  spin_workload();
  const auto t1 = std::chrono::steady_clock::now();  // EXPECT: obs-timing
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void write_row(std::ostream& os) {
  os << elapsed_ms() << "\n";
}

long long epoch_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now()  // EXPECT: obs-timing
                 .time_since_epoch())
      .count();
}

long posix_reads() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);  // EXPECT: obs-timing
  timeval tv{};
  gettimeofday(&tv, nullptr);  // EXPECT: obs-timing
  return ts.tv_nsec + tv.tv_usec;
}

void write_row_through_the_seam(std::ostream& os, const Clock& clock) {
  os << clock.now_ns() << "\n";  // the seam: fine
}
