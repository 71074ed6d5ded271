// Fixture: a src/core file reading raw std::chrono clocks instead of the
// obs Clock seam. Every spelling — fully qualified, using-declaration,
// namespace alias — must be flagged; chrono conveniences that are not
// clocks (duration_cast, milliseconds) stay out of the rule's scope.
#include <chrono>

#include "obs/clock.hpp"

namespace sc = std::chrono;

void f() {
  auto t0 = std::chrono::steady_clock::now();            // EXPECT: obs-timing
  auto t1 = std::chrono::high_resolution_clock::now();   // EXPECT: obs-timing
  using std::chrono::steady_clock;                       // EXPECT: obs-timing
  auto t2 = sc::steady_clock::now();                     // EXPECT: obs-timing
  (void)t0;
  (void)t1;
  (void)t2;
  auto ms = std::chrono::milliseconds(5);  // not a clock: allowed
  (void)ms;
}
