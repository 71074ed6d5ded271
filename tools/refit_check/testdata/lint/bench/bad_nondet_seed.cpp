// Fixture: a bench seeding a stream from entropy — std::random_device,
// the process id or the wall clock — so no two runs draw the same
// numbers. Every source is flagged where it is read, so the seed it
// reaches no longer matters.
#include <ctime>
#include <random>

#include <unistd.h>

unsigned device_entropy() {
  std::random_device entropy;  // EXPECT: randomness
  return entropy();
}

unsigned mix_bits(unsigned raw) { return raw * 2654435761u; }

void build_stream() {
  unsigned raw = device_entropy();
  unsigned salt = mix_bits(raw);
  Rng rng(salt);
}

void seed_from_process() {
  Rng by_pid(static_cast<unsigned>(getpid()));  // EXPECT: randomness
  unsigned buf = 0;
  getentropy(&buf, sizeof buf);                 // EXPECT: randomness
  Rng by_clock(static_cast<unsigned>(time(nullptr)));       // EXPECT: randomness
  Rng by_std_clock(static_cast<unsigned>(std::time(nullptr)));  // EXPECT: randomness
}

struct Run {
  double time() const { return 0.0; }  // a member named time is fine
};

double elapsed(const Run& r) { return r.time(); }
