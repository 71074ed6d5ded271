// det fixture: a std::random_device read flows through two helper
// functions into an Rng stream constructor. The finding lands at the seed
// sink, and its chain reproduces the whole source→sink call chain (this
// is the fixture the explain-chain unit test pins). The entropy source
// is the point, so the randomness rule stands down:
// refit-check: allow-file(randomness)
#include <random>

unsigned device_entropy() {
  std::random_device entropy;
  return entropy();
}

unsigned mix_bits(unsigned raw) { return raw * 2654435761u; }

void build_stream() {
  unsigned raw = device_entropy();
  unsigned salt = mix_bits(raw);
  Rng rng(salt);  // EXPECT: nondet-seed-provenance
}
