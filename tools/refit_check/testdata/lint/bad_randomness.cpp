// Fixture: ad-hoc randomness outside common/rng.
#include <cstdlib>
#include <random>

int c_rand() {
  return rand();  // EXPECT: randomness
}

void c_srand() {
  srand(42);  // EXPECT: randomness
}

int std_qualified_rand() {
  return std::rand();  // EXPECT: randomness
}

double mersenne() {
  std::mt19937 gen(123);  // EXPECT: randomness
  return static_cast<double>(gen());
}

unsigned hardware_entropy() {
  std::random_device rd;  // EXPECT: randomness
  return rd();
}

struct HasRandMember {
  int rand() { return 4; }
};

int member_named_rand_is_fine() {
  HasRandMember h;
  return h.rand();
}

int suppressed_rand() {
  return rand();  // refit-check: allow(randomness)
}
