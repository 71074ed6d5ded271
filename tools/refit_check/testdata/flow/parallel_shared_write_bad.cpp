// Shared-scalar writes inside thread-pool lambdas: every flavor the rule
// must catch. Fixtures only need to lex, not compile.
#include <cstddef>

struct Pool {
  template <class F>
  void parallel_for(std::size_t n, F f);
};

struct Grid {
  template <class F>
  void for_each_tile(F f);
};

template <class C, class F>
void parallel_for_weighted(const C& cost, F f);

void accumulate(Pool& pool, std::size_t n) {
  double sum = 0.0;
  int hits = 0;
  pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      sum += 1.0;  // EXPECT: parallel-shared-write
      ++hits;      // EXPECT: parallel-shared-write
    }
  });
}

struct Reducer {
  Pool& pool;
  double total = 0.0;
  void run(std::size_t n) {
    pool.parallel_for(n, [this](std::size_t b, std::size_t e) {
      total += static_cast<double>(e - b);  // EXPECT: parallel-shared-write
    });
  }
};

float bad_sum(Pool& pool, const float* x, std::size_t n) {
  float sum = 0.0f;
  pool.parallel_for(n, [&](std::size_t i) {
    sum += x[i];  // EXPECT: parallel-shared-write
  });
  return sum;
}

float bad_max(Pool& pool, const float* x, std::size_t n) {
  float best = 0.0f;
  pool.parallel_for(n, [&best, x](std::size_t i) {
    if (x[i] > best) best = x[i];  // EXPECT: parallel-shared-write
  });
  return best;
}

int bad_count(Grid& grid) {
  int count = 0;
  grid.for_each_tile([&count](int tile) {
    ++count;  // EXPECT: parallel-shared-write
    (void)tile;
  });
  return count;
}

double bad_weighted(const float* cost, std::size_t n) {
  double sum = 0.0;
  parallel_for_weighted(cost, [&](std::size_t i) {
    sum += cost[i] * static_cast<double>(n);  // EXPECT: parallel-shared-write
  });
  return sum;
}
