// Fixture: mutating a crossbar tile through the store without invalidate().
struct FakeTile {
  void write(int, int, double) {}
  void force_fault(int, int, int) {}
  void force_soft_fault(int, int, int, int) {}
  void strong_write(int, int, double) {}
  void drift_toward(double, double) {}
  int rows() { return 4; }
};

struct FakeStore {
  FakeTile& tile(int, int) { return t_; }
  void invalidate() {}
  FakeTile t_;
};

void paired_mutation_is_fine(FakeStore& store) {
  store.tile(0, 0).force_fault(1, 1, 1);
  store.invalidate();
}

void read_only_tile_access_is_fine(FakeStore& store) {
  (void)store.tile(0, 0).rows();
}

void suppressed_mutation(FakeStore& store) {
  // refit-lint: allow(tile-invalidate)
  store.tile(0, 0).write(0, 0, 0.5);
}

// Padding so the mutations below have no invalidate() token within the
// 40-line forward window that the rule searches.
void unpaired_write(FakeStore& store) {
  store.tile(0, 0).write(0, 0, 0.5);  // EXPECT-LINT: tile-invalidate
}

void unpaired_force_fault(FakeStore* store) {
  store->tile(1, 1).force_fault(2, 2, 1);  // EXPECT-LINT: tile-invalidate
}

void unpaired_soft_fault(FakeStore& store) {
  store.tile(0, 1).force_soft_fault(3, 3, 1, 2);  // EXPECT-LINT: tile-invalidate
}

void unpaired_strong_write(FakeStore& store) {
  store.tile(1, 0).strong_write(0, 0, 0.5);  // EXPECT-LINT: tile-invalidate
}

void unpaired_drift(FakeStore& store) {
  store.tile(1, 1).drift_toward(0.0, 0.1);  // EXPECT-LINT: tile-invalidate
}
