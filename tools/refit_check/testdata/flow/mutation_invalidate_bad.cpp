// Tile mutations that can reach function exit without invalidating the
// store's derived state (the packed read-out panel, the running counters).
struct Tile {
  void write(int idx, double g);
  void force_fault(int idx);
  void force_soft_fault(int idx, int kind);
  void strong_write(int idx, double g);
  void drift_toward(double g, double rate);
};
struct Store {
  Tile& tile(int ti, int tj, int leg = 0);
  void invalidate();
};

void poke(Store& s) {
  s.tile(0, 0).write(3, 1.5);  // EXPECT: mutation-without-invalidate
}

void early_out(Store& s, bool fast) {
  s.tile(1, 1).force_fault(7);  // EXPECT: mutation-without-invalidate
  if (fast) return;  // this path skips the invalidate below
  s.invalidate();
}

void via_alias(Store& s) {
  auto& tl = s.tile(2, 2);
  tl.write(0, 0.25);  // EXPECT: mutation-without-invalidate
}

void drift(Store& s) {
  s.tile(0, 1).drift_toward(0.0, 0.1);  // EXPECT: mutation-without-invalidate
}

void unpaired_write(Store& store) {
  store.tile(0, 0).write(0, 0.5);  // EXPECT: mutation-without-invalidate
}

void unpaired_force_fault(Store* store) {
  store->tile(1, 1).force_fault(2);  // EXPECT: mutation-without-invalidate
}

void unpaired_soft_fault(Store& store) {
  store.tile(0, 1).force_soft_fault(3, 1);  // EXPECT: mutation-without-invalidate
}

void unpaired_strong_write(Store& store) {
  store.tile(1, 0).strong_write(0, 0.5);  // EXPECT: mutation-without-invalidate
}

void unpaired_drift(Store* store) {
  store->tile(1, 1).drift_toward(0.0, 0.1);  // EXPECT: mutation-without-invalidate
}

void unpaired_second_leg(Store& s) {
  s.tile(0, 0, 1).force_fault(3);  // EXPECT: mutation-without-invalidate
}
