// Store mutations that correctly invalidate (or mark dirty) on every
// path — including the canonical loop-then-invalidate shape detect_store
// uses.
struct Tile {
  void write(int idx, double g);
  void force_fault(int idx);
  int rows();
};
struct TileGrid {
  template <class F>
  void for_each_tile(bool only_dirty, F f);
};
struct Store {
  Tile& tile(int ti, int tj, int leg = 0);
  void invalidate();
  void mark_pack_dirty(int ti, int tj);
};

void poke_then_invalidate(Store& s) {
  s.tile(0, 0).write(3, 1.5);
  s.invalidate();
}

void branchy(Store& s, bool both) {
  s.tile(1, 0).write(0, 0.5);
  if (both) {
    s.tile(1, 1).write(0, 0.5);
    s.invalidate();
  } else {
    s.invalidate();
  }
}

void marks_pack(Store& s) {
  s.tile(2, 2).write(1, 0.125);
  s.mark_pack_dirty(2, 2);
}

void loop_then_invalidate(Store& s, TileGrid& grid) {
  grid.for_each_tile(true, [&](int ti, int tj) {
    s.tile(ti, tj).write(0, 0.0);
  });
  s.invalidate();
}

double reads_are_free(Store& s) {
  auto& tl = s.tile(3, 3);
  (void)tl;
  return 0.0;
}

void paired_through_pointer(Store* store) {
  store->tile(0, 0).force_fault(1);
  store->invalidate();
}

void second_leg_then_invalidate(Store& s) {
  s.tile(0, 0, 1).force_fault(3);
  s.invalidate();
}

int read_only_tile_access(Store& store) { return store.tile(0, 0).rows(); }

void suppressed_mutation(Store& store) {
  // refit-check: allow(mutation-without-invalidate)
  store.tile(0, 0).write(0, 0.5);
}
