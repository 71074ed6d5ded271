// Fixture: core-layer code mutating raw conductance behind the encoding
// seam. Every Crossbar conductance mutator is banned outside src/device,
// src/rram, and rcs/crossbar_store.
struct FakeCrossbar {
  void force_fault(int, int, int) {}
  void force_soft_fault(int, int, int, int) {}
  void strong_write(int, int, double) {}
  void drift_toward(double, double) {}
  void decay_soft_faults() {}
};

void declarations_above_are_fine() {}

void direct_mutations(FakeCrossbar& xb, FakeCrossbar* p) {
  xb.force_fault(0, 0, 1);          // EXPECT: device-encoding
  xb.force_soft_fault(0, 0, 1, 2);  // EXPECT: device-encoding
  p->strong_write(1, 1, 0.5);       // EXPECT: device-encoding
  xb.drift_toward(0.0, 0.01);       // EXPECT: device-encoding
  p->decay_soft_faults();           // EXPECT: device-encoding
}

void suppressed_mutation(FakeCrossbar& xb) {
  // refit-check: allow(device-encoding)
  xb.strong_write(0, 0, 0.25);
}
