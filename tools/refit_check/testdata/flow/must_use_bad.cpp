// Detection/forward results bound to a variable nobody reads. (A bare
// discarded call is left to the compiler: the real APIs are [[nodiscard]]
// and CI builds with -Werror.)
struct Outcome {
  int faults;
};
struct Crossbar {};
struct Store {};
struct Detector {
  Outcome detect(Crossbar& xb);
  Outcome detect_store(Store& s);
};

void dead_binding(Detector& det, Crossbar& xb) {
  auto outcome = det.detect(xb);  // EXPECT: unchecked-must-use
}

void dead_store_outcome(Detector& det, Store& s) {
  Outcome out = det.detect_store(s);  // EXPECT: unchecked-must-use
}
