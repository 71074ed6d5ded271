// Properly consumed detection results: bound-and-read, tested in a
// condition, returned, passed along, or read on a later branch.
struct Outcome {
  int faults;
};
struct Crossbar {};
struct Store {};
struct Detector {
  Outcome detect(Crossbar& xb);
  Outcome detect_store(Store& s);
};

int counts(Detector& det, Crossbar& xb) {
  auto outcome = det.detect(xb);
  return outcome.faults;
}

void in_condition(Detector& det, Store& s) {
  if (det.detect_store(s).faults > 0) {
    return;
  }
}

Outcome forwarded(Detector& det, Crossbar& xb) {
  return det.detect(xb);
}

void as_argument(Detector& det, Crossbar& xb, void (*sink)(Outcome)) {
  sink(det.detect(xb));
}

void later_use_in_branch(Detector& det, Crossbar& xb, bool verbose) {
  auto outcome = det.detect(xb);
  if (verbose) {
    (void)outcome.faults;
  }
}
