// Detection/checkpoint results bound to a variable nobody reads. (A bare
// discarded call is left to the compiler: the real APIs are [[nodiscard]]
// and CI builds with -Werror.)
#include <iosfwd>

struct Outcome {
  int faults;
};
struct Crossbar {};
struct Detector {
  Outcome detect(Crossbar& xb);
};
struct Engine {
  bool save_checkpoint(std::ostream& os);
};

void dead_binding(Detector& det, Crossbar& xb) {
  auto outcome = det.detect(xb);  // EXPECT: unchecked-must-use
}

void dead_status(Engine& eng, std::ostream& os) {
  bool ok = eng.save_checkpoint(os);  // EXPECT: unchecked-must-use
}
