// March-style full-array test baseline (see march_test.hpp).
#include "detect/march_test.hpp"

#include <cstdlib>

namespace refit {

MarchOutcome march_test(Crossbar& xbar) {
  const std::size_t rows = xbar.rows(), cols = xbar.cols();
  const auto levels = static_cast<int>(xbar.config().levels);
  const double gap = xbar.config().level_gap();
  MarchOutcome out;
  out.predicted = FaultMatrix(rows, cols);

  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const int original = xbar.read_level(r, c);
      ++out.cycles;  // initial read

      // Element 1: march the cell towards the opposite end of its range
      // and check that it moved. A cell at the bottom is pushed up (SA0
      // check), a cell at the top is pushed down (SA1 check); interior
      // cells are exercised in both directions.
      bool stuck_low = false, stuck_high = false;
      if (original < levels - 1) {
        xbar.write(r, c, (original + 1) * gap);
        ++out.cycles;
        ++out.device_writes;
        const int readback = xbar.read_level(r, c);
        ++out.cycles;
        if (readback <= original) stuck_low = (original == 0);
        // An interior cell that failed to move is stuck wherever it is;
        // classify by its pinned level below.
        if (readback <= original && original > 0) {
          stuck_high = readback == levels - 1;
          stuck_low = readback == 0;
        }
      }
      if (original > 0) {
        xbar.write(r, c, (original - 1) * gap);
        ++out.cycles;
        ++out.device_writes;
        const int readback = xbar.read_level(r, c);
        ++out.cycles;
        if (readback >= original && original == levels - 1) stuck_high = true;
      }

      xbar.write(r, c, original * gap);
      ++out.cycles;
      ++out.device_writes;

      if (stuck_low) {
        out.predicted.set(r, c, FaultKind::kStuckAt0);
      } else if (stuck_high) {
        out.predicted.set(r, c, FaultKind::kStuckAt1);
      }
    }
  }
  return out;
}

}  // namespace refit
