// Fixture: library modules writing status to the process streams instead
// of the structured event log (obs-event rule).
#include <iostream>

namespace refit {

void report_fault(int row, int col) {
  std::cout << "fault at " << row << "," << col << "\n";  // EXPECT: obs-event
}

void report_remap(int cost) {
  std::cerr << "remap cost " << cost << "\n";  // EXPECT: obs-event
}

void report_checkpoint(int iter) {
  // Suppressed: the annotation machinery itself must stay usable.
  // refit-check: allow(obs-event)
  std::cerr << "checkpoint " << iter << "\n";
}

}  // namespace refit
