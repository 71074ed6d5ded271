// March-style per-cell test — the traditional memory-test baseline the
// paper argues against (§1, §2.2: "the test time of traditional test
// methods increases quadratically with the number of rows (columns)",
// refs. [9][12]).
//
// Each cell is exercised individually: read, write a displaced level,
// read back, restore, in both directions. This gives near-perfect
// precision/recall but costs Θ(rows·cols) cycles — versus the
// quiescent-voltage method's Θ(rows/Tr + cols/Tc) — and wears every cell
// with several real write pulses per invocation, which matters when the
// tested array has limited endurance.
#pragma once

#include <cstdint>

#include "rram/crossbar.hpp"
#include "rram/fault_map.hpp"

namespace refit {

/// Cycle/accuracy accounting of one March pass.
struct MarchOutcome {
  FaultMatrix predicted;
  std::size_t cycles = 0;          ///< single-cell read/write operations
  std::uint64_t device_writes = 0; ///< endurance-consuming pulses issued
};

/// Run the per-cell March sequence over the whole crossbar; each cell is
/// restored to its original level after it is tested.
MarchOutcome march_test(Crossbar& xbar);

}  // namespace refit
