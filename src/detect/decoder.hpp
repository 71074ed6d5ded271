// Segment-constraint decoder for the quiescent-voltage comparison test.
//
// Each test cycle yields, per column (or per row in the transpose
// direction), the *residue modulo the divisor* of the number of stuck cells
// inside one (row-group × column) segment. The decoder combines the row-
// and column-direction residues into per-cell fault predictions:
//
//   1. Exact rules (constraint propagation, nonogram-style): a segment with
//      residue 0 and fewer unknowns than the divisor proves all its unknown
//      candidates healthy; a segment whose residue equals its unknown count
//      proves them all faulty. Resolutions feed back into crossing
//      segments until a fixpoint.
//   2. Ambiguity fallback: any candidate still unresolved is flagged faulty
//      iff both its row segment and its column segment retain a nonzero
//      residual — the source of the paper's false positives, which grow
//      with the test size.
#pragma once

#include <cstddef>
#include <vector>

#include "rram/fault_map.hpp"

namespace refit {

/// One measured segment: the candidate cells it covers (flat indices into
/// the crossbar) and the stuck-count residue the comparator produced.
struct Segment {
  std::vector<std::size_t> cells;
  std::size_t residue = 0;  ///< (#stuck cells) mod divisor, as measured
};

/// Decoder inputs for one fault-type pass over one crossbar.
struct DecodeInput {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t divisor = 16;
  /// Candidate mask (flat row-major); non-candidates are never flagged.
  std::vector<bool> candidate;
  std::vector<Segment> row_segments;
  std::vector<Segment> col_segments;
  /// Run the exact rules (step 1, at most 16 sweeps) before the fallback.
  bool use_constraint_propagation = true;
};

/// Per-cell verdicts; flat row-major, true = predicted faulty.
std::vector<bool> decode_segments(const DecodeInput& in);

}  // namespace refit
