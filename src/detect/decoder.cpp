// Fault-site decoding from quiescent-test observables (see decoder.hpp).
#include "detect/decoder.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace refit {

namespace {

// Sweeps of the exact rules before the fallback takes over.
constexpr std::size_t kMaxIterations = 16;

enum class CellState : unsigned char { kUnknown, kHealthy, kFaulty };

struct SegmentState {
  const Segment* seg = nullptr;
  std::size_t unresolved = 0;
  /// Residue minus already-resolved faulty cells, kept as a residue.
  std::size_t residual = 0;
};

}  // namespace

std::vector<bool> decode_segments(const DecodeInput& in) {
  REFIT_CHECK(in.rows > 0 && in.cols > 0 && in.divisor >= 2);
  const std::size_t n = in.rows * in.cols;
  REFIT_CHECK(in.candidate.size() == n);

  std::vector<CellState> state(n, CellState::kUnknown);
  for (std::size_t i = 0; i < n; ++i) {
    if (!in.candidate[i]) state[i] = CellState::kHealthy;
  }

  // Index: for each cell, which row/col segment covers it (if any).
  std::vector<int> row_seg_of(n, -1), col_seg_of(n, -1);
  std::vector<SegmentState> rs(in.row_segments.size());
  std::vector<SegmentState> cs(in.col_segments.size());
  for (std::size_t s = 0; s < in.row_segments.size(); ++s) {
    rs[s].seg = &in.row_segments[s];
    rs[s].residual = in.row_segments[s].residue % in.divisor;
    for (std::size_t cell : in.row_segments[s].cells) {
      REFIT_CHECK(cell < n);
      row_seg_of[cell] = static_cast<int>(s);
      if (state[cell] == CellState::kUnknown) ++rs[s].unresolved;
    }
  }
  for (std::size_t s = 0; s < in.col_segments.size(); ++s) {
    cs[s].seg = &in.col_segments[s];
    cs[s].residual = in.col_segments[s].residue % in.divisor;
    for (std::size_t cell : in.col_segments[s].cells) {
      REFIT_CHECK(cell < n);
      col_seg_of[cell] = static_cast<int>(s);
      if (state[cell] == CellState::kUnknown) ++cs[s].unresolved;
    }
  }

  // Resolve a cell and update both covering segments' residuals.
  auto resolve = [&](std::size_t cell, CellState verdict) {
    if (state[cell] != CellState::kUnknown) return;
    state[cell] = verdict;
    for (auto* vec : {&rs, &cs}) {
      const auto& seg_of = (vec == &rs) ? row_seg_of : col_seg_of;
      const int si = seg_of[cell];
      if (si < 0) continue;
      SegmentState& ss = (*vec)[static_cast<std::size_t>(si)];
      REFIT_DCHECK(ss.unresolved > 0);
      --ss.unresolved;
      if (verdict == CellState::kFaulty) {
        // Subtract one fault from the residue (modular arithmetic).
        ss.residual = (ss.residual + in.divisor - 1) % in.divisor;
      }
    }
  };

  if (in.use_constraint_propagation) {
    bool changed = true;
    std::size_t iters = 0;
    while (changed && iters++ < kMaxIterations) {
      changed = false;
      for (auto* vec : {&rs, &cs}) {
        for (SegmentState& ss : *vec) {
          if (ss.unresolved == 0) continue;
          // Modulo information loss: with >= divisor unknowns the residue
          // no longer pins the exact count, so the exact rules are unsafe.
          if (ss.unresolved >= in.divisor) continue;
          if (ss.residual == 0) {
            for (std::size_t cell : ss.seg->cells)
              if (state[cell] == CellState::kUnknown) {
                resolve(cell, CellState::kHealthy);
                changed = true;
              }
          } else if (ss.residual == ss.unresolved) {
            // Snapshot: resolving mutates unresolved/residual.
            std::vector<std::size_t> unknowns;
            for (std::size_t cell : ss.seg->cells)
              if (state[cell] == CellState::kUnknown)
                unknowns.push_back(cell);
            for (std::size_t cell : unknowns) {
              resolve(cell, CellState::kFaulty);
              changed = true;
            }
          }
        }
      }
    }
  }

  // Fallback for the ambiguous remainder: flag when both directions still
  // carry evidence of stuck cells.
  std::vector<bool> predicted(n, false);
  for (std::size_t cell = 0; cell < n; ++cell) {
    switch (state[cell]) {
      case CellState::kFaulty:
        predicted[cell] = true;
        break;
      case CellState::kHealthy:
        break;
      case CellState::kUnknown: {
        const int rsi = row_seg_of[cell];
        const int csi = col_seg_of[cell];
        const bool row_ev =
            rsi >= 0 && rs[static_cast<std::size_t>(rsi)].residual > 0;
        const bool col_ev =
            csi >= 0 && cs[static_cast<std::size_t>(csi)].residual > 0;
        // A cell covered by only one direction keeps that direction's
        // verdict; covered by both requires agreement.
        if (rsi >= 0 && csi >= 0) {
          predicted[cell] = row_ev && col_ev;
        } else {
          predicted[cell] = row_ev || col_ev;
        }
        break;
      }
    }
  }
  return predicted;
}

}  // namespace refit
