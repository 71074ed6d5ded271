// On-line quiescent-voltage fault detector, paper §4 (see quiescent_detector.hpp).
#include "detect/quiescent_detector.hpp"

#include <cmath>
#include <vector>

#include "detect/decoder.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace refit {

namespace {

/// Chunk `selected` into groups of at most `per_cycle` indices.
std::vector<std::vector<std::size_t>> make_groups(
    const std::vector<std::size_t>& selected, std::size_t per_cycle) {
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < selected.size(); i += per_cycle) {
    const std::size_t end = std::min(i + per_cycle, selected.size());
    groups.emplace_back(selected.begin() + static_cast<std::ptrdiff_t>(i),
                        selected.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return groups;
}

}  // namespace

void QuiescentVoltageDetector::run_pass(
    Crossbar& xbar, int stuck_level, int pulse,
    const std::vector<std::vector<int>>& stored, FaultMatrix& predicted,
    DetectionOutcome& out) const {
  const std::size_t rows = xbar.rows(), cols = xbar.cols();
  const std::size_t levels = xbar.config().levels;
  const double gap = xbar.config().level_gap();
  const auto lm1 = static_cast<double>(levels - 1);

  // Step 2: candidate selection. Even without §4.3's selected-cell mode
  // the controller knows the stored values, so cells already saturated at
  // the pulse's end of the range are excluded — they cannot respond to the
  // write and would otherwise be guaranteed false positives.
  std::vector<bool> candidate(rows * cols, false);
  std::size_t candidate_count = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const bool can_respond = pulse > 0
                                   ? stored[r][c] < static_cast<int>(levels) - 1
                                   : stored[r][c] > 0;
      const bool is_candidate = cfg_.selected_cells_only
                                    ? stored[r][c] == stuck_level
                                    : can_respond;
      if (is_candidate) {
        candidate[r * cols + c] = true;
        ++candidate_count;
      }
    }
  }
  if (candidate_count == 0) return;
  out.cells_tested += candidate_count;

  // Step 3: write the ±δw pulse to every candidate.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (!candidate[r * cols + c]) continue;
      xbar.write(r, c, xbar.conductance(r, c) + pulse * gap);
      ++out.device_writes;
    }
  }

  // Step 4/5: measure both directions. The comparator works in analog
  // volts: the reference is computed from the stored levels (including
  // each cell's IR-drop attenuation, which the controller calibrates for),
  // digitized, and reduced modulo the divisor.
  const std::size_t divisor = cfg_.modulo_divisor;
  auto residue_of = [&](double expected_analog, double measured_analog) {
    // SA0 pass (pulse +1): stuck cells create a deficit; SA1 pass: surplus.
    const double diff_levels =
        (pulse > 0 ? expected_analog - measured_analog
                   : measured_analog - expected_analog) *
        lm1;
    long long diff = std::llround(diff_levels);
    const auto d = static_cast<long long>(divisor);
    diff %= d;
    if (diff < 0) diff += d;
    return static_cast<std::size_t>(diff);
  };

  DecodeInput din;
  din.rows = rows;
  din.cols = cols;
  din.divisor = divisor;
  din.candidate = candidate;
  din.use_constraint_propagation = cfg_.use_constraint_propagation;

  // Row-direction: drive groups of rows, read all column outputs per cycle.
  std::vector<std::size_t> sel_rows;
  for (std::size_t r = 0; r < rows; ++r) {
    bool any = false;
    for (std::size_t c = 0; c < cols && !any; ++c) any = candidate[r * cols + c];
    if (any) sel_rows.push_back(r);
  }
  for (const auto& group : make_groups(sel_rows, cfg_.test_rows_per_cycle)) {
    ++out.cycles;
    for (std::size_t c = 0; c < cols; ++c) {
      Segment seg;
      double expected = 0.0;
      for (std::size_t r : group) {
        double level = stored[r][c];
        if (candidate[r * cols + c]) {
          level += pulse;
          seg.cells.push_back(r * cols + c);
        }
        expected += xbar.attenuation(r, c) * level * gap;
      }
      if (seg.cells.empty()) continue;  // nothing testable in this segment
      const double measured = xbar.sum_conductance_rows(group, c);
      ++out.adc_reads;
      seg.residue = residue_of(expected, measured);
      din.row_segments.push_back(std::move(seg));
    }
  }

  // Column-direction (the crossbar works both ways, §4.1).
  std::vector<std::size_t> sel_cols;
  for (std::size_t c = 0; c < cols; ++c) {
    bool any = false;
    for (std::size_t r = 0; r < rows && !any; ++r) any = candidate[r * cols + c];
    if (any) sel_cols.push_back(c);
  }
  for (const auto& group : make_groups(sel_cols, cfg_.tc())) {
    ++out.cycles;
    for (std::size_t r = 0; r < rows; ++r) {
      Segment seg;
      double expected = 0.0;
      for (std::size_t c : group) {
        double level = stored[r][c];
        if (candidate[r * cols + c]) {
          level += pulse;
          seg.cells.push_back(r * cols + c);
        }
        expected += xbar.attenuation(r, c) * level * gap;
      }
      if (seg.cells.empty()) continue;
      const double measured = xbar.sum_conductance_cols(group, r);
      ++out.adc_reads;
      seg.residue = residue_of(expected, measured);
      din.col_segments.push_back(std::move(seg));
    }
  }

  // Step 7: decode.
  const std::vector<bool> flags = decode_segments(din);
  const FaultKind kind =
      stuck_level == 0 ? FaultKind::kStuckAt0 : FaultKind::kStuckAt1;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (flags[r * cols + c] && !predicted.faulty(r, c)) {
        predicted.set(r, c, kind);
      }
    }
  }

  // Step 6: restore the training weights with the opposite pulse.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (!candidate[r * cols + c]) continue;
      xbar.write(r, c, xbar.conductance(r, c) - pulse * gap);
      ++out.device_writes;
    }
  }
}

DetectionOutcome QuiescentVoltageDetector::detect(Crossbar& xbar) const {
  REFIT_CHECK(cfg_.test_rows_per_cycle > 0 && cfg_.modulo_divisor >= 2);
  const std::size_t rows = xbar.rows(), cols = xbar.cols();
  DetectionOutcome out;
  out.predicted = FaultMatrix(rows, cols);

  auto read_all = [&] {
    std::vector<std::vector<int>> stored(rows, std::vector<int>(cols, 0));
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c) stored[r][c] = xbar.read_level(r, c);
    return stored;
  };

  if (cfg_.classify_soft) {
    // Snapshot truth before the first pulse: classification scrubs soft
    // faults, so this is the reference evaluate_classified scores against.
    out.truth_before = FaultMatrix(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        out.truth_before.set(r, c, xbar.fault(r, c));
  }

  // SA0 pass: stuck at the lowest level, tested with a +δw increment.
  {
    const auto stored = read_all();
    run_pass(xbar, /*stuck_level=*/0, /*pulse=*/+1, stored, out.predicted,
             out);
  }
  // SA1 pass: stuck at the highest level, tested with a −δw decrement.
  {
    const auto stored = read_all();
    run_pass(xbar, static_cast<int>(xbar.config().levels) - 1, /*pulse=*/-1,
             stored, out.predicted, out);
  }

  if (cfg_.classify_soft) {
    // Confirmation pass: give every predicted cell one strong pulse one
    // level away from its pinned value. A hard-stuck cell suppresses the
    // write and reads back unchanged; a transiently pinned cell re-forms,
    // moves, and is scrubbed back to its read-out value. Each re-test is
    // one write plus one ADC read in its own cycle.
    out.classified_soft = FaultMatrix(rows, cols);
    const double gap = xbar.config().level_gap();
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        if (!out.predicted.faulty(r, c)) continue;
        ++out.cells_retested;
        ++out.cycles;
        const FaultKind pk = out.predicted.at(r, c);
        const int dir = pk == FaultKind::kStuckAt1 ? -1 : +1;
        const int l0 = xbar.read_level(r, c);
        const double g0 = static_cast<double>(l0) * gap;
        // The scrub pulse is the detector's own confirmation primitive
        // (crossbar.hpp strong_write contract).
        // refit-check: allow(device-encoding)
        xbar.strong_write(r, c, g0 + dir * gap);
        ++out.device_writes;
        const int l1 = xbar.read_level(r, c);
        ++out.adc_reads;
        if (l1 != l0) {
          out.classified_soft.set(r, c,
                                  pk == FaultKind::kStuckAt1
                                      ? FaultKind::kSoftStuck1
                                      : FaultKind::kSoftStuck0);
          // Undo the probe: the cell is healthy again, put the pinned-era
          // read-out back so training resumes from what the weight decoded
          // to (the next logical write reprograms it from target anyway).
          xbar.write(r, c, g0);
          ++out.device_writes;
        }
      }
    }
    static obs::Counter retests_metric = obs::MetricsRegistry::instance()
        .counter("detector.cells_retested", "cells");
    static obs::Counter soft_metric = obs::MetricsRegistry::instance().counter(
        "detector.soft_classified", "cells");
    retests_metric.add(out.cells_retested);
    std::size_t nsoft = 0;
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        if (out.classified_soft.faulty(r, c)) ++nsoft;
    soft_metric.add(nsoft);
  }
  // Telemetry (docs/observability.md). detect() runs on pool lanes when
  // fanned out by detect_store; the handles are relaxed atomics, so the
  // totals are exact (and deterministic) at any thread count.
  static obs::Counter cycles_metric =
      obs::MetricsRegistry::instance().counter("detector.cycles", "cycles");
  static obs::Counter cells_metric = obs::MetricsRegistry::instance().counter(
      "detector.cells_tested", "cells");
  static obs::Counter pulses_metric =
      obs::MetricsRegistry::instance().counter("detector.pulses", "writes");
  static obs::Counter adc_metric =
      obs::MetricsRegistry::instance().counter("detector.adc_reads", "reads");
  cycles_metric.add(out.cycles);
  cells_metric.add(out.cells_tested);
  pulses_metric.add(out.device_writes);
  adc_metric.add(out.adc_reads);
  return out;
}

DetectionOutcome QuiescentVoltageDetector::detect_store(
    CrossbarWeightStore& store) const {
  DetectionOutcome out;
  out.predicted = FaultMatrix(store.rows(), store.cols());
  const bool classify = cfg_.classify_soft;
  if (classify) {
    out.classified_soft = FaultMatrix(store.rows(), store.cols());
    out.truth_before = FaultMatrix(store.rows(), store.cols());
  }
  // Tiles are embarrassingly parallel: each owns its RNG, its pulses stay
  // inside the tile, and its predictions land in a disjoint physical block
  // of the store-level map. The grid's for_each_tile fans the per-tile
  // detections across the pool; outcomes are kept in slots and merged in
  // tile order below, so totals are deterministic at any thread count. A
  // differential store's two leg planes cover the same physical block, so
  // one lane tests both serially.
  const std::size_t legs = store.legs();
  const TileGrid& grid = store.grid();
  std::vector<DetectionOutcome> tile_p(grid.tile_count());
  std::vector<DetectionOutcome> tile_n(legs == 2 ? grid.tile_count() : 0);
  grid.for_each_tile([&](const TileSpan& span) {
    tile_p[span.index] = detect(store.tile(span.ti, span.tj));
    if (legs == 2) {
      tile_n[span.index] = detect(store.tile_n(span.ti, span.tj));
    }
  });
  for (std::size_t t = 0; t < grid.tile_count(); ++t) {
    const TileSpan span = grid.span(t);
    for (std::size_t r = 0; r < span.rows; ++r) {
      for (std::size_t c = 0; c < span.cols; ++c) {
        const std::size_t pr = span.row0 + r, pc = span.col0 + c;
        const FaultKind pp = tile_p[t].predicted.at(r, c);
        const FaultKind pn =
            legs == 2 ? tile_n[t].predicted.at(r, c) : FaultKind::kNone;
        out.predicted.set(pr, pc, pp != FaultKind::kNone ? pp : pn);
        if (!classify) continue;
        // Truth merge mirrors CrossbarWeightStore::true_fault: hard > soft
        // > none, G_p leg breaks ties.
        const FaultKind tp = tile_p[t].truth_before.at(r, c);
        const FaultKind tn = legs == 2 ? tile_n[t].truth_before.at(r, c)
                                       : FaultKind::kNone;
        out.truth_before.set(
            pr, pc,
            fault_is_hard(tp) ? tp
            : fault_is_hard(tn) ? tn
            : (tp != FaultKind::kNone ? tp : tn));
        // The weight is only transiently impaired if every leg that tripped
        // the detector was classified soft — one hard leg pins it for good.
        const bool p_pred = pp != FaultKind::kNone;
        const bool n_pred = pn != FaultKind::kNone;
        const bool p_soft = p_pred && tile_p[t].classified_soft.faulty(r, c);
        const bool n_soft = n_pred && tile_n[t].classified_soft.faulty(r, c);
        if ((p_pred || n_pred) && (!p_pred || p_soft) && (!n_pred || n_soft)) {
          out.classified_soft.set(pr, pc,
                                  p_pred
                                      ? tile_p[t].classified_soft.at(r, c)
                                      : tile_n[t].classified_soft.at(r, c));
        }
      }
    }
    out.cycles += tile_p[t].cycles;
    out.cells_tested += tile_p[t].cells_tested;
    out.device_writes += tile_p[t].device_writes;
    out.adc_reads += tile_p[t].adc_reads;
    out.cells_retested += tile_p[t].cells_retested;
    if (legs == 2) {
      out.cycles += tile_n[t].cycles;
      out.cells_tested += tile_n[t].cells_tested;
      out.device_writes += tile_n[t].device_writes;
      out.adc_reads += tile_n[t].adc_reads;
      out.cells_retested += tile_n[t].cells_retested;
    }
  }
  static obs::Counter rounds_metric =
      obs::MetricsRegistry::instance().counter("detector.rounds", "rounds");
  rounds_metric.add();
  // Per-store detection event (the engine emits the per-round aggregate).
  // Serial — the tile fan-out has already joined — so event order is
  // deterministic at any thread count.
  std::uint64_t predicted_faults = 0;
  for (std::size_t r = 0; r < out.predicted.rows(); ++r) {
    for (std::size_t c = 0; c < out.predicted.cols(); ++c) {
      if (out.predicted.faulty(r, c)) ++predicted_faults;
    }
  }
  obs::EventLog::global().emit(
      obs::EventKind::kFaultDetected, obs::EventSeverity::kInfo, "store",
      {{"cells_tested", static_cast<double>(out.cells_tested)},
       {"predicted_faults", static_cast<double>(predicted_faults)},
       {"cycles", static_cast<double>(out.cycles)},
       {"device_writes", static_cast<double>(out.device_writes)}});
  store.invalidate();
  return out;
}

ClassifiedConfusion evaluate_classified(const DetectionOutcome& out) {
  REFIT_CHECK_MSG(out.truth_before.rows() == out.predicted.rows() &&
                      out.truth_before.cols() == out.predicted.cols(),
                  "evaluate_classified needs a classify_soft outcome");
  ClassifiedConfusion cc;
  for (std::size_t r = 0; r < out.predicted.rows(); ++r) {
    for (std::size_t c = 0; c < out.predicted.cols(); ++c) {
      const FaultKind truth = out.truth_before.at(r, c);
      const bool pred_soft = out.classified_soft.faulty(r, c);
      const bool pred_hard = out.predicted.faulty(r, c) && !pred_soft;
      cc.hard.add(fault_is_hard(truth), pred_hard);
      cc.soft.add(fault_is_soft(truth), pred_soft);
    }
  }
  return cc;
}

ConfusionCounts evaluate_detection(const Crossbar& xbar,
                                   const FaultMatrix& predicted) {
  REFIT_CHECK(predicted.rows() == xbar.rows() &&
              predicted.cols() == xbar.cols());
  ConfusionCounts cc;
  for (std::size_t r = 0; r < xbar.rows(); ++r)
    for (std::size_t c = 0; c < xbar.cols(); ++c)
      cc.add(xbar.is_stuck(r, c), predicted.faulty(r, c));
  return cc;
}

ConfusionCounts evaluate_detection(const CrossbarWeightStore& store,
                                   const FaultMatrix& predicted) {
  REFIT_CHECK(predicted.rows() == store.rows() &&
              predicted.cols() == store.cols());
  ConfusionCounts cc;
  for (std::size_t r = 0; r < store.rows(); ++r)
    for (std::size_t c = 0; c < store.cols(); ++c)
      cc.add(store.true_fault(r, c) != FaultKind::kNone,
             predicted.faulty(r, c));
  return cc;
}

void randomize_crossbar_content(Crossbar& xbar, double p_low, double p_high,
                                Rng& rng) {
  REFIT_CHECK(p_low >= 0.0 && p_high >= 0.0 && p_low + p_high <= 1.0);
  const std::size_t levels = xbar.config().levels;
  const double gap = xbar.config().level_gap();
  for (std::size_t r = 0; r < xbar.rows(); ++r) {
    for (std::size_t c = 0; c < xbar.cols(); ++c) {
      const double u = rng.uniform();
      std::size_t level = 0;
      if (u < p_low) {
        level = 0;
      } else if (u < p_low + p_high) {
        level = levels - 1;
      } else if (levels > 2) {
        level = 1 + rng.uniform_index(levels - 2);
      }
      xbar.write(r, c, static_cast<double>(level) * gap);
    }
  }
}

}  // namespace refit
