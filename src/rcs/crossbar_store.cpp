// Crossbar-tile-backed WeightStore (see crossbar_store.hpp).
#include "rcs/crossbar_store.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <utility>

#include "common/serialize.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/gemm.hpp"

namespace refit {

namespace {

// Process-global telemetry shared by every store instance (catalogue in
// docs/observability.md). The handles are function-local statics at the
// call sites; increments are relaxed atomics, safe from pool lanes.

double rms(const Tensor& t) {
  double s = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const double v = t[i];
    s += v * v;
  }
  return std::sqrt(s / static_cast<double>(std::max<std::size_t>(1, t.numel())));
}

/// weight_max = this multiple × RMS(initial weights); weights clip there.
constexpr double kWeightClipMultiplier = 4.0;

/// Scalar-op units of one cell write (encode, endurance bookkeeping, a
/// Gaussian noise draw, the panel write-through) for the pool's grain: a
/// full 128×128 tile amortizes a lane, so write passes run one lane per
/// tile.
constexpr std::size_t kWriteCost = 4;

}  // namespace

CrossbarWeightStore::CrossbarWeightStore(const RcsConfig& cfg, Tensor init,
                                         Rng rng)
    : cfg_(cfg),
      enc_(&CellEncoding::of(cfg.encoding)),
      target_(std::move(init)) {
  REFIT_CHECK_MSG(target_.rank() == 2, "crossbar store needs a 2-D matrix");
  REFIT_CHECK(cfg_.tile_rows > 0 && cfg_.tile_cols > 0);
  const std::size_t r = rows(), c = cols();
  weight_max_ = std::max(1e-6, kWeightClipMultiplier * rms(target_));

  grid_ = TileGrid(r, c, cfg_.tile_rows, cfg_.tile_cols);
  const std::size_t tile_count = grid_.tile_count();
  const auto make_config = [&](const TileSpan& span) {
    CrossbarConfig xc;
    xc.rows = span.rows;
    xc.cols = span.cols;
    xc.levels = cfg_.levels;
    // Programming noise from the device model stacks on the intrinsic
    // write variance; both default-zero paths keep today's bits.
    xc.write_noise_sigma = cfg_.write_noise_sigma + cfg_.noise.program_sigma;
    xc.wire_resistance_ratio = cfg_.wire_resistance_ratio;
    return xc;
  };
  // A later plane's seeds continue past the earlier planes' (split() is
  // pure, so the extra draws cannot perturb the single-leg stream).
  const std::size_t total_tiles = legs() * tile_count;
  tiles_.reserve(total_tiles);
  for (std::size_t k = 0; k < total_tiles; ++k) {
    tiles_.emplace_back(make_config(grid_.span(k % tile_count)),
                        cfg_.endurance, rng.split(k + 1));
  }
  noise_rng_ = rng.split(0x6e6f6973ULL);  // "nois"

  if (cfg_.inject_fabrication && cfg_.fabrication.fraction > 0.0) {
    Rng fab_rng = rng.split(0xfabfabULL);
    // Salt by tile index (NOT the tile's heap address, which made fault
    // patterns irreproducible across stores built from the same seed).
    for (std::size_t k = 0; k < tiles_.size(); ++k) {
      Rng tile_rng = fab_rng.split(k + 1);
      inject_fabrication_faults(tiles_[k], cfg_.fabrication, tile_rng);
    }
  }

  map_ = LogicalMapping(r, c);
  // Zero-filled once: tail panel lanes past the last column are never
  // touched by any tile and must stay zero for the micro-kernel.
  packed_eff_.assign(gemm::packed_size(r, c), 0.0f);
  packed_at_.assign(total_tiles, kStale);

  // Program the initial weights onto the chip (identity permutations).
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      target_.at(i, j) = std::clamp(target_.at(i, j),
                                    -static_cast<float>(weight_max_),
                                    static_cast<float>(weight_max_));
    }
  }
  (void)program_tiles([](std::size_t, std::size_t) { return true; });
}

Crossbar& CrossbarWeightStore::tile(std::size_t ti, std::size_t tj,
                                    std::size_t leg) {
  REFIT_CHECK(ti < grid_.grid_rows() && tj < grid_.grid_cols() &&
              leg < legs());
  return tiles_[leg * grid_.tile_count() + grid_.index_of(ti, tj)];
}

const Crossbar& CrossbarWeightStore::tile(std::size_t ti, std::size_t tj,
                                          std::size_t leg) const {
  REFIT_CHECK(ti < grid_.grid_rows() && tj < grid_.grid_cols() &&
              leg < legs());
  return tiles_[leg * grid_.tile_count() + grid_.index_of(ti, tj)];
}

CrossbarWeightStore::WriteTally& CrossbarWeightStore::WriteTally::operator+=(
    const WriteTally& o) {
  update += o.update;
  cells += o.cells;
  writes += o.writes;
  wearout += o.wearout;
  return *this;
}

template <class SelectRow>
CrossbarWeightStore::WriteTally CrossbarWeightStore::program_tile(
    const TileSpan& span, const SelectRow& select_row) {
  const std::size_t k = rows();
  const std::size_t legs = this->legs(), tile_count = grid_.tile_count();
  Crossbar* xs[kMaxEncodingLegs] = {};
  // The pass's writes and wear-outs are this tile's totals after the pass
  // minus before it (unsigned wrap-around cancels in between).
  WriteTally tally;
  for (std::size_t leg = 0; leg < legs; ++leg) {
    xs[leg] = &tiles_[leg * tile_count + span.index];
    tally.writes -= xs[leg]->total_writes();
    tally.wearout -= xs[leg]->wearout_fault_count();
  }
  // The tile hosts the product of these logical rows and columns; sorted,
  // they replay the order of a serial logical row-major sweep.
  std::vector<std::size_t> li(span.rows);
  for (std::size_t lr = 0; lr < span.rows; ++lr)
    li[lr] = map_.logical_row(span.row0 + lr);
  std::sort(li.begin(), li.end());
  HostedCols hc;
  hc.lj.resize(span.cols);
  hc.lc.resize(span.cols);
  for (std::size_t lc = 0; lc < span.cols; ++lc)
    hc.lj[lc] = map_.logical_col(span.col0 + lc);
  std::sort(hc.lj.begin(), hc.lj.end());
  for (std::size_t p = 0; p < span.cols; ++p) {
    hc.lc[p] = map_.physical_col(hc.lj[p]) - span.col0;
    if (p == 0 || hc.lj[p] != hc.lj[p - 1] + 1) hc.runs.push_back(p);
  }
  hc.runs.push_back(span.cols);
  std::vector<std::uint32_t> pos(span.cols);
  // Write-through keeps a current tile's panel entries current; a stale
  // tile is re-packed whole before the next read anyway.
  const bool through = packed_current(span.index);
  double g[kMaxEncodingLegs] = {};
  for (const std::size_t i : li) {
    const std::size_t lr = map_.physical_row(i) - span.row0;
    const std::size_t count =
        select_row(hc, xs, i, lr, pos.data(), tally.update);
    tally.cells += count;
    for (std::size_t n = 0; n < count; ++n) {
      const std::size_t j = hc.lj[pos[n]], lc = hc.lc[pos[n]];
      const float target = target_.at(i, j);
      enc_->encode(target, weight_max_, g);
      for (std::size_t leg = 0; leg < legs; ++leg)
        xs[leg]->write(lr, lc, g[leg]);
      // Re-decoded even when a stuck cell suppressed the write: the
      // single-cell sign register follows the target.
      if (through) {
        packed_eff_[gemm::packed_index(k, i, j)] =
            read_cell(xs, legs, lr, lc, target);
      }
    }
  }
  for (std::size_t leg = 0; leg < legs; ++leg) {
    tally.writes += xs[leg]->total_writes();
    tally.wearout += xs[leg]->wearout_fault_count();
  }
  if (through) mark_packed(span.index);
  return tally;
}

template <class Select>
CrossbarWeightStore::WriteTally CrossbarWeightStore::program_tiles(
    const Select& select) {
  const auto select_row = [&select](const HostedCols& hc, Crossbar* const*,
                                    std::size_t i, std::size_t,
                                    std::uint32_t* pos, UpdateStats&) {
    std::size_t count = 0;
    for (std::size_t p = 0; p < hc.lj.size(); ++p)
      if (select(i, hc.lj[p])) pos[count++] = static_cast<std::uint32_t>(p);
    return count;
  };
  std::vector<WriteTally> per_tile(grid_.tile_count());
  grid_.for_each_tile(
      [&](const TileSpan& span) {
        per_tile[span.index] = program_tile(span, select_row);
      },
      kWriteCost);
  WriteTally total;
  for (const WriteTally& t : per_tile) total += t;
  return total;
}

void CrossbarWeightStore::publish(const WriteTally& t) {
  static obs::Counter writes_metric =
      obs::MetricsRegistry::instance().counter("store.writes", "writes");
  static obs::Counter wearout_metric = obs::MetricsRegistry::instance().counter(
      "store.wearout_faults", "faults");
  writes_metric.add(t.writes);
  wearout_metric.add(t.wearout);
}

float CrossbarWeightStore::read_cell(const Crossbar* const* xs,
                                     std::size_t legs, std::size_t lr,
                                     std::size_t lc, float target) const {
  // The compute path is analog: each leg's contribution includes its
  // IR-drop attenuation (identity when the model is disabled). The decode
  // undoes the encoding — single-cell reapplies the peripheral sign
  // register (SA1 cells saturate at ±weight_max, SA0 read as 0);
  // differential subtracts the legs.
  double g[kMaxEncodingLegs] = {};
  for (std::size_t leg = 0; leg < legs; ++leg)
    g[leg] = xs[leg]->effective_conductance(lr, lc);
  return enc_->decode(g, target, weight_max_);
}

Tensor CrossbarWeightStore::effective() {
  refresh_packed_effective();
  const std::size_t k = rows(), n = cols();
  Tensor w({k, n});
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < n; ++j)
      w.at(i, j) = packed_eff_[gemm::packed_index(k, i, j)];
  return w;
}

bool CrossbarWeightStore::packed_current(std::size_t t) const {
  for (std::size_t k = t; k < tiles_.size(); k += grid_.tile_count())
    if (packed_at_[k] != tiles_[k].mutations()) return false;
  return true;
}

void CrossbarWeightStore::mark_packed(std::size_t t) {
  for (std::size_t k = t; k < tiles_.size(); k += grid_.tile_count())
    packed_at_[k] = tiles_[k].mutations();
}

void CrossbarWeightStore::tick_noise() {
  if (!cfg_.noise.active()) return;
  ++noise_ticks_;
  const DeviceNoiseModel model(cfg_.noise);
  // One child stream per (tick, tile, leg): split() is pure, so lanes can
  // tick tiles in any order and the device trajectory stays identical.
  const Rng tick_rng = noise_rng_.split(noise_ticks_);
  static obs::Counter ticks_metric =
      obs::MetricsRegistry::instance().counter("device.ticks", "ticks");
  ticks_metric.add();
  const std::size_t legs = this->legs(), tile_count = grid_.tile_count();
  grid_.for_each_tile([&](const TileSpan& span) {
    for (std::size_t leg = 0; leg < legs; ++leg) {
      Rng leg_rng = tick_rng.split(span.index * 2 + leg + 1);
      model.tick_tile(tiles_[leg * tile_count + span.index], leg_rng);
    }
  });
}

void CrossbarWeightStore::pack_tile(const TileSpan& span) {
  const std::size_t legs = this->legs();
  const Crossbar* xs[kMaxEncodingLegs] = {};
  for (std::size_t leg = 0; leg < legs; ++leg)
    xs[leg] = &tiles_[leg * grid_.tile_count() + span.index];
  const std::size_t k = rows();
  for (std::size_t lr = 0; lr < span.rows; ++lr) {
    const std::size_t i = map_.logical_row(span.row0 + lr);
    for (std::size_t lc = 0; lc < span.cols; ++lc) {
      const std::size_t j = map_.logical_col(span.col0 + lc);
      // Scattered into the panel slot pack_b would have put W_eff(i, j) in,
      // so the fused path and matmul(x, effective()) feed the micro-kernel
      // identical bits.
      packed_eff_[gemm::packed_index(k, i, j)] =
          read_cell(xs, legs, lr, lc, target_.at(i, j));
    }
  }
}

void CrossbarWeightStore::refresh_packed_effective() {
  std::vector<std::size_t> stale;
  for (std::size_t t = 0; t < grid_.tile_count(); ++t)
    if (!packed_current(t)) stale.push_back(t);
  if (stale.empty()) return;
  static obs::Counter pack_tiles_metric = obs::MetricsRegistry::instance()
      .counter("store.fused_pack_tiles", "tiles");
  pack_tiles_metric.add(stale.size());
  // Span recorded on the caller only (per-tile timing would land on pool
  // workers and make traces depend on the thread count — the pool's
  // busy_ns counters carry the per-lane breakdown instead).
  obs::TraceSpan span("fused_forward.pack", "rcs");
  grid_.for_each_tile(stale, [&](const TileSpan& s) {
    pack_tile(s);
    mark_packed(s.index);
  });
}

Tensor CrossbarWeightStore::forward_matmul(const Tensor& x) {
  REFIT_CHECK_MSG(x.rank() == 2 && x.dim(1) == rows(),
                  "forward_matmul: bad input " << shape_to_string(x.shape()));
  static obs::Counter calls_metric = obs::MetricsRegistry::instance().counter(
      "store.fused_forward.calls", "calls");
  static obs::Counter flops_metric =
      obs::MetricsRegistry::instance().counter("tensor.gemm.flops", "flop");
  calls_metric.add();
  refresh_packed_effective();
  const std::size_t m = x.dim(0), k = rows(), n = cols();
  flops_metric.add(2 * m * k * n);
  obs::TraceSpan span("fused_forward", "rcs");
  Tensor y({m, n});
  // Same zero-skip contract as matmul(): the comparison path the tests pin
  // this against, matmul(x, effective()), skips zero activations too.
  gemm::run(m, k, n, x.data(), k, packed_eff_.data(), y.data(), n,
            /*zero_skip=*/true);
  return y;
}

/// One item per tile, all legs together; the tallies are summed in tile
/// order and published by finish().
class CrossbarWeightStore::TileUpdates final : public UpdateItems {
 public:
  TileUpdates(CrossbarWeightStore& store, const Tensor& delta,
              const UpdatePolicy& policy, double mean_writes)
      : store_(store),
        delta_(delta),
        policy_(policy),
        mean_writes_(mean_writes),
        tallies_(store.grid_.tile_count()) {}

  [[nodiscard]] std::size_t count() const override { return tallies_.size(); }
  [[nodiscard]] std::size_t cost(std::size_t k) const override {
    const TileSpan span = store_.grid_.span(k);
    return span.rows * span.cols * store_.legs() * kWriteCost;
  }
  void run(std::size_t k) override {
    const TileSpan span = store_.grid_.span(k);
    // The item's row buffers, indexed by position in the sorted hosted
    // columns; sized once here, not per row.
    RowBuffers buf;
    buf.d.resize(span.cols);
    if (policy_.skip != nullptr) buf.skip.resize(span.cols);
    if (mean_writes_ > 0.0) buf.thr.resize(span.cols);
    tallies_[k] = store_.program_tile(
        span, [&](const HostedCols& hc, Crossbar* const* xs, std::size_t i,
                  std::size_t lr, std::uint32_t* pos, UpdateStats& st) {
          return filter_row(span, hc, xs, i, lr, buf, pos, st);
        });
  }
  UpdateStats finish() override {
    WriteTally total;
    for (const WriteTally& t : tallies_) total += t;
    publish(total);
    return total.update;
  }

 private:
  struct RowBuffers {
    std::vector<float> d;            ///< applied deltas
    std::vector<std::uint8_t> skip;  ///< detected-fault bytes, gathered
    std::vector<double> thr;         ///< wear-leveled thresholds, gathered
  };

  /// Algorithm 1's filter over hosted row i (tile-local physical row lr):
  /// gathers the inputs indexed by physical cell, runs filter_update_run
  /// over each run of consecutive logical columns and adds each programmed
  /// cell's nonzero delta to its clamped target.
  std::size_t filter_row(const TileSpan& span, const HostedCols& hc,
                         Crossbar* const* xs, std::size_t i, std::size_t lr,
                         RowBuffers& buf, std::uint32_t* pos,
                         UpdateStats& st) const {
    const std::size_t n = store_.cols(), m = hc.lj.size();
    if (!buf.skip.empty()) {
      const std::uint8_t* row =
          policy_.skip + (span.row0 + lr) * n + span.col0;
      for (std::size_t p = 0; p < m; ++p) buf.skip[p] = row[hc.lc[p]];
    }
    // Wear-leveling compares each leg's own write count with the mean per
    // physical cell; a row's cells are read before any of them is written.
    if (!buf.thr.empty()) {
      for (std::size_t p = 0; p < m; ++p) {
        std::uint64_t w = 0;
        for (std::size_t leg = 0; leg < store_.legs(); ++leg)
          w = std::max(w, xs[leg]->write_count(lr, hc.lc[p]));
        const double ratio = static_cast<double>(w) / mean_writes_;
        buf.thr[p] = policy_.threshold *
                     (1.0 + policy_.wear_beta * std::max(0.0, ratio - 1.0));
      }
    }
    const float* g = delta_.data() + i * n;
    const std::uint8_t* pruned =
        policy_.pruned != nullptr ? policy_.pruned + i * n : nullptr;
    std::size_t count = 0;
    for (std::size_t r = 0; r + 1 < hc.runs.size(); ++r) {
      const std::size_t p0 = hc.runs[r], j0 = hc.lj[p0];
      UpdateRun run;
      run.g = g + j0;
      run.pruned = pruned != nullptr ? pruned + j0 : nullptr;
      run.skip = buf.skip.empty() ? nullptr : buf.skip.data() + p0;
      run.thr = buf.thr.empty() ? nullptr : buf.thr.data() + p0;
      run.n = hc.runs[r + 1] - p0;
      count += filter_update_run(policy_, run, buf.d.data() + p0, pos + count,
                                 static_cast<std::uint32_t>(p0), st);
    }
    const auto wmax = static_cast<float>(store_.weight_max_);
    for (std::size_t c = 0; c < count; ++c) {
      const float d = buf.d[pos[c]];
      if (d != 0.0f) {
        float& t = store_.target_.at(i, hc.lj[pos[c]]);
        t = std::clamp(t + d, -wmax, wmax);
      }
    }
    return count;
  }

  CrossbarWeightStore& store_;
  const Tensor& delta_;
  const UpdatePolicy policy_;
  /// Mean writes per physical cell at split time; 0 disables wear-leveling.
  const double mean_writes_;
  std::vector<WriteTally> tallies_;
};

std::unique_ptr<UpdateItems> CrossbarWeightStore::split_update(
    const Tensor& delta, const UpdatePolicy& policy) {
  REFIT_CHECK_MSG(delta.shape() == target_.shape(),
                  "delta shape mismatch in CrossbarWeightStore");
  // The wear-leveling mean per physical cell (write_count() counts both
  // legs of a pair), taken here, before any tile is written.
  const double mean_writes =
      policy.wear_beta > 0.0
          ? static_cast<double>(write_count()) /
                static_cast<double>(
                    std::max<std::size_t>(1, physical_cell_count()))
          : 0.0;
  return std::make_unique<TileUpdates>(*this, delta, policy, mean_writes);
}

void CrossbarWeightStore::assign(const Tensor& w) {
  REFIT_CHECK_MSG(w.shape() == target_.shape(),
                  "assign shape mismatch in CrossbarWeightStore");
  const float wmax = static_cast<float>(weight_max_);
  publish(program_tiles([&](std::size_t i, std::size_t j) {
    const float nv = std::clamp(w.at(i, j), -wmax, wmax);
    if (nv == target_.at(i, j)) return false;
    target_.at(i, j) = nv;
    return true;
  }));
}

double CrossbarWeightStore::expected_g(std::size_t r, std::size_t c,
                                       std::size_t leg) const {
  REFIT_CHECK(leg < legs());
  const std::size_t i = map_.logical_row(r);
  const std::size_t j = map_.logical_col(c);
  double g[kMaxEncodingLegs];
  enc_->encode(target_.at(i, j), weight_max_, g);
  return g[leg];
}

FaultKind CrossbarWeightStore::true_fault(std::size_t r, std::size_t c) const {
  const TileGrid::Coord tc = grid_.locate(r, c);
  // Walks the planes by stride: true_fault() runs once per cell.
  FaultKind f[kMaxEncodingLegs] = {};
  std::size_t legs = 0;
  for (std::size_t k = tc.tile; k < tiles_.size(); k += grid_.tile_count())
    f[legs++] = tiles_[k].fault(tc.lr, tc.lc);
  return merge_leg_faults(f, legs);
}

FaultMatrix CrossbarWeightStore::true_fault_matrix() const {
  FaultMatrix fm(rows(), cols());
  for (std::size_t r = 0; r < rows(); ++r)
    for (std::size_t c = 0; c < cols(); ++c) fm.set(r, c, true_fault(r, c));
  return fm;
}

void CrossbarWeightStore::sync_targets_where(
    const FaultMatrix& physical_faults) {
  REFIT_CHECK(physical_faults.rows() == rows() &&
              physical_faults.cols() == cols());
  const Tensor eff = effective();
  for (std::size_t i = 0; i < rows(); ++i) {
    for (std::size_t j = 0; j < cols(); ++j) {
      const std::size_t r = map_.physical_row(i), c = map_.physical_col(j);
      if (physical_faults.faulty(r, c)) {
        target_.at(i, j) = eff.at(i, j);
        // Only the target moved, not a tile count: a stale plane-0 entry
        // forces the tile's re-pack.
        packed_at_[grid_.locate(r, c).tile] = kStale;
      }
    }
  }
}

void CrossbarWeightStore::set_permutations(std::vector<std::size_t> row_perm,
                                           std::vector<std::size_t> col_perm) {
  const std::vector<std::size_t> old_rows = map_.row_perm();
  const std::vector<std::size_t> old_cols = map_.col_perm();
  map_.set(std::move(row_perm), std::move(col_perm));

  // Rewrite every cell whose logical owner moved. (Unmoved cells keep their
  // programmed conductance — no endurance is spent on them.) Bijectivity
  // means every physical cell with a new occupant is rewritten here, and
  // the write-through carries each moved weight's panel entry along.
  const WriteTally t =
      program_tiles([&](std::size_t i, std::size_t j) {
        return old_rows[i] != map_.physical_row(i) ||
               old_cols[j] != map_.physical_col(j);
      });
  publish(t);
  obs::EventLog::global().emit(
      obs::EventKind::kRemap, obs::EventSeverity::kInfo, "store",
      {{"rows", static_cast<double>(rows())},
       {"cols", static_cast<double>(cols())},
       {"cells_rewritten", static_cast<double>(t.cells)}});
}

namespace {
constexpr std::uint64_t kStoreTag = 0x5245464954535452ULL;  // "REFITSTR"
}  // namespace

void CrossbarWeightStore::save_state(std::ostream& os) const {
  ser::write_tag(os, kStoreTag);
  ser::write_pod(os, cfg_);
  write_tensor(os, target_);
  ser::write_pod(os, weight_max_);
  ser::write_pod<std::uint64_t>(os, grid_.grid_rows());
  ser::write_pod<std::uint64_t>(os, grid_.grid_cols());
  map_.save(os);
  // Plane-major like tiles_; the plane count is implied by cfg_.encoding.
  for (const Crossbar& t : tiles_) t.save(os);
  ser::write_pod(os, noise_rng_.state());
  ser::write_pod(os, noise_ticks_);
}

void CrossbarWeightStore::restore_state(std::istream& is) {
  ser::expect_tag(is, kStoreTag);
  const auto cfg = ser::read_pod<RcsConfig>(is);
  REFIT_CHECK_MSG(cfg.tile_rows == cfg_.tile_rows &&
                      cfg.tile_cols == cfg_.tile_cols &&
                      cfg.levels == cfg_.levels &&
                      cfg.encoding == cfg_.encoding,
                  "store checkpoint has another tile geometry, level count "
                  "or encoding");
  Tensor target = read_tensor(is);
  REFIT_CHECK_MSG(target.shape() == target_.shape(),
                  "store checkpoint shape mismatch");
  const auto weight_max = ser::read_pod<double>(is);
  const auto grid_rows = ser::read_pod<std::uint64_t>(is);
  const auto grid_cols = ser::read_pod<std::uint64_t>(is);
  REFIT_CHECK_MSG(grid_rows == grid_.grid_rows() &&
                      grid_cols == grid_.grid_cols(),
                  "corrupt store checkpoint (tile grid)");
  LogicalMapping map = LogicalMapping::load(is);
  REFIT_CHECK_MSG(map.rows() == rows() && map.cols() == cols(),
                  "corrupt store checkpoint (permutations)");
  // Read the rest into locals, committed only once all of it was read and
  // checked: a rejected checkpoint leaves the store unchanged.
  std::vector<Crossbar> tiles = tiles_;
  for (Crossbar& t : tiles) t.restore(is);
  const auto noise_state = ser::read_pod<Rng::State>(is);
  const auto noise_ticks = ser::read_pod<std::uint64_t>(is);
  cfg_ = cfg;
  target_ = std::move(target);
  weight_max_ = weight_max;
  map_ = std::move(map);
  // Each restored tile's mutation count moved, so every panel block is
  // stale and re-packs before the next read.
  tiles_ = std::move(tiles);
  noise_rng_.set_state(noise_state);
  noise_ticks_ = noise_ticks;
}

std::uint64_t CrossbarWeightStore::cell_write_count(std::size_t i,
                                                    std::size_t j) const {
  const TileGrid::Coord tc =
      grid_.locate(map_.physical_row(i), map_.physical_col(j));
  return tiles_[tc.tile].write_count(tc.lr, tc.lc);
}

double CrossbarWeightStore::fault_fraction() const {
  // fault_count() spans every tile plane, so normalize by physical cells
  // (identical to the logical count for single-leg encodings).
  return static_cast<double>(fault_count()) /
         static_cast<double>(physical_cell_count());
}

}  // namespace refit
