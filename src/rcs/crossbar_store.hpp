// CrossbarWeightStore — a WeightStore backed by RRAM crossbar tiles (S5).
//
// Mapping model (DESIGN.md §5): a logical weight matrix W [fan_in, fan_out]
// is partitioned onto a grid of crossbar tiles (default 128×128). How a
// weight becomes conductance(s) is the CellEncoding seam
// (device/cell_encoding.hpp):
//   - kSingleCell (the paper's model, default): the magnitude as one
//     conductance scaled by the layer's weight_max; the sign lives in a
//     peripheral register (CMOS, never faulty). SA0 pins the effective
//     weight to 0 — which is why pruned (zero) weights can be re-mapped
//     onto SA0 cells for free; SA1 pins it to ±weight_max (sign
//     preserved). Bit-identical to the pre-seam store.
//   - kDifferentialPair: two tile planes (G_p and G_n legs, identical
//     geometry); w = (g_p − g_n)·weight_max, no sign register, a stuck-at
//     fault pins one leg.
// Every leg's plane lives in one plane-major tile list: tile t of plane
// `leg` is tiles_[leg·tile_count + t].
// Time-dependent effects (drift, transient soft faults) come from the
// DeviceNoiseModel (device/noise_model.hpp) through tick_noise().
// The read-out panel follows each tile's mutation count and the counters
// sum the tiles, so a tile mutated through tile() needs no store call.
//
// The tile geometry lives in a TileGrid (rcs/tile_grid.hpp) and the
// logical↔physical permutations in a LogicalMapping
// (rcs/logical_mapping.hpp); the store owns the device state (tiles) and
// the off-chip copies, and composes the two. The re-mapping engine only
// installs permutations that correspond to neuron re-orderings (paper
// §5.2), so no extra routing is implied; changing the permutation
// rewrites the cells whose logical owner moved (a real write cost,
// counted against endurance).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "device/cell_encoding.hpp"
#include "device/noise_model.hpp"
#include "nn/weight_store.hpp"
#include "rcs/logical_mapping.hpp"
#include "rcs/tile_grid.hpp"
#include "rram/crossbar.hpp"
#include "rram/fault_map.hpp"
#include "rram/faults.hpp"

namespace refit {

/// Configuration for crossbar-backed weight storage.
struct RcsConfig {
  /// Tile geometry (edge tiles shrink to fit the matrix).
  std::size_t tile_rows = 128;
  std::size_t tile_cols = 128;
  /// Cell resistance levels (paper uses 8-level MLC, ref. [17]).
  std::size_t levels = 8;
  /// Analog write perturbation (fraction of the conductance range).
  double write_noise_sigma = 0.02;
  /// IR-drop wire-resistance ratio forwarded to every tile (see
  /// CrossbarConfig::wire_resistance_ratio); 0 disables the model.
  double wire_resistance_ratio = 0.0;
  /// Write-endurance distribution; unlimited() disables wear-out.
  EnduranceModel endurance = EnduranceModel::unlimited();
  /// Fabrication defects injected at construction when true.
  bool inject_fabrication = true;
  FaultInjectionConfig fabrication{};
  /// Weight→conductance mapping (device/cell_encoding.hpp).
  EncodingKind encoding = EncodingKind::kSingleCell;
  /// Time-dependent device effects (device/noise_model.hpp); the defaults
  /// disable them all, so tick_noise() is a no-op unless configured.
  DeviceNoiseConfig noise{};
};

/// Weight matrix on RRAM crossbar tiles.
class CrossbarWeightStore final : public WeightStore {
 public:
  CrossbarWeightStore(const RcsConfig& cfg, Tensor init, Rng rng);

  // ---- WeightStore interface -------------------------------------------
  [[nodiscard]] const Shape& shape() const override { return target_.shape(); }
  /// Unpacked copy of the read-out panel (see forward_matmul).
  [[nodiscard]] Tensor effective() override;
  /// Re-pack every stale tile of the read-out panel.
  void prepare_forward() override { refresh_packed_effective(); }
  [[nodiscard]] const Tensor& target() const override { return target_; }
  /// Fused faulty forward from the one read-out cache: a panel in the
  /// GEMM's packed layout, decoded from conductances, sign registers and
  /// the mapping, that store writes update in place; only tiles mutated
  /// out of band re-pack. Same micro-kernel as matmul(x, effective()), so
  /// the result is bit-identical to it at any thread count and permutation.
  [[nodiscard]] Tensor forward_matmul(const Tensor& x) override;
  /// The fused update pass, one item per tile (program_tile): each hosted
  /// row's runs of consecutive logical columns pass filter_update_run
  /// (mask, threshold with wear-leveling, fault skip), then the programmed
  /// cells clamp, encode, write and write through.
  [[nodiscard]] std::unique_ptr<UpdateItems> split_update(
      const Tensor& delta, const UpdatePolicy& policy) override;
  void assign(const Tensor& w) override;
  /// Device writes landed on every tile (sums the tiles).
  [[nodiscard]] std::uint64_t write_count() const override {
    return sum_tiles(&Crossbar::total_writes);
  }
  /// Checkpointing through the WeightStore seam: the off-chip targets,
  /// physical permutations and every tile's device state. restore_state()
  /// overwrites this store in place (engine resume keeps the network's
  /// store pointers intact) and rejects, before reading any tile, a
  /// checkpoint of another shape, tile geometry, level count or encoding.
  void save_state(std::ostream& os) const override;
  void restore_state(std::istream& is) override;

  // ---- Geometry ----------------------------------------------------------
  [[nodiscard]] std::size_t rows() const { return target_.dim(0); }
  [[nodiscard]] std::size_t cols() const { return target_.dim(1); }
  [[nodiscard]] const TileGrid& grid() const { return grid_; }
  [[nodiscard]] std::size_t tile_grid_rows() const {
    return grid_.grid_rows();
  }
  [[nodiscard]] std::size_t tile_grid_cols() const {
    return grid_.grid_cols();
  }
  /// Tile (ti, tj) of plane `leg` (0 = the single/G_p plane, 1 = the G_n
  /// plane).
  [[nodiscard]] Crossbar& tile(std::size_t ti, std::size_t tj,
                               std::size_t leg = 0);
  [[nodiscard]] const Crossbar& tile(std::size_t ti, std::size_t tj,
                                     std::size_t leg = 0) const;
  [[nodiscard]] const RcsConfig& config() const { return cfg_; }
  [[nodiscard]] double weight_max() const { return weight_max_; }
  [[nodiscard]] const CellEncoding& encoding() const { return *enc_; }
  /// Physical cells per logical weight (1 or 2).
  [[nodiscard]] std::size_t legs() const { return enc_->legs(); }

  // ---- Physical-space views (used by the on-line detector) --------------
  /// Conductance the store last targeted for the physical cell (r, c) on
  /// `leg` (0 = the single/G_p plane, 1 = the G_n plane).
  [[nodiscard]] double expected_g(std::size_t r, std::size_t c,
                                  std::size_t leg = 0) const;
  /// Ground-truth fault of the physical cell, merged across legs by
  /// merge_leg_faults (for detector evaluation).
  [[nodiscard]] FaultKind true_fault(std::size_t r, std::size_t c) const;
  /// Assembled ground-truth fault matrix (physical space).
  [[nodiscard]] FaultMatrix true_fault_matrix() const;

  // ---- Permutations (re-mapping) ----------------------------------------
  /// Install logical→physical permutations; rewrites moved cells.
  void set_permutations(std::vector<std::size_t> row_perm,
                        std::vector<std::size_t> col_perm);
  [[nodiscard]] const LogicalMapping& mapping() const { return map_; }
  [[nodiscard]] const std::vector<std::size_t>& row_perm() const {
    return map_.row_perm();
  }
  [[nodiscard]] const std::vector<std::size_t>& col_perm() const {
    return map_.col_perm();
  }

  // ---- Bookkeeping -------------------------------------------------------
  /// Device writes issued so far for the *logical* cell (i, j) — i.e. the
  /// writes accumulated by whatever physical cell currently hosts it.
  [[nodiscard]] std::uint64_t cell_write_count(std::size_t i,
                                               std::size_t j) const;
  [[nodiscard]] double fault_fraction() const;
  /// Faulty physical cells and the wear-out subset, summed from the tiles'
  /// own totals (O(tiles × legs)).
  [[nodiscard]] std::size_t fault_count() const {
    return sum_tiles(&Crossbar::fault_count);
  }
  [[nodiscard]] std::size_t wearout_fault_count() const {
    return sum_tiles(&Crossbar::wearout_fault_count);
  }
  /// Logical weight count.
  [[nodiscard]] std::size_t cell_count() const { return rows() * cols(); }
  /// Physical device cells backing those weights (logical × legs()).
  [[nodiscard]] std::size_t physical_cell_count() const {
    return cell_count() * legs();
  }

  /// The "read RRAM values, store off-chip" step of the paper's Fig. 3,
  /// for the logical weights currently hosted on cells flagged in
  /// `physical_faults`. Pure read — costs no device writes. Healthy
  /// weights keep their full-precision off-chip accumulation; fault-hosted
  /// weights collapse to what the device actually computes (0 for SA0,
  /// ±weight_max for SA1), so a later re-mapping relocates real values
  /// instead of stale garbage and magnitude pruning naturally reuses SA0
  /// cells as zeros.
  void sync_targets_where(const FaultMatrix& physical_faults);

  /// Advance device time by one tick: soft faults decay, conductances
  /// drift, and new transient faults may strike (device/noise_model.hpp).
  /// No-op unless cfg().noise.active(). Tile-parallel with per-tile RNG
  /// streams salted by (tick, tile, leg) — deterministic at any thread
  /// count.
  void tick_noise();
  /// Device-time ticks issued so far (serialized with the store).
  [[nodiscard]] std::uint64_t noise_ticks() const { return noise_ticks_; }

 private:
  /// Totals of one write pass.
  struct WriteTally {
    UpdateStats update;        ///< what the select callbacks recorded
    std::uint64_t cells = 0;   ///< cells programmed
    std::uint64_t writes = 0;  ///< device writes that landed
    std::size_t wearout = 0;   ///< cells the pass wore out
    WriteTally& operator+=(const WriteTally& o);
  };
  /// split_update's items, one per tile (defined in the .cpp).
  class TileUpdates;
  /// The logical columns one tile hosts, sorted: a serial logical
  /// row-major sweep's order.
  struct HostedCols {
    std::vector<std::size_t> lj;  ///< logical column at position p
    std::vector<std::size_t> lc;  ///< tile-local physical column of lj[p]
    /// Start positions of the maximal runs of consecutive lj, then
    /// lj.size(): run r is positions [runs[r], runs[r + 1]).
    std::vector<std::size_t> runs;
  };

  /// The one per-cell write loop, over one tile: it visits the tile's
  /// hosted logical rows sorted and, in each, the cells that
  /// `select_row(hc, xs, i, lr, pos, stats)` names — `xs` the tile on each
  /// leg plane. The selector may update target_(i, hc.lj[p]), writes the
  /// positions p to program to `pos` (room for hc.lj.size()) ascending,
  /// and returns their count. So the tile's bits follow a serial logical
  /// row-major sweep's order, whichever lane runs it and whatever runs
  /// beside it. If the tile's panel block was current at the start,
  /// programmed cells are written through. Writes only this tile's state.
  template <class SelectRow>
  WriteTally program_tile(const TileSpan& span, const SelectRow& select_row);
  /// program_tile over every tile, one pool lane per tile, programming the
  /// cells (i, j) with select(i, j) true; tallies summed in tile order.
  template <class Select>
  WriteTally program_tiles(const Select& select);
  /// Add a pass's writes to the store.* metrics.
  static void publish(const WriteTally& t);
  /// Effective weight of one cell of the tile whose leg planes are
  /// xs[0..legs-1], read back through the encoding — the decode shared by
  /// the re-pack and the write-through.
  [[nodiscard]] float read_cell(const Crossbar* const* xs, std::size_t legs,
                                std::size_t lr, std::size_t lc,
                                float target) const;
  /// Re-read the tile covering `span` into the packed GEMM panels.
  void pack_tile(const TileSpan& span);
  /// One per-tile total (a Crossbar getter) summed over every plane.
  template <class Total>
  [[nodiscard]] std::uint64_t sum_tiles(Total total) const {
    std::uint64_t n = 0;
    for (const Crossbar& t : tiles_) n += (t.*total)();
    return n;
  }
  /// Is tile `t`'s panel block current on every leg?
  [[nodiscard]] bool packed_current(std::size_t t) const;
  /// Record tile `t`'s leg counts: its panel block is current.
  void mark_packed(std::size_t t);
  /// Bring packed_eff_ up to date, repacking only stale tiles.
  void refresh_packed_effective();

  RcsConfig cfg_;
  /// The configured encoding singleton (device/cell_encoding.hpp); set in
  /// the ctor, never null afterwards.
  const CellEncoding* enc_ = nullptr;
  Tensor target_;
  double weight_max_ = 1.0;
  TileGrid grid_;
  LogicalMapping map_;
  /// legs() planes of grid_.tile_count() tiles each, plane-major.
  std::vector<Crossbar> tiles_;
  /// Device-time noise state (tick_noise); serialized for bit-exact resume.
  Rng noise_rng_{0};
  std::uint64_t noise_ticks_ = 0;
  /// The one read-out cache: the effective weights in the packed panel
  /// layout of tensor/gemm.hpp, kept current by write-through.
  std::vector<float> packed_eff_;
  /// Each tile's Crossbar::mutations() when its panel block was last made
  /// current, plane-major like tiles_; kStale forces a re-pack. A lane
  /// records only its own tiles' entries.
  std::vector<std::uint64_t> packed_at_;
  static constexpr std::uint64_t kStale = ~std::uint64_t{0};
};

}  // namespace refit
