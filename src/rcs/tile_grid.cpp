// Tile partitioning geometry and parallel per-tile visitation (tile_grid.hpp).
#include "rcs/tile_grid.hpp"

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace refit {

TileGrid::TileGrid(std::size_t rows, std::size_t cols, std::size_t tile_rows,
                   std::size_t tile_cols)
    : rows_(rows), cols_(cols), tile_rows_(tile_rows), tile_cols_(tile_cols) {
  REFIT_CHECK_MSG(tile_rows_ > 0 && tile_cols_ > 0,
                  "tile geometry must be nonzero");
  grid_rows_ = (rows_ + tile_rows_ - 1) / tile_rows_;
  grid_cols_ = (cols_ + tile_cols_ - 1) / tile_cols_;
}

std::size_t TileGrid::index_of(std::size_t ti, std::size_t tj) const {
  REFIT_DCHECK(ti < grid_rows_ && tj < grid_cols_);
  return ti * grid_cols_ + tj;
}

TileSpan TileGrid::span(std::size_t t) const {
  REFIT_DCHECK(t < tile_count());
  TileSpan s;
  s.index = t;
  s.ti = t / grid_cols_;
  s.tj = t % grid_cols_;
  s.row0 = s.ti * tile_rows_;
  s.col0 = s.tj * tile_cols_;
  s.rows = std::min(tile_rows_, rows_ - s.row0);
  s.cols = std::min(tile_cols_, cols_ - s.col0);
  return s;
}

TileGrid::Coord TileGrid::locate(std::size_t phys_r, std::size_t phys_c) const {
  REFIT_DCHECK(phys_r < rows_ && phys_c < cols_);
  const std::size_t ti = phys_r / tile_rows_;
  const std::size_t tj = phys_c / tile_cols_;
  return Coord{ti * grid_cols_ + tj, phys_r % tile_rows_, phys_c % tile_cols_};
}

void TileGrid::for_each_tile(const TileVisitor& visit,
                             std::size_t work_per_cell) const {
  // Each tile costs its full-tile cell count, so one- or two-tile visits
  // (the sub-millisecond re-packs) run inline on the caller instead of
  // paying the pool handshake.
  const std::vector<std::size_t> cost(tile_count(),
                                      tile_rows_ * tile_cols_ * work_per_cell);
  parallel_for_weighted(cost, [&](std::size_t t) { visit(span(t)); });
}

void TileGrid::for_each_tile(const std::vector<std::size_t>& subset,
                             const TileVisitor& visit) const {
  const std::vector<std::size_t> cost(subset.size(), tile_rows_ * tile_cols_);
  parallel_for_weighted(cost, [&](std::size_t d) { visit(span(subset[d])); });
}

}  // namespace refit
