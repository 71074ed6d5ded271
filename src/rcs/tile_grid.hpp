// TileGrid — the tile partitioning of a 2-D matrix onto fixed-size
// crossbar tiles (edge tiles shrink to fit), shared by every component
// that walks the tiles of a store: the store's write pass and panel
// re-pack, the on-line detector, and the re-mapping engine's write-back.
//
// The grid is pure geometry: it knows where each tile sits inside the
// matrix, not what the tile contains. Its one compute primitive,
// for_each_tile, runs the per-tile visits as the items of one
// parallel_for_weighted job, so visitors that write disjoint per-tile
// output are bit-identical at any thread count (the same guarantee as
// common/thread_pool.hpp).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace refit {

/// One tile's placement inside the matrix.
struct TileSpan {
  std::size_t index = 0;  ///< flat tile index (ti * grid_cols + tj)
  std::size_t ti = 0;     ///< tile-grid row
  std::size_t tj = 0;     ///< tile-grid column
  std::size_t row0 = 0;   ///< physical row of the tile's top-left cell
  std::size_t col0 = 0;   ///< physical column of the tile's top-left cell
  std::size_t rows = 0;   ///< tile extent (edge tiles shrink)
  std::size_t cols = 0;
};

/// Partition of a rows×cols matrix into a grid of tile_rows×tile_cols
/// tiles, visited flat-index row-major.
class TileGrid {
 public:
  TileGrid() = default;
  TileGrid(std::size_t rows, std::size_t cols, std::size_t tile_rows,
           std::size_t tile_cols);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t tile_rows() const { return tile_rows_; }
  [[nodiscard]] std::size_t tile_cols() const { return tile_cols_; }
  [[nodiscard]] std::size_t grid_rows() const { return grid_rows_; }
  [[nodiscard]] std::size_t grid_cols() const { return grid_cols_; }
  [[nodiscard]] std::size_t tile_count() const {
    return grid_rows_ * grid_cols_;
  }

  [[nodiscard]] std::size_t index_of(std::size_t ti, std::size_t tj) const;
  [[nodiscard]] TileSpan span(std::size_t t) const;

  /// Tile-local coordinates of a physical cell.
  struct Coord {
    std::size_t tile;  ///< flat tile index
    std::size_t lr;    ///< row within the tile
    std::size_t lc;    ///< column within the tile
  };
  [[nodiscard]] Coord locate(std::size_t phys_r, std::size_t phys_c) const;

  using TileVisitor = std::function<void(const TileSpan&)>;

  /// Visit every tile, each an item of one parallel_for_weighted job
  /// costed at its full-tile cell count × `work_per_cell` scalar ops, so
  /// the job runs as many lanes as amortize the pool handshake. Which lane
  /// visits a tile depends on timing: the visitor must confine its writes
  /// to per-tile state.
  void for_each_tile(const TileVisitor& visit,
                     std::size_t work_per_cell = 1) const;

  /// Visit only the tiles whose flat indices appear in `subset` (the
  /// incremental re-pack visits just the stale tiles).
  void for_each_tile(const std::vector<std::size_t>& subset,
                     const TileVisitor& visit) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t tile_rows_ = 0;
  std::size_t tile_cols_ = 0;
  std::size_t grid_rows_ = 0;
  std::size_t grid_cols_ = 0;
};

}  // namespace refit
