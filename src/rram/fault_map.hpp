// A dense matrix of fault predictions / ground truth, shared between the
// detector (which produces predicted maps) and the re-mapping engine
// (which consumes them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "rram/crossbar.hpp"

namespace refit {

/// Fault state per cell of one logical weight matrix (physical layout).
class FaultMatrix {
 public:
  FaultMatrix() = default;
  FaultMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), m_(rows * cols, FaultKind::kNone) {}
  /// Reassemble from raw cell storage (checkpoint restore).
  FaultMatrix(std::size_t rows, std::size_t cols, std::vector<FaultKind> cells)
      : rows_(rows), cols_(cols), m_(std::move(cells)) {
    REFIT_CHECK_MSG(m_.size() == rows_ * cols_, "fault matrix size mismatch");
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return m_.empty(); }

  [[nodiscard]] FaultKind at(std::size_t r, std::size_t c) const {
    REFIT_DCHECK(r < rows_ && c < cols_);
    return m_[r * cols_ + c];
  }
  void set(std::size_t r, std::size_t c, FaultKind k) {
    REFIT_DCHECK(r < rows_ && c < cols_);
    m_[r * cols_ + c] = k;
  }
  [[nodiscard]] bool faulty(std::size_t r, std::size_t c) const {
    return at(r, c) != FaultKind::kNone;
  }

  [[nodiscard]] std::size_t count_faulty() const {
    std::size_t n = 0;
    for (auto k : m_)
      if (k != FaultKind::kNone) ++n;
    return n;
  }

  /// Raw row-major cell storage (serialization).
  [[nodiscard]] const std::vector<FaultKind>& cells() const { return m_; }
  /// The same cells as bytes, nonzero = faulty (UpdatePolicy::skip).
  [[nodiscard]] const std::uint8_t* bytes() const {
    static_assert(sizeof(FaultKind) == 1);
    return reinterpret_cast<const std::uint8_t*>(m_.data());
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<FaultKind> m_;
};

}  // namespace refit
