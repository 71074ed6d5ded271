// Dense row-major float tensor — the numeric substrate for the NN training
// framework (S1 in DESIGN.md).
//
// Deliberately minimal: contiguous storage, explicit shapes, no lazy views.
// The simulator's hot paths (crossbar MVM, im2col convolution) are expressed
// as free functions in ops.hpp operating on Tensors.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace refit {

class Rng;

/// Shape of a tensor: list of dimension extents.
using Shape = std::vector<std::size_t>;

/// Number of elements implied by a shape (1 for rank-0).
std::size_t shape_numel(const Shape& shape);

/// Human-readable "[a, b, c]" form for error messages.
std::string shape_to_string(const Shape& shape);

/// Contiguous row-major float tensor.
class Tensor {
 public:
  Tensor() = default;
  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);
  /// Constant-filled tensor.
  Tensor(Shape shape, float fill);
  /// Tensor adopting the given data (size must match the shape).
  Tensor(Shape shape, std::vector<float> data);

  /// Convenience factories -----------------------------------------------
  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float v) { return {std::move(shape), v}; }
  /// i.i.d. N(0, stddev²) entries.
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f);
  /// i.i.d. U[lo, hi) entries.
  static Tensor rand_uniform(Shape shape, Rng& rng, float lo, float hi);

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::size_t numel() const { return data_.size(); }
  [[nodiscard]] std::size_t dim(std::size_t i) const;
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }
  [[nodiscard]] std::vector<float>& vec() { return data_; }
  [[nodiscard]] const std::vector<float>& vec() const { return data_; }

  /// Flat element access.
  float& operator[](std::size_t i) {
    REFIT_DCHECK(i < data_.size());
    return data_[i];
  }
  float operator[](std::size_t i) const {
    REFIT_DCHECK(i < data_.size());
    return data_[i];
  }

  /// 2-D access (rank must be 2).
  float& at(std::size_t r, std::size_t c) {
    REFIT_DCHECK(rank() == 2 && r < shape_[0] && c < shape_[1]);
    return data_[r * shape_[1] + c];
  }
  float at(std::size_t r, std::size_t c) const {
    REFIT_DCHECK(rank() == 2 && r < shape_[0] && c < shape_[1]);
    return data_[r * shape_[1] + c];
  }

  /// 4-D access (rank must be 4) — used for [N, C, H, W] activations.
  float& at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
    REFIT_DCHECK(rank() == 4);
    return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }
  float at4(std::size_t n, std::size_t c, std::size_t h,
            std::size_t w) const {
    REFIT_DCHECK(rank() == 4);
    return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }

  /// Reinterpret the same storage with a new shape of equal numel.
  [[nodiscard]] Tensor reshaped(Shape new_shape) const;
  /// In-place reshape (numel must match).
  void reshape(Shape new_shape);

  /// Fill every element with v.
  void fill(float v);
  /// Set all elements to zero.
  void zero() { fill(0.0f); }

  /// Elementwise in-place arithmetic (shapes must match exactly).
  Tensor& operator+=(const Tensor& o);
  Tensor& operator-=(const Tensor& o);
  Tensor& operator*=(float s);

  /// Sum / max-abs over all elements.
  [[nodiscard]] float sum() const;
  [[nodiscard]] float max_abs() const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

/// Checkpoint form of a tensor: its shape, then its elements, each as a
/// length-prefixed vector (common/serialize.hpp). read_tensor throws
/// CheckError on a short stream or a shape/size mismatch.
void write_tensor(std::ostream& os, const Tensor& t);
[[nodiscard]] Tensor read_tensor(std::istream& is);

}  // namespace refit
