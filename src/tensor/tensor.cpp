// Dense row-major tensor (see tensor.hpp).
#include "tensor/tensor.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace refit {

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(shape_numel(shape_), fill) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  REFIT_CHECK_MSG(data_.size() == shape_numel(shape_),
                  "data size " << data_.size() << " does not match shape "
                               << shape_to_string(shape_));
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

std::size_t Tensor::dim(std::size_t i) const {
  REFIT_CHECK_MSG(i < shape_.size(), "dim " << i << " out of rank "
                                            << shape_.size());
  return shape_[i];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  Tensor t = *this;
  t.reshape(std::move(new_shape));
  return t;
}

void Tensor::reshape(Shape new_shape) {
  REFIT_CHECK_MSG(shape_numel(new_shape) == data_.size(),
                  "cannot reshape " << shape_to_string(shape_) << " to "
                                    << shape_to_string(new_shape));
  shape_ = std::move(new_shape);
}

void Tensor::fill(float v) {
  for (auto& x : data_) x = v;
}

Tensor& Tensor::operator+=(const Tensor& o) {
  REFIT_CHECK_MSG(shape_ == o.shape_, "shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& o) {
  REFIT_CHECK_MSG(shape_ == o.shape_, "shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (auto& x : data_) x *= s;
  return *this;
}

float Tensor::sum() const {
  double s = 0.0;
  for (float x : data_) s += x;
  return static_cast<float>(s);
}

float Tensor::max_abs() const {
  float m = 0.0f;
  for (float x : data_) m = std::max(m, std::fabs(x));
  return m;
}

void write_tensor(std::ostream& os, const Tensor& t) {
  const std::vector<std::uint64_t> shape(t.shape().begin(), t.shape().end());
  ser::write_vec(os, shape);
  ser::write_vec(os, t.vec());
}

Tensor read_tensor(std::istream& is) {
  const auto shape = ser::read_vec<std::uint64_t>(is);
  return Tensor(Shape(shape.begin(), shape.end()), ser::read_vec<float>(is));
}

}  // namespace refit
