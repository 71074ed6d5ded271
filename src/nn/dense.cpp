// Fully-connected layer (see dense.hpp).
#include "nn/dense.hpp"

#include <utility>

#include "tensor/ops.hpp"

namespace refit {

Dense::Dense(std::string name, std::size_t in, std::size_t out,
             const StoreFactory& factory, Rng& rng)
    : MatrixLayer(std::move(name), in, out, factory, rng), in_(in), out_(out) {}

void Dense::check_input(const Shape& in) const {
  REFIT_CHECK_MSG(in.size() == 2 && in[1] == in_,
                  "Dense " << name() << ": bad input " << shape_to_string(in));
}

Shape Dense::size_train_caches(const Shape& in) {
  check_input(in);
  size_grad_caches(in[0], 1);
  return {in[0], out_};
}

Tensor Dense::forward_chunk(const Tensor& x, std::size_t offset, bool train) {
  check_input(x.shape());
  // Through the store seam: the RCS backend fuses this multiply with the
  // device read-out (no effective-matrix materialization).
  Tensor y = affine(x);
  if (train) {
    check_chunk(offset, x.dim(0));
    save_inputs(offset, x);
  }
  return y;
}

Tensor Dense::backward_chunk(const Tensor& grad_out, std::size_t offset) {
  REFIT_CHECK(grad_out.rank() == 2 && grad_out.dim(1) == out_);
  check_chunk(offset, grad_out.dim(0));
  save_output_grads(offset, grad_out);
  // Back-propagation runs in the digital domain on the *stored* weight
  // copy: the training engine cannot read the whole array every iteration,
  // so it does not see stuck cells through the gradient. (This is exactly
  // why the paper needs an explicit fault-detection phase.) Only the
  // forward pass above went through the faulty crossbar.
  return matmul_nt(grad_out, weights().target());
}

}  // namespace refit
