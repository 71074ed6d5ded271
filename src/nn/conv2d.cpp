// 2-D convolution layer (see conv2d.hpp).
#include "nn/conv2d.hpp"

#include <utility>

namespace refit {

Conv2D::Conv2D(std::string name, std::size_t in_channels, std::size_t in_h,
               std::size_t in_w, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t pad, const StoreFactory& factory,
               Rng& rng)
    : MatrixLayer(std::move(name), in_channels * kernel * kernel,
                  out_channels, factory, rng),
      geom_{in_channels, in_h, in_w, kernel, stride, pad},
      oc_(out_channels) {
  REFIT_CHECK(stride > 0);
}

void Conv2D::check_input(const Shape& in) const {
  REFIT_CHECK_MSG(in.size() == 4 && in[1] == geom_.in_channels &&
                      in[2] == geom_.in_h && in[3] == geom_.in_w,
                  "Conv2D " << name() << ": bad input "
                            << shape_to_string(in));
}

Shape Conv2D::size_train_caches(const Shape& in) {
  check_input(in);
  size_grad_caches(in[0], geom_.out_h() * geom_.out_w());
  return {in[0], oc_, geom_.out_h(), geom_.out_w()};
}

Tensor Conv2D::forward_chunk(const Tensor& x, std::size_t offset,
                             bool train) {
  check_input(x.shape());
  const std::size_t batch = x.dim(0);
  const Tensor cols = im2col(x, geom_);
  const Tensor rows = affine(cols);  // [N·OH·OW, OC], fused on RCS
  if (train) {
    check_chunk(offset, batch);
    save_inputs(offset, cols);
  }
  return rows_to_nchw(rows, batch, oc_, geom_.out_h(), geom_.out_w());
}

Tensor Conv2D::backward_chunk(const Tensor& grad_out, std::size_t offset) {
  REFIT_CHECK(grad_out.rank() == 4 && grad_out.dim(1) == oc_ &&
              grad_out.dim(2) == geom_.out_h() &&
              grad_out.dim(3) == geom_.out_w());
  check_chunk(offset, grad_out.dim(0));
  const Tensor gy_rows = nchw_to_rows(grad_out);  // [N·OH·OW, OC]
  save_output_grads(offset, gy_rows);
  // Digital-domain backprop on the stored weight copy (see
  // Dense::backward_chunk for the architectural rationale).
  const Tensor gcols = matmul_nt(gy_rows, weights().target());
  return col2im(gcols, grad_out.dim(0), geom_);
}

}  // namespace refit
