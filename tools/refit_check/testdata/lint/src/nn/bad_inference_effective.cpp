// Fixture: effective() materialized on an inference path. Forward passes
// must go through WeightStore::forward_matmul so crossbar backends keep
// the fused per-tile kernel; only nn/weight_store may call effective()
// on this side.
#include "nn/weight_store.hpp"

namespace refit {

Tensor bad_forward(WeightStore& store, WeightStore* pstore, const Tensor& x) {
  Tensor a = matmul(x, store.effective());    // EXPECT: inference-effective
  Tensor b = matmul(x, pstore->effective());  // EXPECT: inference-effective
  return add(a, b);
}

Tensor good_forward(WeightStore& store, const Tensor& x) {
  // The sanctioned spelling: fused on RRAM backends, bit-identical.
  Tensor y = store.forward_matmul(x);
  // Backward-side reads use target(), which never materializes.
  const Tensor& w = store.target();
  (void)w;
  return y;
}

}  // namespace refit
