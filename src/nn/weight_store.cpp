// Software (ideal) WeightStore (see weight_store.hpp).
#include "nn/weight_store.hpp"

#include <utility>

#include "common/serialize.hpp"
#include "tensor/ops.hpp"

namespace refit {

SoftwareWeightStore::SoftwareWeightStore(Tensor init) : w_(std::move(init)) {}

Tensor SoftwareWeightStore::forward_matmul(const Tensor& x) {
  return matmul(x, w_);
}

UpdateStats SoftwareWeightStore::apply_update(const Tensor& delta,
                                              const UpdatePolicy& policy) {
  REFIT_CHECK_MSG(delta.shape() == w_.shape(),
                  "delta shape mismatch in SoftwareWeightStore");
  // Plain floats, identity mapping: logical and physical cells coincide. A
  // filtered-out delta adds exactly 0, so every cell takes the sum.
  UpdateStats st;
  for (std::size_t n = 0; n < w_.numel(); ++n) {
    float d = delta[n];
    (void)policy.admit(d, policy.pruned != nullptr && policy.pruned[n] != 0,
                       policy.skip != nullptr && policy.skip[n] != 0,
                       policy.threshold, st);
    w_[n] += d;
  }
  return st;
}

void SoftwareWeightStore::assign(const Tensor& w) {
  REFIT_CHECK_MSG(w.shape() == w_.shape(),
                  "assign shape mismatch in SoftwareWeightStore");
  w_ = w;
}

namespace {
constexpr std::uint64_t kSoftStoreTag = 0x5245464954535753ULL;  // "REFITSWS"
}  // namespace

void SoftwareWeightStore::save_state(std::ostream& os) const {
  ser::write_tag(os, kSoftStoreTag);
  std::vector<std::uint64_t> shape(w_.shape().begin(), w_.shape().end());
  ser::write_vec(os, shape);
  ser::write_vec(os, w_.vec());
}

void SoftwareWeightStore::restore_state(std::istream& is) {
  ser::expect_tag(is, kSoftStoreTag);
  const auto shape64 = ser::read_vec<std::uint64_t>(is);
  Shape shape(shape64.begin(), shape64.end());
  REFIT_CHECK_MSG(shape == w_.shape(),
                  "restore_state() checkpoint shape mismatch");
  auto data = ser::read_vec<float>(is);
  w_ = Tensor(shape, std::move(data));
}

StoreFactory software_store_factory() {
  return [](const std::string&, Tensor init) {
    return std::make_unique<SoftwareWeightStore>(std::move(init));
  };
}

}  // namespace refit
