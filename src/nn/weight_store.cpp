// Software (ideal) WeightStore (see weight_store.hpp).
#include "nn/weight_store.hpp"

#include <utility>

#include "common/serialize.hpp"
#include "common/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace refit {

SoftwareWeightStore::SoftwareWeightStore(Tensor init) : w_(std::move(init)) {}

Tensor SoftwareWeightStore::forward_matmul(const Tensor& x) {
  return matmul(x, w_);
}

namespace {

/// The software update as one work item.
class SoftwareUpdate final : public UpdateItems {
 public:
  SoftwareUpdate(Tensor& w, const Tensor& delta, const UpdatePolicy& policy)
      : w_(w), delta_(delta), policy_(policy) {}
  [[nodiscard]] std::size_t count() const override { return 1; }
  [[nodiscard]] std::size_t cost(std::size_t) const override {
    return w_.numel();
  }
  void run(std::size_t) override {
    // Plain floats, identity mapping: logical and physical cells coincide.
    // A filtered-out delta adds exactly 0, so every cell takes the sum.
    for (std::size_t n = 0; n < w_.numel(); ++n) {
      float d = delta_[n] * policy_.scale;
      (void)policy_.admit(d, policy_.pruned != nullptr && policy_.pruned[n] != 0,
                          policy_.skip != nullptr && policy_.skip[n] != 0,
                          policy_.threshold, stats_);
      w_[n] += d;
    }
  }
  UpdateStats finish() override { return stats_; }

 private:
  Tensor& w_;
  const Tensor& delta_;
  const UpdatePolicy policy_;
  UpdateStats stats_;
};

}  // namespace

UpdateStats WeightStore::apply_update(const Tensor& delta,
                                      const UpdatePolicy& policy) {
  std::vector<std::unique_ptr<UpdateItems>> one;
  one.push_back(split_update(delta, policy));
  return apply_updates(one);
}

UpdateStats apply_updates(
    const std::vector<std::unique_ptr<UpdateItems>>& updates) {
  // Flatten to (update, item) pairs; the pool decides only where each runs.
  std::vector<std::pair<std::size_t, std::size_t>> items;
  std::vector<std::size_t> cost;
  for (std::size_t u = 0; u < updates.size(); ++u) {
    for (std::size_t k = 0; k < updates[u]->count(); ++k) {
      items.emplace_back(u, k);
      cost.push_back(updates[u]->cost(k));
    }
  }
  parallel_for_weighted(cost, [&](std::size_t i) {
    updates[items[i].first]->run(items[i].second);
  });
  UpdateStats total;
  for (const auto& u : updates) total += u->finish();
  return total;
}

std::unique_ptr<UpdateItems> SoftwareWeightStore::split_update(
    const Tensor& delta, const UpdatePolicy& policy) {
  REFIT_CHECK_MSG(delta.shape() == w_.shape(),
                  "delta shape mismatch in SoftwareWeightStore");
  return std::make_unique<SoftwareUpdate>(w_, delta, policy);
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
