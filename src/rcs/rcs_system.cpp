// RCS system facade and store factory (see rcs_system.hpp).
#include "rcs/rcs_system.hpp"

#include <utility>

namespace refit {

RcsSystem::RcsSystem(RcsConfig cfg, Rng rng) : cfg_(cfg), rng_(rng) {}

StoreFactory RcsSystem::factory() {
  return [this](const std::string& /*layer_name*/, Tensor init) {
    auto store = std::make_unique<CrossbarWeightStore>(
        cfg_, std::move(init), rng_.split(next_salt_++));
    stores_.push_back(store.get());
    return store;
  };
}

std::uint64_t RcsSystem::total_device_writes() const {
  std::uint64_t n = 0;
  for (const auto* s : stores_) n += s->write_count();
  return n;
}

std::size_t RcsSystem::cell_count() const {
  std::size_t n = 0;
  for (const auto* s : stores_) n += s->cell_count();
  return n;
}

std::size_t RcsSystem::physical_cell_count() const {
  std::size_t n = 0;
  for (const auto* s : stores_) n += s->physical_cell_count();
  return n;
}

std::size_t RcsSystem::fault_count() const {
  std::size_t n = 0;
  for (const auto* s : stores_) n += s->fault_count();
  return n;
}

std::size_t RcsSystem::wearout_fault_count() const {
  std::size_t n = 0;
  for (const auto* s : stores_) n += s->wearout_fault_count();
  return n;
}

double RcsSystem::fault_fraction() const {
  const std::size_t cells = physical_cell_count();
  if (cells == 0) return 0.0;
  return static_cast<double>(fault_count()) / static_cast<double>(cells);
}

double RcsSystem::mean_writes_per_cell() const {
  const std::size_t cells = cell_count();
  if (cells == 0) return 0.0;
  return static_cast<double>(total_device_writes()) /
         static_cast<double>(cells);
}

}  // namespace refit
