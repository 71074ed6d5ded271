// RcsSystem — registry of all crossbar-backed weight stores in a network,
// plus system-wide statistics. The fault-tolerant training flow iterates
// over the registered stores to run detection and re-mapping.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "rcs/crossbar_store.hpp"

namespace refit {

/// Tracks the CrossbarWeightStores created through its factory.
///
/// Ownership note: layers own their stores; the system holds non-owning
/// pointers, so the network must outlive any use of the system.
class RcsSystem {
 public:
  explicit RcsSystem(RcsConfig cfg, Rng rng);

  [[nodiscard]] const RcsConfig& config() const { return cfg_; }

  /// StoreFactory that builds crossbar stores registered with this system.
  [[nodiscard]] StoreFactory factory();

  [[nodiscard]] const std::vector<CrossbarWeightStore*>& stores() const {
    return stores_;
  }

  // ---- Aggregate statistics ---------------------------------------------
  [[nodiscard]] std::uint64_t total_device_writes() const;
  /// Logical weights across all stores.
  [[nodiscard]] std::size_t cell_count() const;
  /// Physical device cells (logical × encoding legs).
  [[nodiscard]] std::size_t physical_cell_count() const;
  [[nodiscard]] std::size_t fault_count() const;
  [[nodiscard]] std::size_t wearout_fault_count() const;
  /// fault_count() over physical cells (identical to the logical ratio for
  /// single-leg encodings).
  [[nodiscard]] double fault_fraction() const;
  /// Mean device writes per cell (the endurance pressure metric).
  [[nodiscard]] double mean_writes_per_cell() const;

 private:
  RcsConfig cfg_;
  Rng rng_;
  std::uint64_t next_salt_ = 1;
  std::vector<CrossbarWeightStore*> stores_;
};

}  // namespace refit
