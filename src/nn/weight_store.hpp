// WeightStore — the seam between the training algorithm and the hardware.
//
// A layer's weight matrix lives behind this interface. The software backend
// stores plain floats (the paper's "ideal case"); the RCS backend
// (src/rcs/crossbar_store.hpp) maps the matrix onto RRAM crossbar tiles so
// that forward propagation sees quantization, write variation and stuck-at
// faults, and every weight update consumes cell endurance.
//
// The convention throughout REFIT: a weight matrix has shape
// [fan_in, fan_out]; crossbar rows correspond to inputs and columns to
// output neurons, matching the paper's Fig. 5.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace refit {

/// Write accounting of one apply_update call.
struct UpdateStats {
  std::uint64_t writes_issued = 0;
  std::uint64_t writes_suppressed = 0;  ///< zeroed by threshold or fault skip
  std::uint64_t updates_zero = 0;       ///< δw exactly 0 (no write needed)
  UpdateStats& operator+=(const UpdateStats& o) {
    writes_issued += o.writes_issued;
    writes_suppressed += o.writes_suppressed;
    updates_zero += o.updates_zero;
    return *this;
  }
};

/// The settings of threshold training's write filter (paper §5.1,
/// Algorithm 1; filter_update_run) for WeightStore::apply_update; the
/// default writes every nonzero delta.
struct UpdatePolicy {
  /// Row-major logical bytes, nonzero = pruned (delta forced to 0).
  const std::uint8_t* pruned = nullptr;
  /// Row-major physical bytes, nonzero = detected stuck (no write).
  const std::uint8_t* skip = nullptr;
  /// Updates with |δw| below this are suppressed (θ · δw_max).
  double threshold = 0.0;
  /// Wear-leveling β (device backends): a cell written `ratio` times the
  /// mean per-cell count sees threshold · (1 + β · max(0, ratio − 1)).
  double wear_beta = 0.0;
  /// Program every cell, zero deltas included (the "original" scheme).
  bool full_write = false;
  /// Cell n's delta is fl(delta[n] · scale). The threshold trainer passes
  /// the raw gradient with scale = fl(−lr), so no scaled copy is made;
  /// everyone else leaves 1 (x · 1.0f == x).
  float scale = 1.0f;
};

/// One run of consecutive cells for filter_update_run: cell k's inputs are
/// g[k], pruned[k], skip[k] and thr[k].
struct UpdateRun {
  const float* g = nullptr;              ///< deltas, times UpdatePolicy::scale
  const std::uint8_t* pruned = nullptr;  ///< nonzero = pruned; null: none
  const std::uint8_t* skip = nullptr;    ///< nonzero = no write; null: none
  /// Per-cell thresholds (wear-leveling); null: UpdatePolicy::threshold.
  const double* thr = nullptr;
  std::size_t n = 0;
};

/// Threshold training's write filter (paper §5.1, Algorithm 1) over one
/// run, with no data-dependent branch. Cell k's delta is
/// fl(g[k] · policy.scale), +0 when pruned; a nonzero delta with skip[k]
/// set or |delta| < thr[k] (compared in double) is suppressed to +0, and
/// a zero delta keeps its sign. Writes cell k's applied delta to d[k],
/// counts it in `st` as issued, suppressed or zero, and appends
/// first + k of every programmed cell (each issued one; every cell under
/// full_write) to `programmed` in ascending order unless it is null.
/// Returns the programmed count; `programmed` needs room for run.n
/// entries. Dispatched once per process: an AVX2 body (no FMA) when the
/// CPU has it, else the portable one, with the same bits.
std::size_t filter_update_run(const UpdatePolicy& policy, const UpdateRun& run,
                              float* d, std::uint32_t* programmed,
                              std::uint32_t first, UpdateStats& st);
/// The portable scalar body of filter_update_run: the fallback, and the
/// reference the dispatched body must match bit for bit.
std::size_t filter_update_run_portable(const UpdatePolicy& policy,
                                       const UpdateRun& run, float* d,
                                       std::uint32_t* programmed,
                                       std::uint32_t first, UpdateStats& st);

/// One store's update step split into work items that share no state
/// (WeightStore::split_update), so that one pool job can run the items of
/// every store together (apply_updates).
class UpdateItems {
 public:
  UpdateItems() = default;
  virtual ~UpdateItems() = default;
  UpdateItems(const UpdateItems&) = delete;
  UpdateItems& operator=(const UpdateItems&) = delete;
  [[nodiscard]] virtual std::size_t count() const = 0;
  /// Scalar-op estimate of item k: its weight in the lane balance.
  [[nodiscard]] virtual std::size_t cost(std::size_t k) const = 0;
  /// Run item k, on any lane, concurrently with any other item.
  virtual void run(std::size_t k) = 0;
  /// On the caller once every item ran: the write accounting, summed in
  /// item order.
  virtual UpdateStats finish() = 0;
};

/// Abstract storage for one layer's weight matrix.
class WeightStore {
 public:
  virtual ~WeightStore() = default;

  [[nodiscard]] virtual const Shape& shape() const = 0;

  /// The weights forward propagation actually computes with. For an RCS
  /// backend this includes faults / quantization / write noise.
  [[nodiscard]] virtual Tensor effective() = 0;

  /// The ideal target weights the optimizer believes it has written.
  [[nodiscard]] virtual const Tensor& target() const = 0;

  /// Bring any read-out cache current, so that forward_matmul writes no
  /// store state until the store next changes.
  virtual void prepare_forward() {}

  /// Forward propagation through the store: y = x · W_eff for a batch
  /// x [batch, fan_in], bit-identical to matmul(x, effective()) — layers
  /// call this so hardware backends can compute straight from device state.
  /// After prepare_forward() on the caller, and until the store changes,
  /// it writes no store state, so pool lanes may call it concurrently
  /// (Network::evaluate's sample chunks do).
  [[nodiscard]] virtual Tensor forward_matmul(const Tensor& x) = 0;

  /// One filtered update step as independent work items: every cell's
  /// delta (`delta` times `policy.scale`) passes filter_update_run (mask,
  /// threshold, detected-fault skip), target += the surviving delta, and
  /// the programmed cells are written. Made on the caller, which fixes
  /// every input of the step (a device backend's wear-leveling mean, for
  /// one); `delta` and the policy's masks must outlive the items.
  [[nodiscard]] virtual std::unique_ptr<UpdateItems> split_update(
      const Tensor& delta, const UpdatePolicy& policy) = 0;

  /// split_update run to completion; returns the write accounting.
  UpdateStats apply_update(const Tensor& delta, const UpdatePolicy& policy);

  /// target += delta; entries with delta == 0 are *not* written to the
  /// device (this is what threshold training exploits to save endurance).
  void apply_delta(const Tensor& delta) { (void)apply_update(delta, {}); }

  /// target += delta, programming EVERY cell — zero deltas included. This
  /// is the paper's "original" on-line update: each step re-programs the
  /// whole array, which is why repeated training wears out most cells.
  void apply_delta_full(const Tensor& delta) {
    UpdatePolicy full;
    full.full_write = true;
    (void)apply_update(delta, full);
  }

  /// Overwrite the full target (counts as a write to every changed cell).
  virtual void assign(const Tensor& w) = 0;

  /// Total device write operations issued so far (0 for software).
  [[nodiscard]] virtual std::uint64_t write_count() const { return 0; }

  /// Serialize the store's complete state: the target tensor for the
  /// software backend, the full device state (tiles, permutations,
  /// endurance, RNG) for a hardware backend. restore_state() into a
  /// same-shaped store must reproduce the exact compute behavior — this
  /// is the seam the engine checkpoints through without knowing which
  /// backend a layer uses.
  virtual void save_state(std::ostream& os) const = 0;
  virtual void restore_state(std::istream& is) = 0;
};

/// Pure-software backend: effective() == target(), no endurance, no faults.
class SoftwareWeightStore final : public WeightStore {
 public:
  explicit SoftwareWeightStore(Tensor init);

  [[nodiscard]] const Shape& shape() const override { return w_.shape(); }
  [[nodiscard]] Tensor effective() override { return w_; }
  [[nodiscard]] const Tensor& target() const override { return w_; }
  [[nodiscard]] Tensor forward_matmul(const Tensor& x) override;
  /// One item per block of whole rows (about 8192 cells): filter_update_run
  /// over the block, then w += the applied deltas.
  [[nodiscard]] std::unique_ptr<UpdateItems> split_update(
      const Tensor& delta, const UpdatePolicy& policy) override;
  void assign(const Tensor& w) override;
  void save_state(std::ostream& os) const override;
  void restore_state(std::istream& is) override;

 private:
  Tensor w_;
};

/// Run the update items of several stores in one pool job balanced by
/// cost, then finish each in turn; returns the summed accounting. Items of
/// different stores share no state, so this is bit-identical to calling
/// apply_update on each store in turn, at any thread count.
UpdateStats apply_updates(
    const std::vector<std::unique_ptr<UpdateItems>>& updates);

/// Factory used by layers to create their weight backend; experiments swap
/// in an RCS-backed factory to put layers "on chip".
using StoreFactory = std::function<std::unique_ptr<WeightStore>(
    const std::string& layer_name, Tensor init)>;

/// Factory producing SoftwareWeightStore (the default backend).
StoreFactory software_store_factory();

}  // namespace refit
