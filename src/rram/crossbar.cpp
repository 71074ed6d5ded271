// RRAM crossbar tile device model (see crossbar.hpp).
#include "rram/crossbar.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "common/serialize.hpp"

namespace refit {

Crossbar::Crossbar(CrossbarConfig cfg, EnduranceModel endurance, Rng rng)
    : cfg_(cfg), endurance_(endurance), rng_(rng) {
  REFIT_CHECK(cfg_.rows > 0 && cfg_.cols > 0);
  REFIT_CHECK_MSG(cfg_.levels >= 2, "need at least 2 resistance levels");
  REFIT_CHECK(cfg_.write_noise_sigma >= 0.0);
  const std::size_t n = cfg_.rows * cfg_.cols;
  g_.assign(n, 0.0);
  faults_.assign(n, FaultKind::kNone);
  writes_.assign(n, 0);
  endurance_limit_.assign(n, 0);
  soft_ttl_.assign(n, 0);
  soft_restore_.assign(n, 0.0);
  if (endurance_.limited()) {
    for (auto& lim : endurance_limit_) {
      const double draw =
          std::round(rng_.normal(endurance_.mean, endurance_.stddev));
      lim = static_cast<std::uint32_t>(std::max(1.0, std::min(
          draw, static_cast<double>(std::numeric_limits<std::uint32_t>::max() -
                                    1))));
    }
  }
}

std::size_t Crossbar::idx(std::size_t r, std::size_t c) const {
  REFIT_DCHECK(r < cfg_.rows && c < cfg_.cols);
  return r * cfg_.cols + c;
}

double Crossbar::snap(double g) const {
  const double levels_minus_1 = static_cast<double>(cfg_.levels - 1);
  const double level = std::round(std::clamp(g, 0.0, 1.0) * levels_minus_1);
  return level / levels_minus_1;
}

void Crossbar::write(std::size_t r, std::size_t c, double target_g) {
  const std::size_t i = idx(r, c);
  ++mutations_;
  if (faults_[i] != FaultKind::kNone) {
    ++suppressed_writes_;
    return;
  }
  ++writes_[i];
  ++total_writes_;
  if (endurance_.limited() && writes_[i] > endurance_limit_[i]) {
    // The write that exceeds the budget breaks the cell: usually the
    // filament ruptures permanently (SA0); occasionally it forms a
    // permanent short (SA1).
    const FaultKind kind = rng_.bernoulli(endurance_.sa0_probability)
                               ? FaultKind::kStuckAt0
                               : FaultKind::kStuckAt1;
    force_fault(r, c, kind);
    ++wearout_faults_;
    return;
  }
  double g = snap(target_g);
  if (cfg_.write_noise_sigma > 0.0) {
    g += rng_.normal(0.0, cfg_.write_noise_sigma);
  }
  g_[i] = std::clamp(g, 0.0, 1.0);
}

double Crossbar::conductance(std::size_t r, std::size_t c) const {
  return g_[idx(r, c)];
}

double Crossbar::attenuation(std::size_t r, std::size_t c) const {
  if (cfg_.wire_resistance_ratio <= 0.0) return 1.0;
  return 1.0 / (1.0 + cfg_.wire_resistance_ratio *
                          static_cast<double>(r + c + 2));
}

double Crossbar::effective_conductance(std::size_t r, std::size_t c) const {
  ++reads_;
  return g_[idx(r, c)] * attenuation(r, c);
}

int Crossbar::read_level(std::size_t r, std::size_t c) const {
  const double levels_minus_1 = static_cast<double>(cfg_.levels - 1);
  return static_cast<int>(std::round(g_[idx(r, c)] * levels_minus_1));
}

FaultKind Crossbar::fault(std::size_t r, std::size_t c) const {
  return faults_[idx(r, c)];
}

void Crossbar::force_fault(std::size_t r, std::size_t c, FaultKind kind) {
  REFIT_CHECK_MSG(!fault_is_soft(kind),
                  "transient pins go through force_soft_fault");
  const std::size_t i = idx(r, c);
  ++mutations_;
  if (fault_is_soft(faults_[i])) {
    // Hard fault (or explicit clear) supersedes a transient pin.
    --soft_faults_;
    soft_ttl_[i] = 0;
  }
  if (faults_[i] == FaultKind::kNone && kind != FaultKind::kNone) {
    ++fault_count_;
  } else if (faults_[i] != FaultKind::kNone && kind == FaultKind::kNone) {
    // Un-sticking is only meaningful for tests; keep counters consistent.
    --fault_count_;
  }
  faults_[i] = kind;
  if (kind == FaultKind::kStuckAt0) {
    g_[i] = 0.0;
  } else if (kind == FaultKind::kStuckAt1) {
    g_[i] = 1.0;
  }
}

void Crossbar::force_soft_fault(std::size_t r, std::size_t c, FaultKind kind,
                                std::uint32_t ttl) {
  REFIT_CHECK_MSG(fault_is_soft(kind), "force_soft_fault needs a soft kind");
  REFIT_CHECK(ttl >= 1);
  const std::size_t i = idx(r, c);
  if (faults_[i] != FaultKind::kNone) return;  // first fault wins
  ++mutations_;
  soft_restore_[i] = g_[i];
  soft_ttl_[i] = ttl;
  faults_[i] = kind;
  g_[i] = kind == FaultKind::kSoftStuck0 ? 0.0 : 1.0;
  ++fault_count_;
  ++soft_faults_;
}

void Crossbar::decay_soft_faults() {
  if (soft_faults_ == 0) return;
  ++mutations_;
  const std::size_t n = cfg_.rows * cfg_.cols;
  for (std::size_t i = 0; i < n; ++i) {
    if (!fault_is_soft(faults_[i])) continue;
    if (soft_ttl_[i] <= 1) {
      faults_[i] = FaultKind::kNone;
      g_[i] = soft_restore_[i];
      soft_ttl_[i] = 0;
      --fault_count_;
      --soft_faults_;
    } else {
      --soft_ttl_[i];
    }
  }
}

void Crossbar::drift_toward(double target, double rate) {
  REFIT_CHECK(rate >= 0.0 && rate <= 1.0);
  ++mutations_;
  const std::size_t n = cfg_.rows * cfg_.cols;
  for (std::size_t i = 0; i < n; ++i) {
    if (faults_[i] != FaultKind::kNone) continue;  // pinned cells stay pinned
    g_[i] = std::clamp(g_[i] + rate * (target - g_[i]), 0.0, 1.0);
  }
}

void Crossbar::strong_write(std::size_t r, std::size_t c, double target_g) {
  const std::size_t i = idx(r, c);
  if (fault_is_soft(faults_[i])) {
    // The strong pulse re-forms the filament: the transient pin is gone
    // and the cell is re-programmed below (no restore of the old value).
    faults_[i] = FaultKind::kNone;
    soft_ttl_[i] = 0;
    --fault_count_;
    --soft_faults_;
  }
  write(r, c, target_g);
}

double Crossbar::sum_conductance_rows(const std::vector<std::size_t>& row_set,
                                      std::size_t col) const {
  // Analog read-out: each cell's contribution suffers its own IR drop.
  double s = 0.0;
  for (std::size_t r : row_set) s += effective_conductance(r, col);
  return s;
}

double Crossbar::sum_conductance_cols(const std::vector<std::size_t>& col_set,
                                      std::size_t row) const {
  double s = 0.0;
  for (std::size_t c : col_set) s += effective_conductance(row, c);
  return s;
}

std::uint64_t Crossbar::write_count(std::size_t r, std::size_t c) const {
  return writes_[idx(r, c)];
}

double Crossbar::fault_fraction() const {
  return static_cast<double>(fault_count_) /
         static_cast<double>(cfg_.rows * cfg_.cols);
}

namespace {
constexpr std::uint64_t kCrossbarTag = 0x52454649544c5842ULL;  // "REFITLXB"
}

void Crossbar::save(std::ostream& os) const {
  ser::write_tag(os, kCrossbarTag);
  ser::write_pod(os, cfg_);
  ser::write_pod(os, endurance_);
  ser::write_pod(os, rng_.state());
  ser::write_vec(os, g_);
  ser::write_vec(os, faults_);
  ser::write_vec(os, writes_);
  ser::write_vec(os, endurance_limit_);
  ser::write_pod(os, total_writes_);
  ser::write_pod(os, suppressed_writes_);
  ser::write_pod<std::uint64_t>(os, fault_count_);
  ser::write_pod<std::uint64_t>(os, wearout_faults_);
  ser::write_vec(os, soft_ttl_);
  ser::write_vec(os, soft_restore_);
  ser::write_pod<std::uint64_t>(os, soft_faults_);
}

void Crossbar::restore(std::istream& is) {
  ser::expect_tag(is, kCrossbarTag);
  const auto cfg = ser::read_pod<CrossbarConfig>(is);
  // Checked before any per-cell vector is read: a corrupt header must not
  // size an allocation.
  REFIT_CHECK_MSG(cfg.rows == cfg_.rows && cfg.cols == cfg_.cols &&
                      cfg.levels == cfg_.levels &&
                      cfg.write_noise_sigma >= 0.0,
                  "crossbar checkpoint has another geometry or a bad config");
  // Read into a copy, committed only once every check passed: a rejected
  // checkpoint leaves this tile unchanged.
  Crossbar next = *this;
  next.cfg_ = cfg;
  next.endurance_ = ser::read_pod<EnduranceModel>(is);
  next.rng_.set_state(ser::read_pod<Rng::State>(is));
  next.g_ = ser::read_vec<double>(is);
  next.faults_ = ser::read_vec<FaultKind>(is);
  next.writes_ = ser::read_vec<std::uint32_t>(is);
  next.endurance_limit_ = ser::read_vec<std::uint32_t>(is);
  const std::size_t n = cfg.rows * cfg.cols;
  REFIT_CHECK_MSG(next.g_.size() == n && next.faults_.size() == n &&
                      next.writes_.size() == n &&
                      next.endurance_limit_.size() == n,
                  "corrupt crossbar checkpoint");
  next.total_writes_ = ser::read_pod<std::uint64_t>(is);
  next.suppressed_writes_ = ser::read_pod<std::uint64_t>(is);
  next.fault_count_ = ser::read_pod<std::uint64_t>(is);
  next.wearout_faults_ = ser::read_pod<std::uint64_t>(is);
  next.soft_ttl_ = ser::read_vec<std::uint32_t>(is);
  next.soft_restore_ = ser::read_vec<double>(is);
  REFIT_CHECK_MSG(next.soft_ttl_.size() == n && next.soft_restore_.size() == n,
                  "corrupt crossbar checkpoint (soft-fault state)");
  next.soft_faults_ = ser::read_pod<std::uint64_t>(is);
  std::size_t faulty = 0, soft = 0;
  for (const FaultKind f : next.faults_) {
    REFIT_CHECK_MSG(f <= FaultKind::kSoftStuck1,
                    "corrupt crossbar checkpoint (fault kind)");
    faulty += f != FaultKind::kNone ? 1 : 0;
    soft += fault_is_soft(f) ? 1 : 0;
  }
  REFIT_CHECK_MSG(next.fault_count_ == faulty && next.soft_faults_ == soft &&
                      next.wearout_faults_ <= faulty,
                  "corrupt crossbar checkpoint (fault counts)");
  next.mutations_ = mutations_ + 1;
  *this = std::move(next);
}

}  // namespace refit
