// Neuron re-ordering re-mapping engine, paper §5.2 (see remap.hpp).
#include "core/remap.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/rng.hpp"
#include "rcs/crossbar_store.hpp"

namespace refit {

namespace {

// Random swap attempts per neuron for kGreedySwap.
constexpr std::size_t kGreedyTrialsPerNeuron = 60;
// Genetic-algorithm search.
constexpr std::size_t kGaPopulation = 24;
constexpr std::size_t kGaGenerations = 80;
constexpr double kGaMutationRate = 0.25;
constexpr std::size_t kGaTournament = 3;
constexpr std::size_t kGaElites = 2;
// Install a new permutation only if it cuts the collision cost by at least
// this fraction. Re-mapping rewrites every moved cell (endurance +
// write-noise cost) and invalidates the network's adaptation to the old
// fault placement; measured end-to-end (ABL_REMAP), installs below ~20 %
// cost more accuracy than they recover.
constexpr double kMinImprovement = 0.2;

/// Collision penalty of one (weight, cell) pair (see build_interface_cost).
double cell_cost(bool pruned, FaultKind fault) {
  if (fault == FaultKind::kNone) return 0.0;
  if (fault == FaultKind::kStuckAt0) return pruned ? 0.0 : 2.0;
  // kStuckAt1: a pruned weight would read ±w_max (worst case); an unpruned
  // one is merely distorted.
  return pruned ? 2.0 : 1.0;
}

std::vector<std::size_t> identity_perm(std::size_t n) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), 0);
  return p;
}

/// Current placement of the interface's neurons (from the producer's
/// column permutation when it is on crossbars, else the consumer's blocks).
std::vector<std::size_t> current_assignment(const RemapInterface& iface) {
  if (const auto* xp = dynamic_cast<const CrossbarWeightStore*>(
          &iface.producer->weights())) {
    return xp->mapping().col_perm();
  }
  if (const auto* xc = dynamic_cast<const CrossbarWeightStore*>(
          &iface.consumer->weights())) {
    const std::size_t b = iface.consumer->rows_per_in_neuron();
    std::vector<std::size_t> perm(iface.neurons);
    for (std::size_t j = 0; j < iface.neurons; ++j) {
      perm[j] = xc->mapping().row_perm()[j * b] / b;
    }
    return perm;
  }
  return identity_perm(iface.neurons);
}

}  // namespace

std::vector<RemapInterface> find_remap_interfaces(Network& net) {
  std::vector<RemapInterface> out;
  const auto layers = net.matrix_layers();
  for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
    MatrixLayer* prod = layers[i];
    MatrixLayer* cons = layers[i + 1];
    if (prod->out_neurons() != cons->in_neurons()) continue;  // e.g. flatten
    const std::size_t b = cons->rows_per_in_neuron();
    if (cons->weights().shape()[0] != cons->in_neurons() * b) continue;
    const bool any_crossbar =
        dynamic_cast<CrossbarWeightStore*>(&prod->weights()) != nullptr ||
        dynamic_cast<CrossbarWeightStore*>(&cons->weights()) != nullptr;
    if (!any_crossbar) continue;
    out.push_back(RemapInterface{prod, cons, prod->out_neurons(), i});
  }
  return out;
}

double InterfaceCost::total(const std::vector<std::size_t>& perm) const {
  REFIT_CHECK(perm.size() == m_);
  double s = 0.0;
  for (std::size_t j = 0; j < m_; ++j) s += at(j, perm[j]);
  return s;
}

namespace {

/// Fault kinds a detected cell can hold besides kNone: 1 ... kSoftStuck1.
constexpr std::size_t kFaultKinds =
    static_cast<std::size_t>(FaultKind::kSoftStuck1);

/// One side of an interface as bitsets over a neuron's n logical positions
/// on that side (the producer's rows, or the consumer's b·cols block
/// cells): for each slot p and fault kind, where p's cells are stuck; for
/// each neuron j, where its mask prunes.
class CollisionSets {
 public:
  CollisionSets(std::size_t m, std::size_t n, bool masked)
      : m_(m),
        words_((n + 63) / 64),
        stuck_(m * kFaultKinds * words_, 0),
        pruned_(masked ? m * words_ : 0, 0) {}

  void stuck(std::size_t p, std::size_t pos, FaultKind k) {
    if (k == FaultKind::kNone) return;
    const auto kind = static_cast<std::size_t>(k) - 1;
    REFIT_CHECK_MSG(kind < kFaultKinds, "bad fault kind in a detected map");
    set(&stuck_[(p * kFaultKinds + kind) * words_], pos);
  }
  void prune(std::size_t j, std::size_t pos) {
    set(&pruned_[j * words_], pos);
  }

  /// cost(j, p) += Σ cell_cost(pruned, kind) over p's stuck positions, as
  /// counts: the n_k positions of kind k of which a_k are pruned for j add
  /// (n_k − a_k)·cell_cost(false, k) + a_k·cell_cost(true, k). Every term
  /// is a small integer, so the sum is exact in double in any order.
  void add_to(InterfaceCost& cost) const {
    for (std::size_t p = 0; p < m_; ++p) {
      for (std::size_t kind = 0; kind < kFaultKinds; ++kind) {
        const std::uint64_t* s = &stuck_[(p * kFaultKinds + kind) * words_];
        const std::size_t n = count(s, nullptr);
        if (n == 0) continue;
        const auto k = static_cast<FaultKind>(kind + 1);
        const double kept = cell_cost(false, k), cut = cell_cost(true, k);
        for (std::size_t j = 0; j < m_; ++j) {
          const std::size_t a =
              pruned_.empty() ? 0 : count(s, &pruned_[j * words_]);
          cost.add(j, p,
                   static_cast<double>(n - a) * kept +
                       static_cast<double>(a) * cut);
        }
      }
    }
  }

 private:
  static void set(std::uint64_t* bits, std::size_t pos) {
    bits[pos / 64] |= std::uint64_t{1} << (pos % 64);
  }
  /// |a| when b is null, else |a ∩ b|.
  std::size_t count(const std::uint64_t* a, const std::uint64_t* b) const {
    std::size_t c = 0;
    for (std::size_t w = 0; w < words_; ++w)
      c += static_cast<std::size_t>(
          std::popcount(b != nullptr ? a[w] & b[w] : a[w]));
    return c;
  }

  std::size_t m_;
  std::size_t words_;
  std::vector<std::uint64_t> stuck_;
  std::vector<std::uint64_t> pruned_;
};

}  // namespace

InterfaceCost build_interface_cost(const RemapInterface& iface,
                                   const DetectedFaults& detected,
                                   const PruneState& prune) {
  const std::size_t m = iface.neurons;
  InterfaceCost cost(m);

  // Producer side: logical column j placed at physical column p; positions
  // are the producer's logical rows i, whose cells sit on row row_perm[i].
  if (const auto* xp = dynamic_cast<const CrossbarWeightStore*>(
          &iface.producer->weights())) {
    if (const FaultMatrix* fm = detected_for(detected, iface.layer)) {
      const PruneMask* mask = prune.mask_for(iface.layer);
      const std::size_t rows = xp->rows();
      const auto& row_perm = xp->mapping().row_perm();
      CollisionSets sets(m, rows, mask != nullptr);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t p = 0; p < m; ++p)
          sets.stuck(p, i, fm->at(row_perm[i], p));
        if (mask != nullptr)
          for (std::size_t j = 0; j < m; ++j)
            if (mask->at(i, j)) sets.prune(j, i);
      }
      sets.add_to(cost);
    }
  }

  // Consumer side: logical row-block j placed at physical block p;
  // positions are the block's cells bb·cols + c, whose cell sits on row
  // p·b + bb and column col_perm[c].
  if (const auto* xc = dynamic_cast<const CrossbarWeightStore*>(
          &iface.consumer->weights())) {
    if (const FaultMatrix* fm = detected_for(detected, iface.layer + 1)) {
      const PruneMask* mask = prune.mask_for(iface.layer + 1);
      const std::size_t b = iface.consumer->rows_per_in_neuron();
      const std::size_t cols = xc->cols();
      const auto& col_perm = xc->mapping().col_perm();
      CollisionSets sets(m, b * cols, mask != nullptr);
      // Block q is both physical slot q (its stuck cells) and logical
      // neuron q (its mask rows).
      for (std::size_t q = 0; q < m; ++q) {
        for (std::size_t bb = 0; bb < b; ++bb) {
          for (std::size_t c = 0; c < cols; ++c) {
            sets.stuck(q, bb * cols + c, fm->at(q * b + bb, col_perm[c]));
            if (mask != nullptr && mask->at(q * b + bb, c))
              sets.prune(q, bb * cols + c);
          }
        }
      }
      sets.add_to(cost);
    }
  }
  return cost;
}

std::vector<std::size_t> hungarian_assignment(const InterfaceCost& cost) {
  // Kuhn-Munkres with potentials, O(n³) (e-maxx formulation, 1-indexed).
  const std::size_t n = cost.size();
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(n + 1, 0.0), v(n + 1, 0.0);
  std::vector<std::size_t> p(n + 1, 0), way(n + 1, 0);
  for (std::size_t i = 1; i <= n; ++i) {
    p[0] = i;
    std::size_t j0 = 0;
    std::vector<double> minv(n + 1, kInf);
    std::vector<bool> used(n + 1, false);
    do {
      used[j0] = true;
      const std::size_t i0 = p[j0];
      double delta = kInf;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= n; ++j) {
        if (used[j]) continue;
        const double cur = cost.at(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= n; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const std::size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  std::vector<std::size_t> perm(n, 0);
  for (std::size_t j = 1; j <= n; ++j) {
    if (p[j] != 0) perm[p[j] - 1] = j - 1;
  }
  return perm;
}

namespace {

std::vector<std::size_t> greedy_swap(const InterfaceCost& cost, Rng& rng) {
  const std::size_t m = cost.size();
  std::vector<std::size_t> perm = identity_perm(m);
  if (m < 2) return perm;
  const std::size_t trials = kGreedyTrialsPerNeuron * m;
  for (std::size_t t = 0; t < trials; ++t) {
    const std::size_t a = rng.uniform_index(m);
    std::size_t b = rng.uniform_index(m - 1);
    if (b >= a) ++b;
    const double before = cost.at(a, perm[a]) + cost.at(b, perm[b]);
    const double after = cost.at(a, perm[b]) + cost.at(b, perm[a]);
    if (after < before) std::swap(perm[a], perm[b]);
  }
  return perm;
}

/// Order crossover (OX) for permutations.
std::vector<std::size_t> ox_crossover(const std::vector<std::size_t>& a,
                                      const std::vector<std::size_t>& b,
                                      Rng& rng) {
  const std::size_t m = a.size();
  std::size_t lo = rng.uniform_index(m);
  std::size_t hi = rng.uniform_index(m);
  if (lo > hi) std::swap(lo, hi);
  std::vector<std::size_t> child(m, m);
  std::vector<bool> taken(m, false);
  for (std::size_t i = lo; i <= hi; ++i) {
    child[i] = a[i];
    taken[a[i]] = true;
  }
  std::size_t pos = (hi + 1) % m;
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t v = b[(hi + 1 + k) % m];
    if (taken[v]) continue;
    child[pos] = v;
    taken[v] = true;
    pos = (pos + 1) % m;
  }
  return child;
}

std::vector<std::size_t> genetic(const InterfaceCost& cost, Rng& rng) {
  const std::size_t m = cost.size();
  if (m < 2) return identity_perm(m);
  struct Individual {
    std::vector<std::size_t> perm;
    double fitness = 0.0;
  };
  std::vector<Individual> pop(kGaPopulation);
  for (std::size_t k = 0; k < kGaPopulation; ++k) {
    pop[k].perm = identity_perm(m);
    if (k > 0) rng.shuffle(pop[k].perm);
    pop[k].fitness = cost.total(pop[k].perm);
  }
  auto by_fitness = [](const Individual& a, const Individual& b) {
    return a.fitness < b.fitness;
  };
  std::sort(pop.begin(), pop.end(), by_fitness);

  auto tournament = [&]() -> const Individual& {
    std::size_t best = rng.uniform_index(kGaPopulation);
    for (std::size_t t = 1; t < kGaTournament; ++t) {
      const std::size_t c = rng.uniform_index(kGaPopulation);
      if (pop[c].fitness < pop[best].fitness) best = c;
    }
    return pop[best];
  };

  for (std::size_t gen = 0; gen < kGaGenerations; ++gen) {
    std::vector<Individual> next;
    next.reserve(kGaPopulation);
    for (std::size_t e = 0; e < kGaElites; ++e) next.push_back(pop[e]);
    while (next.size() < kGaPopulation) {
      Individual child;
      child.perm = ox_crossover(tournament().perm, tournament().perm, rng);
      if (rng.bernoulli(kGaMutationRate)) {
        const std::size_t a = rng.uniform_index(m);
        std::size_t b = rng.uniform_index(m - 1);
        if (b >= a) ++b;
        std::swap(child.perm[a], child.perm[b]);
      }
      child.fitness = cost.total(child.perm);
      next.push_back(std::move(child));
    }
    pop = std::move(next);
    std::sort(pop.begin(), pop.end(), by_fitness);
  }
  return pop.front().perm;
}

}  // namespace

std::vector<std::size_t> optimize_assignment(const InterfaceCost& cost,
                                             const RemapConfig& cfg,
                                             Rng& rng) {
  switch (cfg.algorithm) {
    case RemapAlgorithm::kNone:
      return identity_perm(cost.size());
    case RemapAlgorithm::kGreedySwap:
      return greedy_swap(cost, rng);
    case RemapAlgorithm::kGenetic:
      return genetic(cost, rng);
    case RemapAlgorithm::kHungarian:
      return hungarian_assignment(cost);
  }
  return identity_perm(cost.size());
}

PruneState compute_structured_pruning(Network& net, double neuron_sparsity) {
  REFIT_CHECK(neuron_sparsity >= 0.0 && neuron_sparsity < 1.0);
  PruneState state;
  for (const RemapInterface& iface : find_remap_interfaces(net)) {
    const std::size_t m = iface.neurons;
    const auto k = static_cast<std::size_t>(neuron_sparsity *
                                            static_cast<double>(m));
    if (k == 0) continue;
    const Tensor& wp = iface.producer->weights().target();
    const Tensor& wc = iface.consumer->weights().target();
    const std::size_t b = iface.consumer->rows_per_in_neuron();
    const std::size_t prod_rows = wp.dim(0);
    const std::size_t cons_cols = wc.dim(1);

    // Importance of neuron j: energy of its outgoing column plus incoming
    // row-block.
    std::vector<std::pair<double, std::size_t>> importance(m);
    for (std::size_t j = 0; j < m; ++j) {
      double e = 0.0;
      for (std::size_t i = 0; i < prod_rows; ++i) {
        const double v = wp.at(i, j);
        e += v * v;
      }
      for (std::size_t bb = 0; bb < b; ++bb) {
        for (std::size_t c = 0; c < cons_cols; ++c) {
          const double v = wc.at(j * b + bb, c);
          e += v * v;
        }
      }
      importance[j] = {e, j};
    }
    std::sort(importance.begin(), importance.end());

    PruneMask prod_mask{prod_rows, m,
                        std::vector<std::uint8_t>(prod_rows * m, 0)};
    PruneMask cons_mask{wc.dim(0), cons_cols,
                        std::vector<std::uint8_t>(wc.dim(0) * cons_cols, 0)};
    for (std::size_t r = 0; r < k; ++r) {
      const std::size_t j = importance[r].second;
      for (std::size_t i = 0; i < prod_rows; ++i)
        prod_mask.pruned[i * m + j] = 1;
      for (std::size_t bb = 0; bb < b; ++bb)
        for (std::size_t c = 0; c < cons_cols; ++c)
          cons_mask.pruned[(j * b + bb) * cons_cols + c] = 1;
    }
    state.merge_mask(iface.layer, prod_mask);
    state.merge_mask(iface.layer + 1, cons_mask);
  }
  return state;
}

RemapReport remap_network(Network& net, const DetectedFaults& detected,
                          const PruneState& prune, const RemapConfig& cfg,
                          Rng& rng) {
  RemapReport report;
  for (const RemapInterface& iface : find_remap_interfaces(net)) {
    const InterfaceCost cost = build_interface_cost(iface, detected, prune);
    const std::vector<std::size_t> cur = current_assignment(iface);
    const double before = cost.total(cur);
    std::vector<std::size_t> perm = optimize_assignment(cost, cfg, rng);
    double after = cost.total(perm);
    // Install only clear wins: a re-map rewrites every moved cell, so a
    // marginal cost reduction is a net loss.
    if (after >= before * (1.0 - kMinImprovement)) {
      perm = cur;
      after = before;
    }
    report.cost_before += before;
    report.cost_after += after;
    ++report.interfaces;
    if (perm == cur) continue;

    if (auto* xp = dynamic_cast<CrossbarWeightStore*>(
            &iface.producer->weights())) {
      xp->set_permutations(xp->mapping().row_perm(), perm);
    }
    if (auto* xc = dynamic_cast<CrossbarWeightStore*>(
            &iface.consumer->weights())) {
      const std::size_t b = iface.consumer->rows_per_in_neuron();
      std::vector<std::size_t> row_perm(iface.neurons * b);
      for (std::size_t j = 0; j < iface.neurons; ++j)
        for (std::size_t bb = 0; bb < b; ++bb)
          row_perm[j * b + bb] = perm[j] * b + bb;
      xc->set_permutations(row_perm, xc->mapping().col_perm());
    }
  }
  return report;
}

}  // namespace refit
