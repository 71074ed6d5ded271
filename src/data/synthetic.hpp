// Synthetic stand-ins for MNIST and CIFAR-10 (DESIGN.md §4).
//
// MNIST and CIFAR-10 are not available offline, so we synthesize 10-class
// image tasks from class prototypes plus sample-level jitter. The fault-
// tolerance mechanisms under study act on training *dynamics* (δw
// distribution, weight sparsity, fault/weight collisions), not on natural
// image statistics, so any learnable task with a comparable fault-free
// accuracy ceiling exercises the same code paths.
#pragma once

#include <cstddef>

#include "data/dataset.hpp"

namespace refit {

class Rng;

/// Knobs for the synthetic generators. Defaults give a fault-free accuracy
/// ceiling in the ~85-95 % range, mirroring the paper's 85.2 % ideal case.
/// Every sample is also translated by up to 2 pixels and scaled in
/// brightness by a factor in [0.75, 1.25].
struct SyntheticConfig {
  std::size_t train_size = 4096;
  std::size_t test_size = 1024;
  std::size_t num_classes = 10;
  /// Pixel-wise Gaussian noise added to every sample.
  float noise_stddev = 0.35f;
  /// Pixels below this value are clipped to exactly 0 (mimics MNIST's
  /// black background; ignored by the CIFAR-like generator, whose real
  /// counterpart is dense). Gives the sparse activations/gradients the
  /// paper's threshold-training statistics rely on.
  float background_clip = 0.25f;
};

/// MNIST-like task: 28×28 grayscale stroke digits, flattened to [N, 784]
/// (the paper's 784×100×10 MLP benchmark consumes this directly).
Dataset make_synthetic_mnist(const SyntheticConfig& cfg, Rng& rng);

/// CIFAR-like task: `hw`×`hw` RGB images [N, 3, hw, hw] built from smooth
/// random color-field prototypes (default 16×16; the paper's VGG-11 on
/// 32×32 CIFAR-10 is scaled down per DESIGN.md §4).
Dataset make_synthetic_cifar(const SyntheticConfig& cfg, Rng& rng,
                             std::size_t hw = 16);

}  // namespace refit
