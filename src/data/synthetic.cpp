// Synthetic classification-task generators (see synthetic.hpp).
#include "data/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace refit {

namespace {

// Maximum random translation (pixels) applied per sample.
constexpr int kMaxShift = 2;
// Per-sample brightness scaling range [1-a, 1+a].
constexpr double kAmplitudeJitter = 0.25;

/// Draw `strokes` random-walk strokes into `img` (size hw×hw).
void draw_strokes(std::vector<float>& img, std::size_t hw, int strokes,
                  Rng& rng) {
  const int n = static_cast<int>(hw);
  for (int s = 0; s < strokes; ++s) {
    // Random walk with momentum from a random start.
    double x = rng.uniform(0.2, 0.8) * n;
    double y = rng.uniform(0.2, 0.8) * n;
    double angle = rng.uniform(0.0, 2.0 * 3.14159265358979);
    const int steps = n * 2;
    for (int t = 0; t < steps; ++t) {
      angle += rng.normal(0.0, 0.35);
      x += std::cos(angle);
      y += std::sin(angle);
      x = std::clamp(x, 1.0, static_cast<double>(n - 2));
      y = std::clamp(y, 1.0, static_cast<double>(n - 2));
      // Stamp a 3×3 soft dot.
      const int cx = static_cast<int>(x), cy = static_cast<int>(y);
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx) {
          const int px = cx + dx, py = cy + dy;
          const float w = (dx == 0 && dy == 0) ? 1.0f : 0.4f;
          auto& pix = img[static_cast<std::size_t>(py) * hw +
                          static_cast<std::size_t>(px)];
          pix = std::min(1.0f, pix + w);
        }
    }
  }
}

/// A grayscale prototype: shared base strokes (common to every class, so
/// classes overlap heavily) plus a small number of class-specific strokes.
/// Classification therefore hinges on fine features — like real digits —
/// which makes the task sensitive to network damage instead of trivially
/// margin-dominated.
std::vector<float> make_stroke_prototype(std::size_t hw,
                                         const std::vector<float>& base,
                                         Rng& rng) {
  std::vector<float> img = base;
  draw_strokes(img, hw, static_cast<int>(rng.uniform_int(1, 2)), rng);
  return img;
}

/// Add `blobs` Gaussian blobs to an RGB field.
void add_blobs(std::vector<float>& img, std::size_t hw, int blobs,
               double sigma_lo, double sigma_hi, double amp_lo,
               double amp_hi, Rng& rng) {
  const std::size_t ch = 3;
  for (int b = 0; b < blobs; ++b) {
    const std::size_t c = rng.uniform_index(ch);
    const double mx = rng.uniform(0.15, 0.85) * static_cast<double>(hw);
    const double my = rng.uniform(0.15, 0.85) * static_cast<double>(hw);
    const double sigma = rng.uniform(sigma_lo, sigma_hi);
    double amp = rng.uniform(amp_lo, amp_hi);
    if (rng.bernoulli(0.5)) amp = -amp;
    for (std::size_t y = 0; y < hw; ++y)
      for (std::size_t x = 0; x < hw; ++x) {
        const double dx = static_cast<double>(x) - mx;
        const double dy = static_cast<double>(y) - my;
        img[(c * hw + y) * hw + x] += static_cast<float>(
            amp * std::exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma)));
      }
  }
}

/// An RGB prototype: a smooth base color field *shared by every class*
/// plus a few small class-specific bumps. Classes overlap in their global
/// statistics and differ only in localized features, so the task needs
/// real (conv) feature extraction and degrades when the network is
/// damaged — mirroring CIFAR-10's difficulty profile rather than a
/// trivially separable mixture.
std::vector<float> make_blob_prototype(std::size_t hw,
                                       const std::vector<float>& base,
                                       Rng& rng) {
  std::vector<float> img = base;
  add_blobs(img, hw, 3, 1.0, 2.2, 0.5, 0.9, rng);
  return img;
}

/// Copy `proto` (layout [C, hw, hw]) into `out` with an integer translation;
/// out-of-range pixels become 0.
void shifted_copy(const std::vector<float>& proto, std::size_t ch,
                  std::size_t hw, int sx, int sy, float* out) {
  for (std::size_t c = 0; c < ch; ++c)
    for (std::size_t y = 0; y < hw; ++y)
      for (std::size_t x = 0; x < hw; ++x) {
        const int px = static_cast<int>(x) - sx;
        const int py = static_cast<int>(y) - sy;
        float v = 0.0f;
        if (px >= 0 && py >= 0 && px < static_cast<int>(hw) &&
            py < static_cast<int>(hw)) {
          v = proto[(c * hw + static_cast<std::size_t>(py)) * hw +
                    static_cast<std::size_t>(px)];
        }
        out[(c * hw + y) * hw + x] = v;
      }
}

void synthesize_split(const std::vector<std::vector<float>>& protos,
                      std::size_t ch, std::size_t hw,
                      const SyntheticConfig& cfg, bool clip_background,
                      std::size_t count, Rng& rng, Tensor& images,
                      std::vector<std::uint8_t>& labels) {
  const std::size_t per_img = ch * hw * hw;
  labels.resize(count);
  std::vector<float> shifted(per_img);
  for (std::size_t i = 0; i < count; ++i) {
    const auto cls =
        static_cast<std::uint8_t>(rng.uniform_index(protos.size()));
    labels[i] = cls;
    const int sx = static_cast<int>(rng.uniform_int(-kMaxShift, kMaxShift));
    const int sy = static_cast<int>(rng.uniform_int(-kMaxShift, kMaxShift));
    shifted_copy(protos[cls], ch, hw, sx, sy, shifted.data());
    const float amp = static_cast<float>(
        rng.uniform(1.0 - kAmplitudeJitter, 1.0 + kAmplitudeJitter));
    float* dst = images.data() + i * per_img;
    for (std::size_t p = 0; p < per_img; ++p) {
      float v = amp * shifted[p] +
                static_cast<float>(rng.normal(0.0, cfg.noise_stddev));
      if (clip_background && v < cfg.background_clip) v = 0.0f;
      dst[p] = v;
    }
  }
}

}  // namespace

Dataset make_synthetic_mnist(const SyntheticConfig& cfg, Rng& rng) {
  REFIT_CHECK(cfg.num_classes >= 2);
  const std::size_t hw = 28;
  Rng proto_rng = rng.split(0x6d6e6973ULL);  // fixed salt: prototypes are
                                             // independent of sample count
  std::vector<float> base(hw * hw, 0.0f);
  draw_strokes(base, hw, 2, proto_rng);
  std::vector<std::vector<float>> protos;
  protos.reserve(cfg.num_classes);
  for (std::size_t c = 0; c < cfg.num_classes; ++c)
    protos.push_back(make_stroke_prototype(hw, base, proto_rng));

  Dataset d;
  d.num_classes = cfg.num_classes;
  d.train_images = Tensor({cfg.train_size, hw * hw});
  d.test_images = Tensor({cfg.test_size, hw * hw});
  Rng train_rng = rng.split(1);
  Rng test_rng = rng.split(2);
  synthesize_split(protos, 1, hw, cfg, /*clip_background=*/true,
                   cfg.train_size, train_rng, d.train_images,
                   d.train_labels);
  synthesize_split(protos, 1, hw, cfg, /*clip_background=*/true,
                   cfg.test_size, test_rng, d.test_images, d.test_labels);
  return d;
}

Dataset make_synthetic_cifar(const SyntheticConfig& cfg, Rng& rng,
                             std::size_t hw) {
  REFIT_CHECK(cfg.num_classes >= 2 && hw >= 8);
  Rng proto_rng = rng.split(0x63696661ULL);
  std::vector<float> base(3 * hw * hw, 0.0f);
  add_blobs(base, hw, 6, 2.5, static_cast<double>(hw) / 2.5, 0.4, 0.9,
            proto_rng);
  std::vector<std::vector<float>> protos;
  protos.reserve(cfg.num_classes);
  for (std::size_t c = 0; c < cfg.num_classes; ++c)
    protos.push_back(make_blob_prototype(hw, base, proto_rng));

  Dataset d;
  d.num_classes = cfg.num_classes;
  d.train_images = Tensor({cfg.train_size, 3, hw, hw});
  d.test_images = Tensor({cfg.test_size, 3, hw, hw});
  Rng train_rng = rng.split(1);
  Rng test_rng = rng.split(2);
  synthesize_split(protos, 3, hw, cfg, /*clip_background=*/false,
                   cfg.train_size, train_rng, d.train_images,
                   d.train_labels);
  synthesize_split(protos, 3, hw, cfg, /*clip_background=*/false,
                   cfg.test_size, test_rng, d.test_images, d.test_labels);
  return d;
}

}  // namespace refit
