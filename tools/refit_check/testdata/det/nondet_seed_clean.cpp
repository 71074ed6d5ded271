// det fixture: every stream derives from the funneled config seed —
// the root Rng takes cfg.seed, per-layer streams come from Rng::split()
// with stable salts. Reproducible from one number; no findings.
void build_streams(const Config& cfg) {
  Rng root(cfg.seed);
  for (std::size_t layer = 0; layer < cfg.layers; ++layer) {
    Rng stream = root.split(layer);
    init_weights(stream);
  }
}
