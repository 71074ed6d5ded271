// TAB_SENS — reproduction of §6.4's sensitivity claims: sweeping the
// initial hard-fault ratio shows that Conv layers are fragile (the
// entire-CNN case collapses towards chance once >20-30 % of cells are
// faulty) while the FC-only mapping stays usable up to ~50 %.
#include <iostream>

#include "bench_util.hpp"

using namespace refit;
using namespace refit::bench;

int main() {
  const std::size_t iters = scaled(800);
  const Dataset data = cifar_like();
  const VggMiniConfig vc = vgg_mini_config();
  const FtFlowConfig cfg = cnn_flow(iters);

  SeriesPrinter out(std::cout, "TAB_SENS accuracy vs initial fault ratio");
  out.paper_reference(
      "entire-CNN drops to ~10% beyond 20% faulty cells; FC-only only "
      "degrades once the fault ratio exceeds ~50%");
  out.header({"fault_fraction", "entire_cnn_peak", "fc_only_peak"});

  for (const double fault : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    RcsConfig rc = rcs_defaults();
    rc.inject_fabrication = fault > 0.0;
    rc.fabrication.fraction = fault;

    double entire = 0.0, fc_only = 0.0;
    {
      Rng rng(2);
      RcsSystem sys(rc, Rng(42));
      Network net = make_vgg_mini(vc, sys.factory(), sys.factory(), rng);
      entire = FtEngine(cfg).run(net, &sys, data, Rng(3)).peak_accuracy;
    }
    {
      Rng rng(2);
      RcsSystem sys(rc, Rng(42));
      Network net = make_vgg_mini(vc, software_store_factory(),
                                  sys.factory(), rng);
      fc_only = FtEngine(cfg).run(net, &sys, data, Rng(3)).peak_accuracy;
    }
    out.row({fault, entire, fc_only});
  }
  return 0;
}
