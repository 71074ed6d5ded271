// Network checkpoint (de)serialization (see network_io.hpp).
#include "nn/network_io.hpp"

#include <istream>
#include <ostream>

#include "common/serialize.hpp"

namespace refit {

namespace {
constexpr std::uint64_t kNetTag = 0x52454649544e4554ULL;  // "REFITNET"
}  // namespace

void save_network_weights(Network& net, std::ostream& os) {
  ser::write_tag(os, kNetTag);
  const auto params = net.params();
  ser::write_pod<std::uint64_t>(os, params.size());
  for (const Param& p : params) {
    if (p.store != nullptr) {
      write_tensor(os, p.store->target());
    } else {
      REFIT_CHECK(p.value != nullptr);
      write_tensor(os, *p.value);
    }
  }
}

void load_network_weights(Network& net, std::istream& is) {
  ser::expect_tag(is, kNetTag);
  auto params = net.params();
  const auto count = ser::read_pod<std::uint64_t>(is);
  REFIT_CHECK_MSG(count == params.size(),
                  "checkpoint has " << count << " parameters, network has "
                                    << params.size());
  for (Param& p : params) {
    Tensor t = read_tensor(is);
    if (p.store != nullptr) {
      REFIT_CHECK_MSG(t.shape() == p.store->shape(),
                      "checkpoint shape mismatch for " << p.name);
      p.store->assign(t);
    } else {
      REFIT_CHECK_MSG(t.shape() == p.value->shape(),
                      "checkpoint shape mismatch for " << p.name);
      *p.value = std::move(t);
    }
  }
}

}  // namespace refit
