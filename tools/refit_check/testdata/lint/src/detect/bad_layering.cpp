// Fixture: a src/detect file reaching up into core/ (and sideways into
// data/), both inversions of the module layering. Includes of its own
// module, of lower layers, and of system headers are fine.
#include <vector>

#include "core/engine.hpp"     // EXPECT: layering
#include "data/dataset.hpp"    // EXPECT: layering
#include "detect/quiescent_detector.hpp"
#include "rcs/crossbar_store.hpp"
#include "common/check.hpp"

void f() {}
