// Fixture: a src/rcs header including detect/ — the detector depends on
// the crossbar stores, never the other way around.
#pragma once

#include "detect/quiescent_detector.hpp"  // EXPECT: layering
#include "rram/faults.hpp"
#include "nn/weight_store.hpp"
