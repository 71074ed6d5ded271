// Fixture: three-header include cycle (c -> d -> e -> c).
#pragma once
#include "d.hpp"  // EXPECT: include-cycle
