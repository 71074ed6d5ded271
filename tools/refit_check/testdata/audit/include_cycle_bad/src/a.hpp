// Fixture: two-header include cycle (a <-> b).
#pragma once
#include "b.hpp"  // EXPECT: include-cycle
