// Fixture: `#pragma once` appearing after another preprocessor line, plus
// `using namespace` at header scope.
#include <vector>
#pragma once
// EXPECT@4: pragma-once

using namespace std;  // EXPECT: using-namespace-header

inline int count_things(const std::vector<int>& v) {
  return static_cast<int>(v.size());
}
