// Reads of moved-from values: straight-line, across a conditional join,
// and a double move.
#include <string>
#include <utility>
#include <vector>

int reads_after_move(std::vector<int> v) {
  std::vector<int> w = std::move(v);
  return static_cast<int>(v.size());  // EXPECT: use-after-move
}

std::string conditional_move(std::string s, bool flip) {
  std::string t;
  if (flip) {
    t = std::move(s);
  }
  return s + t;  // EXPECT: use-after-move
}

void double_move(std::vector<int> v, std::vector<std::vector<int>>& sink) {
  sink.push_back(std::move(v));
  sink.push_back(std::move(v));  // EXPECT: use-after-move
}
