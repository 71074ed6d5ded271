// det fixture: the deterministic way to serialize an unordered
// container — extract the keys, sort them, then emit. std::sort cleanses
// the iteration-order taint, so the rows are byte-stable.
#include <unordered_map>

void dump_sorted(std::ostream& os) {
  std::unordered_map<int, double> counts = gather();
  std::vector<int> keys;
  for (const auto& kv : counts) {
    keys.push_back(kv.first);
  }
  std::sort(keys.begin(), keys.end());
  for (const int k : keys) {
    os << k << "," << counts.at(k) << "\n";
  }
}
