// det fixture: the same aggregation keyed by stable tile indices —
// std::map<int, …> iterates in index order, which is identical on every
// run. No findings.
#include <map>

void dump_hits(std::ostream& os) {
  std::map<int, int> hits = gather_hits();
  for (const auto& kv : hits) {
    os << kv.first << "," << kv.second << "\n";
  }
}
