// det fixture: a std::map keyed by raw pointers iterates in address
// order, and addresses vary run to run under ASLR — the serialized rows
// are not reproducible even though the map itself is "ordered".
#include <map>

void dump_hits(std::ostream& os) {
  std::map<const Tile*, int> hits = gather_hits();
  for (const auto& kv : hits) {
    os << kv.second << "\n";  // EXPECT: pointer-order-dependence
  }
}
