// Fixture: the same aggregations keyed by stable indices — a vector
// indexed by layer, std::map over ids, pointers only as values — iterate
// identically on every run. Must lint clean.
#include <map>
#include <set>
#include <vector>

void dump_hits(std::ostream& os) {
  std::map<int, int> hits = gather_hits();
  for (const auto& kv : hits) {
    os << kv.first << "," << kv.second << "\n";
  }
}

std::vector<FaultMatrix> detected_by_layer(std::size_t layers) {
  return std::vector<FaultMatrix>(layers);
}

std::map<std::size_t, const Tile*> tiles_by_index;
std::set<std::pair<int, int>> cells;

void configure(Gauge& g) { g.set(1.0); }

const char* as_bytes(const float* p) {
  return reinterpret_cast<const char*>(p);
}
