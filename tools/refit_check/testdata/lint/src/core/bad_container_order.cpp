// Fixture: containers and casts whose order varies run to run in library
// code. A hash map iterates in hash-seed and insertion order, a map keyed
// by pointers in address order (ASLR), and a pointer cast to an integer
// carries the address itself. Each is flagged where it is declared, so
// whatever later iterates or hashes it no longer matters.
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>

void dump_counts(std::ostream& os) {
  std::unordered_map<int, double> counts = gather();  // EXPECT: container-order
  for (const auto& kv : counts) {
    os << kv.first << "," << kv.second << "\n";
  }
}

std::uint64_t digest(const std::unordered_set<int>& ids);  // EXPECT: container-order

void dump_hits(std::ostream& os) {
  std::map<const Tile*, int> hits = gather_hits();  // EXPECT: container-order
  for (const auto& kv : hits) {
    os << kv.second << "\n";
  }
}

using TileSet = std::set<Tile*>;  // EXPECT: container-order
using Nested = std::multimap<std::pair<Tile*, int>, int>;  // EXPECT: container-order

std::uint64_t address_key(const Tile* t) {
  return reinterpret_cast<std::uintptr_t>(t);  // EXPECT: container-order
}
