// det fixture: unordered_map iteration order reaches two sinks —
// a CSV row stream and a rolling hash. Both orders are hash-seed- and
// insertion-dependent, so neither artifact is stable across runs.
#include <unordered_map>

void dump_counts(std::ostream& os) {
  std::unordered_map<int, double> counts = gather();
  for (const auto& kv : counts) {
    os << kv.first << "," << kv.second << "\n";  // EXPECT: unordered-iteration-to-output
  }
}

std::uint64_t digest(const std::unordered_map<int, double>& counts) {
  std::uint64_t h = 0;
  for (const auto& kv : counts) {
    h = hash_mix(h, kv.second);  // EXPECT: unordered-iteration-to-output
  }
  return h;
}
