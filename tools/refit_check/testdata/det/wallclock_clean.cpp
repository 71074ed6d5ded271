// det fixture: timing routed through the obs::Clock seam. The seam
// is the one sanctioned wall-clock reader (tests swap in ManualClock), so
// values derived from it are not flagged.
void write_row(std::ostream& os, const Clock& clock) {
  const std::uint64_t t_ns = clock.now_ns();
  os << t_ns << "\n";
}
