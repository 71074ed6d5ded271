// det fixture: the header records the *configured* value handed in
// by the caller, not a machine query — identical output at any
// REFIT_THREADS setting. No findings.
void write_header(std::ostream& os, unsigned configured_threads) {
  os << configured_threads << "\n";
}

void write_step_count(std::ostream& os, const Config& cfg) {
  os << cfg.steps * cfg.batch << "\n";
}
