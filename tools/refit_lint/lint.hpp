// refit-lint — REFIT-specific static analysis (see docs/tooling.md).
//
// A deliberately dependency-free token-level linter: no clang tooling, no
// external parser. It lexes C++ well enough to skip comments, strings and
// preprocessor lines, then pattern-matches the token stream against the
// project invariants that reviewers used to police by hand:
//
//   concurrency          std::thread / std::async / std::mutex … outside
//                        common/thread_pool (all fan-out goes through the
//                        pool so REFIT_THREADS and TSan cover it)
//   randomness           rand() / std::random_device / std::mt19937 …
//                        outside common/rng (every stochastic component
//                        must be reproducible from one seed)
//   tile-invalidate      mutating a crossbar tile via store.tile(..)
//                        without a nearby invalidate() (keeps the
//                        read-out panel and write/fault aggregates in sync)
//   using-namespace-header  `using namespace` in a header
//   dcheck-side-effect   ++/--/assignment inside REFIT_DCHECK(...), which
//                        compiles away under NDEBUG
//   pragma-once          headers must open with `#pragma once` before any
//                        code or other preprocessor line
//   file-header          every file starts with a `//` purpose comment
//   layering             #include pointing against the module dependency
//                        order (common → tensor → nn → rcs → detect →
//                        core; e.g. src/detect must not include core/)
//   device-encoding      direct Crossbar conductance-mutator calls
//                        (force_fault / force_soft_fault / strong_write /
//                        drift_toward / decay_soft_faults) outside the
//                        device-physics owners (src/device, src/rram,
//                        rcs/crossbar_store)
//
// Suppression: `// refit-lint: allow(rule[, rule…])` on the offending line
// or the line directly above; `// refit-lint: allow-file(rule)` within the
// first 10 lines disables a rule for the whole file.
#pragma once

#include <string>
#include <vector>

namespace refit::lint {

/// One rule violation at a specific source location.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Name + one-line description, for --list-rules and docs.
struct RuleInfo {
  const char* name;
  const char* description;
};

/// All rules the linter knows, in report order.
const std::vector<RuleInfo>& rules();

/// Lint one translation unit. `path` is used both for reporting and for
/// path-based exemptions (common/thread_pool, common/rng, rcs/crossbar_store
/// own the primitives their rules fence off). Findings are returned sorted
/// by line; suppressed findings are dropped.
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content);

}  // namespace refit::lint
