// refit-check — the project's static analyzer (docs/tooling.md).
//
// One driver, four rule families. The driver reads each file once and
// lexes and CFG-builds it once (common/cfg.hpp); every family then runs
// over that shared program:
//
//   lint   per-file token rules (lint_rules.cpp): concurrency and RNG
//          ownership, module layering, header hygiene, the obs seams
//   audit  cross-file rules (audit_rules.cpp): include cycles and
//          engine-phase purity
//   flow   per-function dataflow rules over the CFGs (flow_rules.cpp):
//          shared writes in pool lambdas, tile mutation without
//          invalidate(), dead must-use results, use after move
//   det    whole-program determinism taint (det_rules.cpp, det.hpp):
//          nondeterministic values reaching serialized artifacts or seeds
//
// Suppression is one tag for every family: `// refit-check: allow(rule)`
// on the offending line or the line above, `// refit-check:
// allow-file(rule)` within a file's first 10 lines. The tree must be
// clean, so a deliberate keep is an in-source allow with a comment saying
// why.
#pragma once

#include <string>
#include <vector>

#include "common/cfg.hpp"

namespace refit::check {

/// One rule violation. `chain` is the det family's source-to-sink path,
/// one "file:line: step" per hop (empty for the other families).
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::vector<std::string> chain;
};

/// Name + one-line description, for --list-rules and docs.
struct RuleInfo {
  const char* name;
  const char* description;
};

/// Every file of one run, lexed and CFG-built once.
using Program = std::vector<cfg::FileCfg>;

/// One rule family: its rules and the pass that checks them. Passes
/// append raw findings; the driver applies suppressions and sorts.
struct Family {
  const char* name;
  std::vector<RuleInfo> rules;
  void (*run)(const Program& program, std::vector<Finding>& out);
};

// The four families, one per *_rules.cpp.
[[nodiscard]] Family lint_family();
[[nodiscard]] Family audit_family();
[[nodiscard]] Family flow_family();
[[nodiscard]] Family det_family();

/// The rule registry: every family, in report order.
[[nodiscard]] const std::vector<Family>& families();

/// Run every family over `program`. In-source suppressions are applied;
/// findings come back sorted by (file, line, rule) with duplicates
/// dropped.
[[nodiscard]] std::vector<Finding> check_program(const Program& program);

}  // namespace refit::check
