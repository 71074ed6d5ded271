// refit-flow phase 2 — dataflow rules over the per-function CFGs that
// cfg.hpp builds (docs/tooling.md has the catalogue and worked examples).
//
//   parallel-shared-write    inside a lambda handed to ThreadPool::
//                            parallel_for / parallel_for_grained /
//                            TileGrid::for_each_tile, a write to a
//                            variable declared *outside* the lambda that
//                            is not a subscripted element (`out[i] = ...`
//                            is the pool's per-lane contract), not a
//                            std::atomic, and not dominated by a lock
//                            statement. Static partitioning makes reads
//                            race-free; a shared scalar write never is.
//   mutation-without-invalidate
//                            a statement mutates crossbar tile state
//                            through CrossbarWeightStore::tile() (direct
//                            chain or via a saved reference) and some path
//                            reaches the function exit with no
//                            invalidate() / mark_pack_dirty() /
//                            resync_counters() — the store's read-out
//                            panel goes stale.
//   unchecked-must-use       a call to save_checkpoint / load_checkpoint /
//                            detect / detect_store / forward_matmul whose
//                            result is discarded, or bound to a variable
//                            that is dead on every path to exit. These
//                            APIs report faults/IO status; dropping the
//                            result hides real failures.
//   use-after-move           reaching-definitions over std::move(x): any
//                            read of x while a move reaches it and no
//                            reassignment / .clear() / .reset() / .assign()
//                            intervenes.
//
// Findings ratchet against tools/refit_flow/baseline.txt exactly like
// refit-audit: keys are (rule, file, detail) — never line numbers — so
// unrelated edits cannot unfreeze frozen debt. In-source suppression uses
// the shared syntax with this tool's tag: `// refit-flow: allow(rule)`.
#pragma once

#include <iosfwd>
#include <set>
#include <string>
#include <vector>

#include "common/cfg.hpp"

namespace refit::flow {

// The CFG layer lives in tools/common (shared with refit-det); the flow
// rules and their tests keep addressing it as refit::flow.
using cfg::BasicBlock;
using cfg::build_file_cfg;
using cfg::dump_cfg;
using cfg::FileCfg;
using cfg::FunctionCfg;
using cfg::in_nested_body;
using cfg::Stmt;

/// One dataflow violation. `detail` is the stable identity — typically
/// "<function>:<variable-or-callee>" — the baseline keys on.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::string detail;

  /// Baseline key: "<rule> <file> <detail>".
  [[nodiscard]] std::string key() const;
};

/// Name + one-line description, for --list-rules and docs.
struct RuleInfo {
  const char* name;
  const char* description;
};

/// All rules refit-flow knows, in report order.
const std::vector<RuleInfo>& rules();

struct AnalyzeOptions {
  /// Paths with owner-side exemptions are matched by suffix against the
  /// scanned path (defaults cover the store and pool implementations,
  /// which legitimately touch their own internals).
  bool apply_path_exemptions = true;
};

/// Run every dataflow rule over one file's CFGs. Findings are sorted by
/// (line, rule, detail); in-source suppressions are already applied.
[[nodiscard]] std::vector<Finding> analyze_file(const FileCfg& file,
                                                const AnalyzeOptions& opts);

// ---------------------------------------------------------------------------
// Baseline ratchet (same shape and semantics as refit-audit's)
// ---------------------------------------------------------------------------

/// The checked-in debt freeze: one `<rule> <file> <detail>` key per line,
/// `#` comments and blank lines ignored.
struct Baseline {
  std::set<std::string> keys;

  [[nodiscard]] static Baseline parse(std::istream& is);
  [[nodiscard]] bool covers(const Finding& f) const {
    return keys.count(f.key()) > 0;
  }
};

/// Splits findings into `fresh` (fail CI) and `frozen` (baselined), and
/// returns the baseline keys that no longer match anything (stale —
/// regenerate with scripts/flow_baseline.sh).
struct RatchetResult {
  std::vector<Finding> fresh;
  std::vector<Finding> frozen;
  std::vector<std::string> stale;
};
[[nodiscard]] RatchetResult apply_baseline(const std::vector<Finding>& findings,
                                           const Baseline& baseline);

}  // namespace refit::flow
