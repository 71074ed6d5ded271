// The det family's taint machinery (see check.hpp; the rules live in
// det_rules.cpp). The project's determinism contract (docs/determinism.md)
// says a run is reproducible from its config seed at any REFIT_THREADS:
// every RNG stream funnels through refit::Rng, wall-clock reads go through
// the obs::Clock seam, and serialized artifacts (CSV/JSON rows,
// checkpoints, golden hashes, metric samples) never depend on hash-map
// iteration order, pointer values, or the worker-thread count. The det
// rules check that contract statically: they mark *sources* of
// nondeterminism, propagate their taint through assignments, returns and
// call sites (interprocedural per-function summaries, computed to a
// fixpoint over the call graph), and report only when a tainted value
// reaches a *deterministic sink*.
//
//   nondet-seed-provenance       any tainted value reaches an RNG seed
//                                (Rng construction, .seed(), .split(),
//                                set_state(), srand, mt19937), or an
//                                entropy-derived value (std::random_device,
//                                getpid, time()) reaches any sink
//   unordered-iteration-to-output  unordered_map/unordered_set iteration
//                                order reaches serialized output / a golden
//                                hash / a metric sample
//   pointer-order-dependence     pointer-keyed container order or a
//                                pointer-to-integer cast reaches a sink
//   wallclock-to-output          a raw wall-clock read (outside the
//                                obs::Clock seam) reaches a sink
//   threadcount-value-dependence hardware_concurrency / thread-id /
//                                kFast-reduction values reach a sink
//
// The family's scope is the determinism-contract code: files under tests/
// and tools/ construct nondeterminism on purpose and are left out, so a
// run over the tree analyzes src/, bench/ and examples/. This header
// exposes the interprocedural machinery so the unit tests can probe it.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/cfg.hpp"

namespace refit::det {

// ---------------------------------------------------------------------------
// Taint domain
// ---------------------------------------------------------------------------

/// A taint mask. Low bits are the rule-triggering taints; kUnorderedCont /
/// kPtrKeyedCont mark values that *are* hash-ordered containers (holding
/// one is harmless — iterating it converts the bit into kUnorderedIter /
/// kPointerOrder); bits 8..8+kMaxParams-1 are pseudo-taints standing for
/// "the value of parameter i", the currency of function summaries.
using Taint = std::uint32_t;

inline constexpr Taint kWallclock = 1u << 0;
inline constexpr Taint kNondetSeed = 1u << 1;
inline constexpr Taint kUnorderedIter = 1u << 2;
inline constexpr Taint kPointerOrder = 1u << 3;
inline constexpr Taint kThreadCount = 1u << 4;
inline constexpr Taint kUnorderedCont = 1u << 5;
inline constexpr Taint kPtrKeyedCont = 1u << 6;

/// The five taints that trigger findings at a sink.
inline constexpr Taint kRuleMask = kWallclock | kNondetSeed | kUnorderedIter |
                                   kPointerOrder | kThreadCount;

/// Parameters tracked per function; later parameters are ignored (a
/// conservative loss of precision).
inline constexpr int kMaxParams = 8;
inline constexpr Taint param_bit(int i) { return Taint{1} << (8 + i); }
inline constexpr Taint kParamMask = ((Taint{1} << kMaxParams) - 1) << 8;

// ---------------------------------------------------------------------------
// Interprocedural machinery
// ---------------------------------------------------------------------------

/// What kind of deterministic sink a tainted value reached.
enum class SinkKind { kOutput, kHash, kMetric, kRngSeed };

/// A sink inside a function that parameter `param`'s value reaches.
/// `steps` is the intra-function chain fragment (param → sink); call sites
/// prepend their argument's chain when applying the summary.
struct SinkHit {
  SinkKind kind = SinkKind::kOutput;
  int param = 0;
  std::string file;
  int line = 0;
  std::string subject;  ///< variable name at the sink (the finding's subject)
  std::vector<std::string> steps;
};

/// Per-function summary, keyed by unqualified name (same-named functions
/// are joined — conservative). Fixpoint convergence compares only the
/// masks and the (kind, param, file, line) sink signature, never chains.
struct Summary {
  /// Taints the return value carries (rule bits and container bits both).
  Taint ret_taint = 0;
  std::uint32_t param_to_ret = 0;  ///< bit i: arg i flows to the return
  std::vector<SinkHit> param_sinks;
  std::map<Taint, std::vector<std::string>> ret_chains;  ///< per-bit, first-wins
};

/// name → set of callee names (only calls to functions defined somewhere
/// in the analyzed file set; unknown externals are not edges).
struct CallGraph {
  std::map<std::string, std::set<std::string>> callees;
};

/// The files the det family analyzes, as pointers into a program.
using Files = std::vector<const refit::cfg::FileCfg*>;

/// True unless `path` lies under tests/ or tools/ (see the header comment).
[[nodiscard]] bool in_scope(const std::string& path);

[[nodiscard]] CallGraph build_call_graph(const Files& files);

/// The whole-program summary fixpoint, without the reporting pass.
[[nodiscard]] std::map<std::string, Summary> compute_summaries(
    const Files& files);

}  // namespace refit::det
