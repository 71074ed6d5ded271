// The det family (see det.hpp for the rule catalogue): whole-program
// determinism taint analysis. The engine is a classic two-level fixpoint:
//
//   inner   per-function forward dataflow over the shared CFG, state =
//           variable → taint mask (+ per-bit provenance chain, printed
//           under each finding). Sources introduce bits,
//           assignments/returns/calls propagate them, sort() cleanses
//           ordering bits, and sinks consume them.
//   outer   per-function summaries (return taint, param→return flow,
//           param→sink hits) joined to a fixpoint over the call graph:
//           when a function's summary grows, its callers are re-analyzed.
//           Joins are monotone over finite masks, so both levels
//           terminate; chains are first-wins and never drive convergence.
//
// Everything is token-grounded and unresolved (no types, no overloads):
// same-named functions share one summary, member state is tracked per
// root variable, and lambda captures are not propagated. Conservative in
// both directions — `// refit-check: allow(rule)` with a justifying
// comment marks a deliberate keep or a point false positive.
#include "det.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <map>
#include <set>
#include <string>

#include "check.hpp"

namespace refit::det {

namespace {

using refit::check::Finding;
using refit::cfg::BasicBlock;
using refit::cfg::FileCfg;
using refit::cfg::FunctionCfg;
using refit::cfg::in_nested_body;
using refit::cfg::is_assign_op;
using refit::cfg::is_decl_name_at;
using refit::cfg::is_ident;
using refit::cfg::is_punct;
using refit::cfg::Stmt;
using refit::lint::match_brace;
using refit::lint::match_paren;
using refit::lint::Token;
using refit::lint::TokKind;

std::string lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  return out;
}

std::string loc(const std::string& file, int line) {
  return file + ":" + std::to_string(line);
}

template <typename F>
void for_each_bit(Taint mask, F f) {
  for (Taint b = 1; b != 0; b <<= 1)
    if (mask & b) f(b);
}

// ---------------------------------------------------------------------------
// Taint values and expression info
// ---------------------------------------------------------------------------

using Chain = std::vector<std::string>;

/// Taint state of one variable: mask + a provenance chain per bit.
/// Chains are first-wins (set when the bit first arrives, never replaced),
/// which keeps them bounded under loops and recursion.
struct Val {
  Taint mask = 0;
  std::map<Taint, Chain> chains;
};

void join_val(Val& into, const Val& from) {
  into.mask |= from.mask;
  for (const auto& [bit, ch] : from.chains) into.chains.emplace(bit, ch);
}

/// Result of evaluating an expression range: taints plus, per bit, the
/// name that carried it (the finding's `subject`).
struct ExprInfo {
  Taint mask = 0;
  std::map<Taint, Chain> chains;
  std::map<Taint, std::string> carriers;

  void add(Taint bits, const Chain& chain, const std::string& carrier) {
    mask |= bits;
    for_each_bit(bits, [&](Taint b) {
      chains.emplace(b, chain);
      carriers.emplace(b, carrier);
    });
  }
  void merge(const ExprInfo& o) {
    mask |= o.mask;
    for (const auto& [b, c] : o.chains) chains.emplace(b, c);
    for (const auto& [b, s] : o.carriers) carriers.emplace(b, s);
  }
  [[nodiscard]] Val to_val() const {
    Val v;
    v.mask = mask;
    v.chains = chains;
    return v;
  }
};

using State = std::map<std::string, Val>;

// ---------------------------------------------------------------------------
// Program-wide context (pre-pass results)
// ---------------------------------------------------------------------------

struct ProgramCtx {
  const Files* files = nullptr;
  std::set<std::string> known_fns;  ///< non-lambda function names, all files
  std::set<std::string> unordered_aliases;  ///< `using X = unordered_…`
  std::set<std::string> ptr_aliases;        ///< `using X = map<T*, …>`
  std::map<std::string, Summary>* summaries = nullptr;
};

/// Per-function analysis context. `sum`/`findings`/`emitted` may point to
/// scratch storage during the fixpoint rounds.
struct FnCtx {
  const ProgramCtx* prog = nullptr;
  const FileCfg* file = nullptr;
  int fn_idx = 0;
  std::string owner;  ///< nearest named enclosing function (dedup key)
  std::set<std::string> ostream_vars;
  std::set<std::string> metric_vars;
  Summary* sum = nullptr;
  std::vector<Finding>* findings = nullptr;  ///< null during fixpoint rounds
  std::set<std::string>* emitted = nullptr;  ///< dedup keys across the program
};

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Rule-bit taint introduced by the identifier at `i`, with a human
/// description for the chain. Checked before the member/qualified filters
/// so `std::chrono::steady_clock::now()` still registers.
Taint source_bits(const std::vector<Token>& toks, std::size_t i,
                  std::size_t limit, const char** desc) {
  static const std::set<std::string> kWallclockNames = {
      "steady_clock", "system_clock", "high_resolution_clock", "clock_gettime",
      "gettimeofday"};
  static const std::set<std::string> kEntropyNames = {"random_device",
                                                      "getpid", "getentropy"};
  static const std::set<std::string> kThreadNames = {"hardware_concurrency",
                                                     "this_thread"};
  const std::string& name = toks[i].text;
  if (kWallclockNames.count(name)) {
    *desc = "raw wall-clock read outside the obs::Clock seam";
    return kWallclock;
  }
  if (kEntropyNames.count(name)) {
    *desc = "entropy read (varies every run)";
    return kNondetSeed;
  }
  if (kThreadNames.count(name)) {
    *desc = "worker-thread count / thread identity";
    return kThreadCount;
  }
  // time(...) as a call — the classic nondeterministic seed.
  if (name == "time" && i + 1 < limit && is_punct(toks[i + 1], "(") &&
      (i == 0 || (!is_punct(toks[i - 1], ".") && !is_punct(toks[i - 1], "->")))) {
    *desc = "time() wall-clock read";
    return kWallclock;
  }
  // reinterpret_cast<uintptr_t>(p) — a pointer value laundered to integer.
  if (name == "reinterpret_cast") {
    for (std::size_t j = i + 1; j < limit && j < i + 6; ++j)
      if (toks[j].kind == TokKind::kIdent &&
          (toks[j].text == "uintptr_t" || toks[j].text == "intptr_t")) {
        *desc = "pointer value cast to integer (addresses vary run to run)";
        return kPointerOrder;
      }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Declaration classification (container / stream / metric types)
// ---------------------------------------------------------------------------

/// True if `map`/`set`-ish ident at `i` opens a template whose first
/// argument mentions a pointer (`map<const Tile*, …>`).
bool ptr_keyed_at(const std::vector<Token>& toks, std::size_t i,
                  std::size_t limit) {
  static const std::set<std::string> kMapNames = {
      "map", "set", "multimap", "multiset", "unordered_map", "unordered_set",
      "unordered_multimap", "unordered_multiset", "flat_map", "flat_set"};
  if (!kMapNames.count(toks[i].text)) return false;
  if (i + 1 >= limit || !is_punct(toks[i + 1], "<")) return false;
  for (std::size_t j = i + 2; j < limit && j < i + 32; ++j) {
    if (toks[j].kind == TokKind::kPunct &&
        (toks[j].text == "," || toks[j].text == ">" || toks[j].text == ">>" ||
         toks[j].text == ";"))
      return false;
    if (is_punct(toks[j], "*")) return true;
  }
  return false;
}

/// Container-class bits implied by the type tokens in [a, b).
Taint container_bits_in_range(const ProgramCtx& prog,
                              const std::vector<Token>& toks, std::size_t a,
                              std::size_t b) {
  Taint bits = 0;
  for (std::size_t i = a; i < b; ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& name = toks[i].text;
    if (name.rfind("unordered_", 0) == 0) bits |= kUnorderedCont;
    if (prog.unordered_aliases.count(name)) bits |= kUnorderedCont;
    if (prog.ptr_aliases.count(name)) bits |= kPtrKeyedCont;
    if (ptr_keyed_at(toks, i, b)) bits |= kPtrKeyedCont;
  }
  return bits;
}

bool range_has_ident(const std::vector<Token>& toks, std::size_t a,
                     std::size_t b, const std::set<std::string>& names) {
  for (std::size_t i = a; i < b; ++i)
    if (toks[i].kind == TokKind::kIdent && names.count(toks[i].text))
      return true;
  return false;
}

const std::set<std::string>& ostream_type_names() {
  static const std::set<std::string> kNames = {"ostream", "ofstream",
                                               "ostringstream"};
  return kNames;
}
const std::set<std::string>& metric_type_names() {
  static const std::set<std::string> kNames = {"Gauge", "Counter", "Histogram"};
  return kNames;
}

// ---------------------------------------------------------------------------
// Declaration helpers
// ---------------------------------------------------------------------------

/// Relaxed declaration check that also accepts template types whose
/// arguments contain commas (`std::map<int, double> m = …`), which the
/// strict backward scan rejects. The name must still be preceded by a
/// type-shaped token and followed by an initializer/terminator.
bool decl_name_like(const std::vector<Token>& toks, const Stmt& st,
                    std::size_t i) {
  if (is_decl_name_at(toks, st, i)) return true;
  if (toks[i].kind != TokKind::kIdent || i == st.first) return false;
  static const std::set<std::string> kFollow = {"=", "{", "(", ";", ","};
  if (i + 1 >= st.last || toks[i + 1].kind != TokKind::kPunct ||
      !kFollow.count(toks[i + 1].text))
    return false;
  static const std::set<std::string> kBlockers = {
      "return", "delete", "throw", "new", "case", "goto", "co_return"};
  const Token& prev = toks[i - 1];
  if (prev.kind == TokKind::kIdent) return !kBlockers.count(prev.text);
  return is_punct(prev, ">") || is_punct(prev, ">>") || is_punct(prev, "*") ||
         is_punct(prev, "&") || is_punct(prev, "&&");
}

/// The name findings key on: the nearest *named* enclosing function.
std::string owner_name(const FileCfg& file, int idx) {
  int i = idx;
  while (i >= 0 && file.functions[i].is_lambda)
    i = file.functions[i].enclosing;
  return i >= 0 ? file.functions[i].name : "<lambda>";
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

const char* sink_desc(SinkKind k) {
  switch (k) {
    case SinkKind::kOutput: return "serialized output";
    case SinkKind::kHash: return "a golden hash";
    case SinkKind::kMetric: return "a metric sample";
    case SinkKind::kRngSeed: return "an RNG seed";
  }
  return "a sink";
}

std::string rule_for(SinkKind kind, Taint bit) {
  if (kind == SinkKind::kRngSeed) return "nondet-seed-provenance";
  switch (bit) {
    case kWallclock: return "wallclock-to-output";
    case kNondetSeed: return "nondet-seed-provenance";
    case kUnorderedIter: return "unordered-iteration-to-output";
    case kPointerOrder: return "pointer-order-dependence";
    case kThreadCount: return "threadcount-value-dependence";
    default: return "";
  }
}

std::string message_for(const std::string& rule, const std::string& subject,
                        SinkKind kind) {
  const std::string sink = sink_desc(kind);
  if (rule == "nondet-seed-provenance") {
    if (kind == SinkKind::kRngSeed)
      return "'" + subject + "' carries nondeterministic state into an RNG "
             "seed — the stream is no longer reproducible from the config "
             "seed; derive it with Rng::split() from the funneled root seed";
    return "'" + subject + "' is entropy-derived and reaches " + sink +
           " — runs cannot be reproduced from the config seed";
  }
  if (rule == "unordered-iteration-to-output")
    return "'" + subject + "' carries unordered-container iteration order "
           "into " + sink + " — element order varies across runs and "
           "platforms; sort (or key by stable indices) before serializing";
  if (rule == "pointer-order-dependence")
    return "'" + subject + "' depends on pointer keys or pointer values "
           "reaching " + sink + " — addresses vary run to run under ASLR; "
           "key by stable indices instead";
  if (rule == "wallclock-to-output")
    return "'" + subject + "' carries a raw wall-clock read into " + sink +
           " — route timing through the obs::Clock seam or keep it out of "
           "deterministic artifacts";
  return "'" + subject + "' depends on the worker-thread count and "
         "reaches " + sink + " — serialized results must be identical at "
         "any REFIT_THREADS";
}

/// Consume a tainted value at a sink: rule bits become findings (reported
/// at `report_line` in this function's file), param pseudo-bits become
/// SinkHit records in the current summary. `tail` is the chain fragment
/// from the current expression to the sink, final step included.
void sink_value(FnCtx& ctx, SinkKind kind, const std::string& sink_file,
                int sink_line, int report_line, const ExprInfo& info,
                const std::string& fallback_subject, const Chain& tail) {
  for_each_bit(info.mask & kRuleMask, [&](Taint bit) {
    const std::string rule = rule_for(kind, bit);
    if (rule.empty()) return;
    const auto ci = info.carriers.find(bit);
    const std::string subject =
        ci != info.carriers.end() ? ci->second : fallback_subject;
    // One finding per (rule, file, function, subject): the same tainted
    // value reaching several sinks in one function is one defect.
    if (ctx.findings == nullptr ||
        !ctx.emitted
             ->insert(rule + " " + ctx.file->path + " " + ctx.owner + ":" +
                      subject)
             .second)
      return;
    Finding f{ctx.file->path, report_line, rule,
              message_for(rule, subject, kind), {}};
    const auto chi = info.chains.find(bit);
    if (chi != info.chains.end()) f.chain = chi->second;
    f.chain.insert(f.chain.end(), tail.begin(), tail.end());
    ctx.findings->push_back(std::move(f));
  });
  for_each_bit(info.mask & kParamMask, [&](Taint bit) {
    int param = 0;
    for (Taint b = bit >> 9; b != 0; b >>= 1) ++param;
    for (const SinkHit& h : ctx.sum->param_sinks)
      if (h.kind == kind && h.param == param && h.file == sink_file &&
          h.line == sink_line)
        return;
    SinkHit h;
    h.kind = kind;
    h.param = param;
    h.file = sink_file;
    h.line = sink_line;
    const auto ci = info.carriers.find(bit);
    h.subject = ci != info.carriers.end() ? ci->second : fallback_subject;
    const auto chi = info.chains.find(bit);
    if (chi != info.chains.end()) h.steps = chi->second;
    h.steps.insert(h.steps.end(), tail.begin(), tail.end());
    ctx.sum->param_sinks.push_back(std::move(h));
  });
}

// ---------------------------------------------------------------------------
// Expression taint evaluation
// ---------------------------------------------------------------------------

ExprInfo expr_taint(FnCtx& ctx, State& state, std::size_t a, std::size_t b);

/// Split the argument list of the call whose '(' is at `open` into
/// depth-0 comma-separated ranges. Returns the matching ')' (or npos).
/// `template_angles` additionally treats <…> as nesting — required for
/// parameter lists, where `map<int, double> m` must stay one segment
/// (call arguments keep it off: there '<' is usually a comparison).
std::size_t split_args(const std::vector<Token>& toks, std::size_t open,
                       std::size_t limit,
                       std::vector<std::pair<std::size_t, std::size_t>>* args,
                       bool template_angles = false) {
  const std::size_t close = match_paren(toks, open);
  if (close == std::string::npos || close > limit) return std::string::npos;
  std::size_t start = open + 1;
  int depth = 0;
  int angle = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
    else if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
    else if (template_angles && t.text == "<") ++angle;
    else if (template_angles && (t.text == ">" || t.text == ">>"))
      angle = std::max(0, angle - (t.text == ">>" ? 2 : 1));
    else if (t.text == "," && depth == 0 && angle == 0) {
      args->emplace_back(start, i);
      start = i + 1;
    }
  }
  if (start < close) args->emplace_back(start, close);
  return close;
}

/// Apply a known callee's summary at a call site: return taints join the
/// expression, param→return flows pass argument taints through, and
/// param→sink hits fire against the argument taints.
void apply_call(FnCtx& ctx, State& state, ExprInfo& out, std::size_t name_pos,
                std::size_t limit, std::size_t* resume) {
  const std::vector<Token>& toks = ctx.file->lex.tokens;
  const std::string& callee = toks[name_pos].text;
  const int call_line = toks[name_pos].line;
  std::vector<std::pair<std::size_t, std::size_t>> arg_ranges;
  const std::size_t close =
      split_args(toks, name_pos + 1, limit, &arg_ranges);
  if (close == std::string::npos) return;  // malformed: caller scans linearly
  *resume = close;

  std::vector<ExprInfo> args;
  args.reserve(arg_ranges.size());
  for (const auto& [s, e] : arg_ranges)
    args.push_back(expr_taint(ctx, state, s, e));

  const auto si = ctx.prog->summaries->find(callee);
  if (si == ctx.prog->summaries->end()) {
    for (const ExprInfo& ai : args) out.merge(ai);  // unknown: args leak
    return;
  }
  const Summary& s = si->second;
  const std::string here = loc(ctx.file->path, call_line);

  for_each_bit(s.ret_taint, [&](Taint bit) {
    Chain ch;
    const auto it = s.ret_chains.find(bit);
    if (it != s.ret_chains.end()) ch = it->second;
    ch.push_back(here + ": returned by '" + callee + "()'");
    out.add(bit, ch, callee);
  });
  for (std::size_t j = 0;
       j < args.size() && j < static_cast<std::size_t>(kMaxParams); ++j) {
    if ((s.param_to_ret >> j) & 1u) {
      ExprInfo through = args[j];
      for (auto& [bit, ch] : through.chains)
        ch.push_back(here + ": passes through '" + callee + "()'");
      out.merge(through);
    }
  }
  for (const SinkHit& h : s.param_sinks) {
    if (h.param < 0 || static_cast<std::size_t>(h.param) >= args.size())
      continue;
    Chain tail;
    tail.push_back(here + ": passed to '" + callee + "()' (reaches " +
                   std::string(sink_desc(h.kind)) + " at " +
                   loc(h.file, h.line) + ")");
    tail.insert(tail.end(), h.steps.begin(), h.steps.end());
    sink_value(ctx, h.kind, h.file, h.line, call_line,
               args[static_cast<std::size_t>(h.param)], h.subject, tail);
  }
}

ExprInfo expr_taint(FnCtx& ctx, State& state, std::size_t a, std::size_t b) {
  ExprInfo out;
  const std::vector<Token>& toks = ctx.file->lex.tokens;
  for (std::size_t i = a; i < b; ++i) {
    if (in_nested_body(*ctx.file, ctx.fn_idx, i)) continue;
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;

    const char* desc = nullptr;
    if (const Taint src = source_bits(toks, i, b, &desc)) {
      out.add(src, {loc(ctx.file->path, t.line) + ": source: " +
                    std::string(desc)},
              t.text);
      continue;
    }

    const bool member = i > a && (is_punct(toks[i - 1], ".") ||
                                  is_punct(toks[i - 1], "->"));
    const bool qualified = i > a && is_punct(toks[i - 1], "::");
    const bool call = i + 1 < b && is_punct(toks[i + 1], "(");

    if (call && !member && !state.count(t.text) &&
        ctx.prog->known_fns.count(t.text)) {
      std::size_t resume = i;
      apply_call(ctx, state, out, i, b, &resume);
      i = resume;  // consumed args do not leak into the expression value
      continue;
    }
    if (member || qualified) continue;  // member / scope names, not reads

    const auto it = state.find(t.text);
    if (it == state.end()) continue;
    const Val& v = it->second;
    for_each_bit(v.mask, [&](Taint bit) {
      const auto ci = v.chains.find(bit);
      out.add(bit, ci != v.chains.end() ? ci->second : Chain{}, t.text);
    });
    // Functor/entropy-object call (`rd()`): the object's taint is the
    // result's taint — already merged above.
    // `.begin()` / `.cbegin()` converts container-order bits into
    // iteration-order bits (the explicit-iterator analogue of range-for).
    if (i + 2 < b && is_punct(toks[i + 1], ".") &&
        (is_ident(toks[i + 2], "begin") || is_ident(toks[i + 2], "cbegin"))) {
      const std::string here = loc(ctx.file->path, t.line);
      if (v.mask & kUnorderedCont) {
        Chain ch;
        const auto ci = v.chains.find(kUnorderedCont);
        if (ci != v.chains.end()) ch = ci->second;
        ch.push_back(here + ": iterated — unordered container order is "
                     "hash/insertion-dependent");
        out.add(kUnorderedIter, ch, t.text);
      }
      if (v.mask & kPtrKeyedCont) {
        Chain ch;
        const auto ci = v.chains.find(kPtrKeyedCont);
        if (ci != v.chains.end()) ch = ci->second;
        ch.push_back(here + ": iterated — pointer-keyed order varies run "
                     "to run");
        out.add(kPointerOrder, ch, t.text);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Statement transfer
// ---------------------------------------------------------------------------

/// `for (decl : container)` — convert the container's order bits into
/// iteration-order taint on the loop variables. The CFG builder strips
/// the `for (…)` wrapper from loop heads, so a range-for reaches us as
/// `decl : container` with the ':' at paren depth 0.
bool handle_range_for(FnCtx& ctx, State& state, const Stmt& st) {
  const std::vector<Token>& toks = ctx.file->lex.tokens;
  if (is_ident(toks[st.first], "case") || is_ident(toks[st.first], "default"))
    return false;
  std::size_t colon = std::string::npos;
  int depth = 0;
  for (std::size_t i = st.first; i < st.last; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
    else if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
    else if (depth == 0) {
      // A '?', ';' or assignment before the ':' means a ternary, a classic
      // for-head or a plain statement — not a range-for.
      if (t.text == "?" || t.text == ";" || is_assign_op(t)) return false;
      if (t.text == ":") {
        colon = i;
        break;
      }
    }
  }
  if (colon == std::string::npos || colon == st.first) return false;

  std::set<std::string> loop_vars;
  for (std::size_t i = st.first; i < colon; ++i)
    if (is_punct(toks[i], "[")) {  // structured binding
      for (std::size_t j = i + 1; j < colon && !is_punct(toks[j], "]"); ++j)
        if (toks[j].kind == TokKind::kIdent) loop_vars.insert(toks[j].text);
    }
  if (loop_vars.empty())
    for (std::size_t i = colon; i-- > st.first;)
      if (toks[i].kind == TokKind::kIdent) {
        loop_vars.insert(toks[i].text);
        break;
      }
  if (loop_vars.empty()) return false;

  const ExprInfo ci = expr_taint(ctx, state, colon + 1, st.last);
  Val lv;
  for_each_bit(ci.mask & kRuleMask, [&](Taint bit) {
    lv.mask |= bit;
    const auto it = ci.chains.find(bit);
    lv.chains.emplace(bit, it != ci.chains.end() ? it->second : Chain{});
  });
  const std::string here = loc(ctx.file->path, toks[st.first].line);
  if (ci.mask & kUnorderedCont) {
    Chain ch;
    const auto it = ci.chains.find(kUnorderedCont);
    if (it != ci.chains.end()) ch = it->second;
    ch.push_back(here + ": iterated here — unordered container order is "
                 "hash/insertion-dependent");
    lv.mask |= kUnorderedIter;
    lv.chains.emplace(kUnorderedIter, std::move(ch));
  }
  if (ci.mask & kPtrKeyedCont) {
    Chain ch;
    const auto it = ci.chains.find(kPtrKeyedCont);
    if (it != ci.chains.end()) ch = it->second;
    ch.push_back(here + ": iterated here — pointer-keyed order varies run "
                 "to run");
    lv.mask |= kPointerOrder;
    lv.chains.emplace(kPointerOrder, std::move(ch));
  }
  for (const std::string& v : loop_vars) state[v] = lv;
  return true;
}

/// `std::sort` / `std::stable_sort` over a container makes its order
/// deterministic again: clear the ordering bits of every mentioned var.
bool handle_cleanser(FnCtx& ctx, State& state, const Stmt& st) {
  const std::vector<Token>& toks = ctx.file->lex.tokens;
  for (std::size_t i = st.first; i < st.last; ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        (toks[i].text != "sort" && toks[i].text != "stable_sort"))
      continue;
    if (i + 1 >= st.last || !is_punct(toks[i + 1], "(")) continue;
    std::size_t close = match_paren(toks, i + 1);
    if (close == std::string::npos || close > st.last) close = st.last;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (toks[j].kind != TokKind::kIdent) continue;
      const auto it = state.find(toks[j].text);
      if (it == state.end()) continue;
      it->second.mask &= ~(kUnorderedIter | kPointerOrder);
      it->second.chains.erase(kUnorderedIter);
      it->second.chains.erase(kPointerOrder);
    }
    return true;
  }
  return false;
}

/// Is the receiver chain ending at the '.'/'->' before `dot` a metric
/// handle (a Gauge/Counter/Histogram variable, or a registry chain like
/// `metrics().gauge("x")`)?
bool metric_receiver(const FnCtx& ctx, const std::vector<Token>& toks,
                     const Stmt& st, std::size_t dot) {
  std::size_t p = dot;  // points at the connector
  while (p > st.first) {
    std::size_t q = p - 1;
    if (is_punct(toks[q], ")")) {
      int d = 1;
      while (q > st.first && d != 0) {
        --q;
        if (is_punct(toks[q], ")")) ++d;
        else if (is_punct(toks[q], "(")) --d;
      }
      if (q == st.first) return false;
      --q;  // the callee ident before '('
    }
    if (toks[q].kind != TokKind::kIdent) return false;
    const std::string low = lower(toks[q].text);
    if (low.find("gauge") != std::string::npos ||
        low.find("counter") != std::string::npos ||
        low.find("histogram") != std::string::npos)
      return true;
    if (ctx.metric_vars.count(toks[q].text)) return true;
    if (q > st.first && (is_punct(toks[q - 1], ".") ||
                         is_punct(toks[q - 1], "->") ||
                         is_punct(toks[q - 1], "::")))
      p = q - 1;
    else
      return false;
  }
  return false;
}

void scan_sinks(FnCtx& ctx, State& state, const Stmt& st) {
  const std::vector<Token>& toks = ctx.file->lex.tokens;
  static const std::set<std::string> kRngTypes = {
      "Rng", "mt19937", "mt19937_64", "minstd_rand", "default_random_engine"};
  static const std::set<std::string> kSeedMembers = {"seed", "set_state",
                                                     "split", "reseed"};
  static const std::set<std::string> kMetricMethods = {"set", "observe", "add",
                                                       "record", "increment"};
  for (std::size_t i = st.first; i < st.last; ++i) {
    if (in_nested_body(*ctx.file, ctx.fn_idx, i)) continue;
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    const bool member = i > st.first && (is_punct(toks[i - 1], ".") ||
                                         is_punct(toks[i - 1], "->"));
    const std::string here = loc(ctx.file->path, t.line);

    // os << … — serialized output (cerr/clog are diagnostics, not sunk).
    if (!member && (ctx.ostream_vars.count(t.text) || t.text == "cout") &&
        i + 1 < st.last && is_punct(toks[i + 1], "<<")) {
      const ExprInfo info = expr_taint(ctx, state, i + 2, st.last);
      sink_value(ctx, SinkKind::kOutput, ctx.file->path, t.line, t.line, info,
                 t.text,
                 {here + ": reaches serialized output ('" + t.text +
                  " << …')"});
      continue;
    }
    // Rng r(expr) / mt19937 g(expr) — stream construction.
    if (kRngTypes.count(t.text) && i + 2 < st.last &&
        toks[i + 1].kind == TokKind::kIdent &&
        (is_punct(toks[i + 2], "(") || is_punct(toks[i + 2], "{")) &&
        is_decl_name_at(toks, st, i + 1)) {
      std::size_t close = is_punct(toks[i + 2], "(")
                              ? match_paren(toks, i + 2)
                              : match_brace(toks, i + 2);
      if (close == std::string::npos || close > st.last) close = st.last;
      const ExprInfo info = expr_taint(ctx, state, i + 3, close);
      sink_value(ctx, SinkKind::kRngSeed, ctx.file->path, t.line, t.line, info,
                 toks[i + 1].text,
                 {here + ": seeds RNG stream '" + toks[i + 1].text + "'"});
      continue;
    }
    // rng.seed(expr) / rng.split(expr) / rng.set_state(expr) / srand(expr).
    const bool seed_member = member && kSeedMembers.count(t.text) > 0;
    const bool srand_call = !member && t.text == "srand";
    if ((seed_member || srand_call) && i + 1 < st.last &&
        is_punct(toks[i + 1], "(")) {
      std::size_t close = match_paren(toks, i + 1);
      if (close == std::string::npos || close > st.last) close = st.last;
      const ExprInfo info = expr_taint(ctx, state, i + 2, close);
      const std::string recv =
          member && i >= 2 && toks[i - 2].kind == TokKind::kIdent
              ? toks[i - 2].text
              : t.text;
      sink_value(ctx, SinkKind::kRngSeed, ctx.file->path, t.line, t.line, info,
                 recv, {here + ": re-seeds / derives RNG stream via " +
                        t.text + "()"});
      continue;
    }
    // Hash functions — golden-hash inputs must be deterministic.
    if ((t.text.find("hash") != std::string::npos ||
         t.text.rfind("fnv", 0) == 0) &&
        i + 1 < st.last && is_punct(toks[i + 1], "(")) {
      std::size_t close = match_paren(toks, i + 1);
      if (close == std::string::npos || close > st.last) close = st.last;
      const ExprInfo info = expr_taint(ctx, state, i + 2, close);
      sink_value(ctx, SinkKind::kHash, ctx.file->path, t.line, t.line, info,
                 t.text, {here + ": feeds golden hash '" + t.text + "()'"});
      continue;
    }
    // save_checkpoint(…) — the serialized checkpoint artifact.
    if (!member && t.text == "save_checkpoint" && i + 1 < st.last &&
        is_punct(toks[i + 1], "(")) {
      std::size_t close = match_paren(toks, i + 1);
      if (close == std::string::npos || close > st.last) close = st.last;
      const ExprInfo info = expr_taint(ctx, state, i + 2, close);
      sink_value(ctx, SinkKind::kOutput, ctx.file->path, t.line, t.line, info,
                 t.text, {here + ": written into a checkpoint"});
      continue;
    }
    // gauge.set(x) / counter.add(x) / histogram.observe(x) — snapshots.
    if (member && kMetricMethods.count(t.text) && i + 1 < st.last &&
        is_punct(toks[i + 1], "(") &&
        metric_receiver(ctx, toks, st, i - 1)) {
      std::size_t close = match_paren(toks, i + 1);
      if (close == std::string::npos || close > st.last) close = st.last;
      const ExprInfo info = expr_taint(ctx, state, i + 2, close);
      sink_value(ctx, SinkKind::kMetric, ctx.file->path, t.line, t.line, info,
                 t.text, {here + ": recorded as a metric sample via " +
                          t.text + "()"});
      continue;
    }
  }
}

void handle_assign_or_decl(FnCtx& ctx, State& state, const Stmt& st) {
  const std::vector<Token>& toks = ctx.file->lex.tokens;
  // First top-level assignment operator.
  std::size_t op = std::string::npos;
  int depth = 0;
  for (std::size_t i = st.first; i < st.last; ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
      else if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
      else if (depth == 0 && i > st.first && is_assign_op(t)) {
        op = i;
        break;
      }
    }
  }
  if (op != std::string::npos) {
    std::size_t e = op - 1;
    bool weak = toks[op].text != "=";
    if (is_punct(toks[e], "]")) {  // x[i] = … — element write, weak update
      int d = 1;
      std::size_t j = e;
      while (j > st.first && d != 0) {
        --j;
        if (is_punct(toks[j], "]")) ++d;
        else if (is_punct(toks[j], "[")) --d;
      }
      if (j <= st.first || toks[j - 1].kind != TokKind::kIdent) return;
      e = j - 1;
      weak = true;
    }
    while (e >= st.first + 2 && (is_punct(toks[e - 1], ".") ||
                                 is_punct(toks[e - 1], "->")) &&
           toks[e - 2].kind == TokKind::kIdent) {
      e -= 2;   // p.field = … — member write taints the whole object,
      weak = true;  // joined (other members keep their taint)
    }
    if (toks[e].kind != TokKind::kIdent) return;
    const std::string root = toks[e].text;
    ExprInfo rhs = expr_taint(ctx, state, op + 1, st.last);
    if (decl_name_like(toks, st, e)) {
      const Taint cb =
          container_bits_in_range(*ctx.prog, toks, st.first, e);
      if (cb)
        rhs.add(cb, {loc(ctx.file->path, toks[e].line) +
                     ": declared as hash-/pointer-ordered container"},
                root);
    }
    const Val nv = rhs.to_val();
    if (weak)
      join_val(state[root], nv);
    else
      state[root] = nv;
    return;
  }
  // No initializer: `std::random_device rd;` / `std::unordered_map<…> m;`.
  for (std::size_t i = st.first; i < st.last; ++i) {
    if (in_nested_body(*ctx.file, ctx.fn_idx, i)) continue;
    if (!decl_name_like(toks, st, i)) continue;
    ExprInfo info = expr_taint(ctx, state, st.first, i);
    const Taint cb = container_bits_in_range(*ctx.prog, toks, st.first, i);
    if (cb)
      info.add(cb, {loc(ctx.file->path, toks[i].line) +
                    ": declared as hash-/pointer-ordered container"},
               toks[i].text);
    if (info.mask) state[toks[i].text] = info.to_val();
  }
}

/// `v.push_back(x)` / `v.insert(x)` / … accumulate element taint into the
/// container variable (weak update).
void handle_accumulators(FnCtx& ctx, State& state, const Stmt& st) {
  static const std::set<std::string> kAccum = {
      "push_back", "emplace_back", "insert", "emplace", "push", "append"};
  const std::vector<Token>& toks = ctx.file->lex.tokens;
  for (std::size_t i = st.first; i + 3 < st.last; ++i) {
    if (in_nested_body(*ctx.file, ctx.fn_idx, i)) continue;
    if (toks[i].kind != TokKind::kIdent) continue;
    if (!is_punct(toks[i + 1], ".") && !is_punct(toks[i + 1], "->")) continue;
    if (toks[i + 2].kind != TokKind::kIdent || !kAccum.count(toks[i + 2].text))
      continue;
    if (!is_punct(toks[i + 3], "(")) continue;
    std::size_t close = match_paren(toks, i + 3);
    if (close == std::string::npos || close > st.last) close = st.last;
    const ExprInfo info = expr_taint(ctx, state, i + 4, close);
    if (info.mask == 0) continue;
    Val add = info.to_val();
    join_val(state[toks[i].text], add);
  }
}

void transfer(FnCtx& ctx, State& state, const Stmt& st) {
  if (st.first >= st.last) return;
  const std::vector<Token>& toks = ctx.file->lex.tokens;
  if (handle_range_for(ctx, state, st)) return;
  if (handle_cleanser(ctx, state, st)) return;
  scan_sinks(ctx, state, st);
  if (is_ident(toks[st.first], "return")) {
    const ExprInfo info = expr_taint(ctx, state, st.first + 1, st.last);
    ctx.sum->ret_taint |= info.mask & ~kParamMask;
    for (const auto& [bit, ch] : info.chains)
      if ((bit & kParamMask) == 0) ctx.sum->ret_chains.emplace(bit, ch);
    for_each_bit(info.mask & kParamMask, [&](Taint bit) {
      int param = 0;
      for (Taint b = bit >> 9; b != 0; b >>= 1) ++param;
      ctx.sum->param_to_ret |= 1u << param;
    });
    return;
  }
  handle_assign_or_decl(ctx, state, st);
  handle_accumulators(ctx, state, st);
  // Evaluate the statement once as a whole expression so bare call
  // statements (`write_header(os, prov);`) still apply callee summaries —
  // that is where param→sink hits fire. Overlap with the handlers above
  // is harmless: findings and sink hits dedup by key/site.
  (void)expr_taint(ctx, state, st.first, st.last);
}

// ---------------------------------------------------------------------------
// Per-function analysis
// ---------------------------------------------------------------------------

/// Initial entry state + stream/metric variable classes for one function.
void setup_function(FnCtx& ctx, const FunctionCfg& fn, State* entry) {
  const std::vector<Token>& toks = ctx.file->lex.tokens;
  // Parameter list: for named functions the '(' follows the name; for
  // lambdas it follows the capture list (if present at all).
  std::size_t open = std::string::npos;
  if (fn.is_lambda) {
    const std::size_t cap_close = match_brace(toks, fn.header_begin);
    if (cap_close != std::string::npos && cap_close + 1 < toks.size() &&
        is_punct(toks[cap_close + 1], "("))
      open = cap_close + 1;
  } else {
    for (std::size_t i = fn.header_begin;
         i < fn.body_begin && i < toks.size(); ++i)
      if (is_punct(toks[i], "(")) {
        open = i;
        break;
      }
  }
  if (open != std::string::npos) {
    std::vector<std::pair<std::size_t, std::size_t>> segs;
    split_args(toks, open, toks.size(), &segs, /*template_angles=*/true);
    for (std::size_t j = 0; j < segs.size(); ++j) {
      const auto [s, e] = segs[j];
      // Parameter name: the ident before '=' (defaulted) or the last ident.
      std::string pname;
      for (std::size_t k = e; k-- > s;) {
        if (is_punct(toks[k], "=")) {
          pname.clear();
          continue;
        }
        if (toks[k].kind == TokKind::kIdent && pname.empty()) {
          pname = toks[k].text;
          break;
        }
      }
      if (pname.empty()) continue;
      Val v;
      if (!fn.is_lambda && j < static_cast<std::size_t>(kMaxParams))
        v.mask |= param_bit(static_cast<int>(j));
      const Taint cb = container_bits_in_range(*ctx.prog, toks, s, e);
      if (cb) {
        v.mask |= cb;
        v.chains.emplace(cb & kUnorderedCont ? kUnorderedCont : kPtrKeyedCont,
                         Chain{loc(ctx.file->path, toks[s].line) +
                               ": parameter '" + pname +
                               "' is a hash-/pointer-ordered container"});
      }
      if (v.mask) (*entry)[pname] = std::move(v);
      if (range_has_ident(toks, s, e, ostream_type_names()))
        ctx.ostream_vars.insert(pname);
      if (range_has_ident(toks, s, e, metric_type_names()))
        ctx.metric_vars.insert(pname);
    }
  }
  // Local declarations of stream / metric handles (flow-insensitive: the
  // class of a name holds for the whole function).
  for (const BasicBlock& bb : fn.blocks)
    for (const Stmt& st : bb.stmts) {
      const bool has_stream =
          range_has_ident(toks, st.first, st.last, ostream_type_names());
      const bool has_metric =
          range_has_ident(toks, st.first, st.last, metric_type_names());
      if (!has_stream && !has_metric) continue;
      for (std::size_t i = st.first; i < st.last; ++i)
        if (is_decl_name_at(toks, st, i)) {
          if (has_stream) ctx.ostream_vars.insert(toks[i].text);
          if (has_metric) ctx.metric_vars.insert(toks[i].text);
        }
    }
}

bool masks_equal(const State& a, const State& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end() && ib != b.end(); ++ia, ++ib)
    if (ia->first != ib->first || ia->second.mask != ib->second.mask)
      return false;
  return ia == a.end() && ib == b.end();
}

/// Run the block-level fixpoint for one function, then a reporting sweep
/// over the stable states. Returns the function's summary; findings (when
/// `findings` is non-null) go through the program-wide dedup set.
Summary analyze_function(const ProgramCtx& prog, const FileCfg& file, int fi,
                         std::vector<Finding>* findings,
                         std::set<std::string>* emitted) {
  const FunctionCfg& fn = file.functions[fi];
  Summary scratch;
  FnCtx ctx;
  ctx.prog = &prog;
  ctx.file = &file;
  ctx.fn_idx = fi;
  ctx.owner = owner_name(file, fi);
  ctx.sum = &scratch;
  ctx.findings = nullptr;
  ctx.emitted = nullptr;

  State entry;
  setup_function(ctx, fn, &entry);

  const int n = static_cast<int>(fn.blocks.size());
  std::vector<std::vector<int>> preds(n);
  for (int b = 0; b < n; ++b)
    for (const int s : fn.blocks[b].succs)
      if (s >= 0 && s < n) preds[s].push_back(b);

  std::vector<State> out_state(n);
  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < n + 8) {
    changed = false;
    for (int b = 0; b < n; ++b) {
      State state;
      if (b == fn.entry) state = entry;
      for (const int p : preds[b])
        for (const auto& [name, val] : out_state[p]) join_val(state[name], val);
      for (const Stmt& st : fn.blocks[b].stmts) transfer(ctx, state, st);
      if (!masks_equal(state, out_state[b])) {
        out_state[b] = std::move(state);
        changed = true;
      }
    }
  }

  // Reporting sweep over the stable states — this builds the real summary
  // (the fixpoint rounds above only stabilized the block states).
  Summary sum;
  ctx.sum = &sum;
  ctx.findings = findings;
  ctx.emitted = emitted;
  for (int b = 0; b < n; ++b) {
    State state;
    if (b == fn.entry) state = entry;
    for (const int p : preds[b])
      for (const auto& [name, val] : out_state[p]) join_val(state[name], val);
    for (const Stmt& st : fn.blocks[b].stmts) transfer(ctx, state, st);
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Whole-program driver
// ---------------------------------------------------------------------------

bool exempt_path(const std::string& path) {
  return path.ends_with("src/obs/clock.cpp") ||
         path.ends_with("src/obs/clock.hpp") ||
         path.ends_with("src/common/thread_pool.cpp") ||
         path.ends_with("src/common/thread_pool.hpp");
}

/// Join `s` into `into`; true if the convergence signature (masks + sink
/// sites) grew. Chains never count.
bool join_summary(Summary& into, const Summary& s) {
  bool changed = false;
  if ((into.ret_taint | s.ret_taint) != into.ret_taint) {
    into.ret_taint |= s.ret_taint;
    changed = true;
  }
  if ((into.param_to_ret | s.param_to_ret) != into.param_to_ret) {
    into.param_to_ret |= s.param_to_ret;
    changed = true;
  }
  for (const auto& [bit, ch] : s.ret_chains) into.ret_chains.emplace(bit, ch);
  for (const SinkHit& h : s.param_sinks) {
    bool present = false;
    for (const SinkHit& have : into.param_sinks)
      if (have.kind == h.kind && have.param == h.param &&
          have.file == h.file && have.line == h.line) {
        present = true;
        break;
      }
    if (!present) {
      into.param_sinks.push_back(h);
      changed = true;
    }
  }
  return changed;
}

struct Analysis {
  ProgramCtx prog;
  std::map<std::string, Summary> summaries;
  std::vector<Finding> findings;

  void run(const Files& files, bool report);
};

void Analysis::run(const Files& files, bool report) {
  prog.files = &files;
  prog.summaries = &summaries;

  // Pre-pass 1: type aliases for unordered / pointer-keyed containers
  // (`using DetectedFaults = std::unordered_map<const WeightStore*, …>`).
  for (const FileCfg* f : files) {
    const std::vector<Token>& toks = f->lex.tokens;
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
      if (!is_ident(toks[i], "using") || toks[i + 1].kind != TokKind::kIdent ||
          !is_punct(toks[i + 2], "="))
        continue;
      std::size_t end = i + 3;
      while (end < toks.size() && !is_punct(toks[end], ";")) ++end;
      for (std::size_t j = i + 3; j < end; ++j) {
        if (toks[j].kind != TokKind::kIdent) continue;
        if (toks[j].text.rfind("unordered_", 0) == 0)
          prog.unordered_aliases.insert(toks[i + 1].text);
        if (ptr_keyed_at(toks, j, end))
          prog.ptr_aliases.insert(toks[i + 1].text);
      }
      i = end;
    }
  }

  // Pre-pass 2: the function universe (src/obs/clock and
  // common/thread_pool own their sources by design and contribute neither
  // summaries nor findings).
  struct FnRef {
    int file = 0;
    int fn = 0;
    std::string name;
  };
  std::vector<FnRef> fns;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    if (exempt_path(files[fi]->path)) continue;
    for (std::size_t i = 0; i < files[fi]->functions.size(); ++i) {
      if (files[fi]->functions[i].is_lambda) continue;
      prog.known_fns.insert(files[fi]->functions[i].name);
      fns.push_back({static_cast<int>(fi), static_cast<int>(i),
                     files[fi]->functions[i].name});
    }
  }
  for (const FnRef& r : fns) summaries.emplace(r.name, Summary{});

  // Callers index (who must be re-analyzed when a summary grows).
  const CallGraph cg = build_call_graph(files);
  std::map<std::string, std::set<std::size_t>> callers;
  for (std::size_t k = 0; k < fns.size(); ++k) {
    const auto it = cg.callees.find(fns[k].name);
    if (it == cg.callees.end()) continue;
    for (const std::string& callee : it->second) callers[callee].insert(k);
  }

  // Summary fixpoint over the call graph.
  std::deque<std::size_t> work;
  std::vector<bool> queued(fns.size(), true);
  for (std::size_t k = 0; k < fns.size(); ++k) work.push_back(k);
  std::size_t steps = 0;
  const std::size_t cap = (fns.size() + 1) * 40;
  while (!work.empty() && steps++ < cap) {
    const std::size_t k = work.front();
    work.pop_front();
    queued[k] = false;
    const Summary s = analyze_function(
        prog, *files[static_cast<std::size_t>(fns[k].file)], fns[k].fn,
        nullptr, nullptr);
    if (join_summary(summaries[fns[k].name], s)) {
      const auto it = callers.find(fns[k].name);
      if (it != callers.end())
        for (const std::size_t c : it->second)
          if (!queued[c]) {
            queued[c] = true;
            work.push_back(c);
          }
    }
  }

  if (!report) return;

  // Reporting pass: every function (lambdas included — their local
  // sources still reach local sinks) against the converged summaries.
  std::set<std::string> emitted;
  for (const FileCfg* f : files) {
    if (exempt_path(f->path)) continue;
    for (std::size_t i = 0; i < f->functions.size(); ++i)
      (void)analyze_function(prog, *f, static_cast<int>(i), &findings,
                             &emitted);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

bool in_scope(const std::string& path) {
  std::size_t b = 0;
  while (b <= path.size()) {
    const std::size_t e = std::min(path.find('/', b), path.size());
    const std::string part = path.substr(b, e - b);
    if (part == "tests" || part == "tools") return false;
    b = e + 1;
  }
  return true;
}

CallGraph build_call_graph(const Files& files) {
  std::set<std::string> known;
  for (const FileCfg* f : files)
    for (const FunctionCfg& fn : f->functions)
      if (!fn.is_lambda) known.insert(fn.name);

  CallGraph cg;
  for (const FileCfg* fp : files) {
    const FileCfg& f = *fp;
    const std::vector<Token>& toks = f.lex.tokens;
    for (std::size_t i = 0; i < f.functions.size(); ++i) {
      const FunctionCfg& fn = f.functions[i];
      const std::string owner = owner_name(f, static_cast<int>(i));
      if (!fn.is_lambda) cg.callees.emplace(owner, std::set<std::string>{});
      for (std::size_t k = fn.body_begin;
           k + 1 < fn.body_end && k + 1 < toks.size(); ++k) {
        if (toks[k].kind != TokKind::kIdent || !is_punct(toks[k + 1], "("))
          continue;
        if (k > 0 && (is_punct(toks[k - 1], ".") ||
                      is_punct(toks[k - 1], "->")))
          continue;  // member calls resolve elsewhere
        if (known.count(toks[k].text)) cg.callees[owner].insert(toks[k].text);
      }
    }
  }
  return cg;
}

std::map<std::string, Summary> compute_summaries(const Files& files) {
  Analysis a;
  a.run(files, /*report=*/false);
  return std::move(a.summaries);
}

}  // namespace refit::det

namespace refit::check {

Family det_family() {
  return {"det",
          {
              {"nondet-seed-provenance",
               "an RNG stream is seeded/derived from a nondeterministic value "
               "(std::random_device, time(), pointer bits, …), or an "
               "entropy-derived value reaches any deterministic sink"},
              {"unordered-iteration-to-output",
               "unordered_map/unordered_set iteration order reaches "
               "serialized output, a golden hash, or a metric sample"},
              {"pointer-order-dependence",
               "pointer-keyed container order or a pointer-to-integer cast "
               "reaches a deterministic sink (addresses vary run to run)"},
              {"wallclock-to-output",
               "a raw wall-clock read outside the obs::Clock seam reaches a "
               "deterministic sink"},
              {"threadcount-value-dependence",
               "hardware_concurrency / thread identity reaches a "
               "deterministic sink — results must not depend on "
               "REFIT_THREADS"},
          },
          [](const Program& program, std::vector<Finding>& out) {
            det::Files files;
            for (const cfg::FileCfg& f : program)
              if (det::in_scope(f.path)) files.push_back(&f);
            det::Analysis a;
            a.run(files, /*report=*/true);
            out.insert(out.end(), a.findings.begin(), a.findings.end());
          }};
}

}  // namespace refit::check
