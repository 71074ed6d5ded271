// The flow family (see check.hpp): intraprocedural dataflow rules over
// the per-function CFGs. Each rule walks the statements of one
// FunctionCfg (skipping nested lambda bodies, which are separate
// functions) and reasons over the block graph with the classic
// small-lattice algorithms — dominators for lock protection, reachability
// for invalidation, union fixpoints for moved-from state.
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
//                            chain via `.` or `->`, or via a saved
//                            reference) and some path reaches the
//                            function exit with no invalidate() /
//                            mark_pack_dirty() / resync_counters() — the
//                            store's read-out panel goes stale.
//   unchecked-must-use       the result of save_checkpoint /
//                            load_checkpoint / detect / detect_store /
//                            forward_matmul is bound to a variable that is
//                            dead on every path to exit. (A discarded
//                            call is a compile error: all five are
//                            [[nodiscard]] and CI builds with -Werror.)
//   use-after-move           reaching-definitions over std::move(x): any
//                            read of x while a move reaches it and no
//                            reassignment / .clear() / .reset() / .assign()
//                            intervenes.
#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "check.hpp"
#include "common/lexer.hpp"

namespace refit::check {

namespace {

using cfg::BasicBlock;
using cfg::FileCfg;
using cfg::FunctionCfg;
using cfg::in_nested_body;
using cfg::is_assign_op;
using cfg::is_decl_name_at;
using cfg::is_ident;
using cfg::is_punct;
using cfg::Stmt;
using lint::match_paren;
using lint::Token;
using lint::TokKind;

// ---------------------------------------------------------------------------
// Shared statement-level extraction
// ---------------------------------------------------------------------------

/// Names declared by the statement, including structured bindings.
void decl_names_in_stmt(const FileCfg& file, int fn_idx, const Stmt& st,
                        std::set<std::string>& out) {
  const std::vector<Token>& toks = file.lex.tokens;
  for (std::size_t i = st.first; i < st.last; ++i) {
    if (in_nested_body(file, fn_idx, i)) continue;
    if (is_decl_name_at(toks, st, i)) out.insert(toks[i].text);
    // `auto [a, b] = ...` / `auto& [a, b] = ...`
    if (is_ident(toks[i], "auto")) {
      std::size_t j = i + 1;
      while (j < st.last && (is_punct(toks[j], "&") || is_punct(toks[j], "&&")))
        ++j;
      if (j < st.last && is_punct(toks[j], "[")) {
        for (++j; j < st.last && !is_punct(toks[j], "]"); ++j)
          if (toks[j].kind == TokKind::kIdent) out.insert(toks[j].text);
      }
    }
  }
}

/// One write site: the root variable the assignment/increment targets.
struct Write {
  std::string root;
  int line = 0;
  bool subscript = false;  ///< target is an element (`x[i] = ...`)
  int block = 0;
  int stmt = 0;
};

/// Resolve the assignment target ending at token `e` (inclusive) to its
/// root: `a.b.c` → a, `x[i]` / `a[i].b` → subscript, `*p` → p.
Write resolve_target(const std::vector<Token>& toks, const Stmt& st,
                     std::size_t e) {
  Write w;
  w.line = toks[e].line;
  if (is_punct(toks[e], "]")) {
    w.subscript = true;
    return w;
  }
  if (toks[e].kind != TokKind::kIdent) return w;  // empty root: skip site
  std::size_t j = e;
  while (j >= st.first + 2 &&
         (is_punct(toks[j - 1], ".") || is_punct(toks[j - 1], "->"))) {
    if (toks[j - 2].kind == TokKind::kIdent) {
      j -= 2;
      continue;
    }
    if (is_punct(toks[j - 2], "]") || is_punct(toks[j - 2], ")")) {
      w.subscript = true;  // element or call-result member
      return w;
    }
    break;
  }
  w.root = toks[j].text;
  w.line = toks[j].line;
  return w;
}

/// All writes in one statement (nested lambda bodies skipped).
void collect_writes(const FileCfg& file, int fn_idx, const Stmt& st,
                    int block, int stmt_idx, std::vector<Write>& out) {
  const std::vector<Token>& toks = file.lex.tokens;
  for (std::size_t i = st.first; i < st.last; ++i) {
    if (in_nested_body(file, fn_idx, i)) continue;
    const Token& t = toks[i];
    if (is_assign_op(t) && i > st.first) {
      Write w = resolve_target(toks, st, i - 1);
      w.block = block;
      w.stmt = stmt_idx;
      if (!w.root.empty() || w.subscript) out.push_back(std::move(w));
      continue;
    }
    if (is_punct(t, "++") || is_punct(t, "--")) {
      Write w;
      if (i > st.first && (toks[i - 1].kind == TokKind::kIdent ||
                           is_punct(toks[i - 1], "]")))
        w = resolve_target(toks, st, i - 1);  // postfix
      else if (i + 1 < st.last && toks[i + 1].kind == TokKind::kIdent) {
        w.root = toks[i + 1].text;  // prefix
        w.line = toks[i + 1].line;
      }
      w.block = block;
      w.stmt = stmt_idx;
      if (!w.root.empty() || w.subscript) out.push_back(std::move(w));
    }
  }
}

/// Per-block dominator sets (indices), classic iterative algorithm.
std::vector<std::set<int>> dominators(const FunctionCfg& fn) {
  const int n = static_cast<int>(fn.blocks.size());
  std::vector<std::vector<int>> preds(n);
  for (int b = 0; b < n; ++b)
    for (const int s : fn.blocks[b].succs) preds[s].push_back(b);
  std::set<int> all;
  for (int b = 0; b < n; ++b) all.insert(b);
  std::vector<std::set<int>> dom(n, all);
  dom[fn.entry] = {fn.entry};
  bool changed = true;
  while (changed) {
    changed = false;
    for (int b = 0; b < n; ++b) {
      if (b == fn.entry) continue;
      std::set<int> d = all;
      bool any = false;
      for (const int p : preds[b]) {
        if (!any) {
          d = dom[p];
          any = true;
        } else {
          std::set<int> inter;
          std::set_intersection(d.begin(), d.end(), dom[p].begin(),
                                dom[p].end(),
                                std::inserter(inter, inter.begin()));
          d = std::move(inter);
        }
      }
      if (!any) d.clear();  // unreachable block
      d.insert(b);
      if (d != dom[b]) {
        dom[b] = std::move(d);
        changed = true;
      }
    }
  }
  return dom;
}

// ---------------------------------------------------------------------------
// Rule: parallel-shared-write
// ---------------------------------------------------------------------------

struct Captures {
  std::set<std::string> by_ref;
  std::set<std::string> by_val;  ///< includes init-captures
  bool default_val = false;      ///< [=] — unlisted names are copies
};

Captures parse_captures(const std::vector<Token>& toks, std::size_t intro) {
  Captures c;
  // [intro] is '['; walk to the matching ']' splitting on depth-0 commas.
  int depth = 0;
  std::size_t i = intro + 1;
  std::vector<std::vector<std::size_t>> segs(1);
  for (; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(" || t.text == "[" || t.text == "{" || t.text == "<")
        ++depth;
      else if (t.text == ")" || t.text == "}" || t.text == ">")
        --depth;
      else if (t.text == "]") {
        if (depth == 0) break;
        --depth;
      } else if (t.text == "," && depth == 0) {
        segs.emplace_back();
        continue;
      }
    }
    segs.back().push_back(i);
  }
  for (const auto& seg : segs) {
    if (seg.empty()) continue;
    const Token& t0 = toks[seg[0]];
    if (is_punct(t0, "=") && seg.size() == 1) {
      c.default_val = true;
    } else if (is_punct(t0, "&")) {
      if (seg.size() >= 2 && toks[seg[1]].kind == TokKind::kIdent)
        c.by_ref.insert(toks[seg[1]].text);
      // bare '&' → default by-ref: nothing to record, that is the
      // conservative default anyway
    } else if (t0.kind == TokKind::kIdent) {
      // `x`, `x = expr`, `this`, `*this` — all give the lambda its own
      // storage (or, for `this`, member access the default path flags)
      if (t0.text != "this") c.by_val.insert(t0.text);
    } else if (is_punct(t0, "*")) {
      // *this: by-value copy of the object
      if (seg.size() >= 2) c.by_val.insert(toks[seg[1]].text);
    }
  }
  return c;
}

/// Is `var` declared (anywhere up the lexical chain) with a type that
/// mentions `atomic`?
bool declared_atomic(const FileCfg& file, int fn_idx,
                     const std::string& var) {
  const std::vector<Token>& toks = file.lex.tokens;
  for (int e = file.functions[fn_idx].enclosing; e >= 0;
       e = file.functions[e].enclosing) {
    for (const BasicBlock& bb : file.functions[e].blocks) {
      for (const Stmt& st : bb.stmts) {
        bool declares = false, atomic = false;
        for (std::size_t i = st.first; i < st.last; ++i) {
          if (in_nested_body(file, e, i)) continue;
          if (toks[i].kind != TokKind::kIdent) continue;
          if (toks[i].text == "atomic") atomic = true;
          if (toks[i].text == var && is_decl_name_at(toks, st, i))
            declares = true;
        }
        if (declares && atomic) return true;
      }
    }
  }
  return false;
}

bool stmt_has_lock(const FileCfg& file, int fn_idx, const Stmt& st) {
  static const std::set<std::string> kLockTypes = {
      "lock_guard", "unique_lock", "scoped_lock", "shared_lock"};
  const std::vector<Token>& toks = file.lex.tokens;
  for (std::size_t i = st.first; i < st.last; ++i) {
    if (in_nested_body(file, fn_idx, i)) continue;
    if (toks[i].kind != TokKind::kIdent) continue;
    if (kLockTypes.count(toks[i].text)) return true;
    if (toks[i].text == "lock" && i > st.first &&
        (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")) &&
        i + 1 < st.last && is_punct(toks[i + 1], "("))
      return true;
  }
  return false;
}

void rule_parallel_shared_write(const FileCfg& file,
                                std::vector<Finding>& out) {
  const std::vector<Token>& toks = file.lex.tokens;
  for (std::size_t fi = 0; fi < file.functions.size(); ++fi) {
    const FunctionCfg& fn = file.functions[fi];
    if (!fn.is_lambda || fn.parallel_callee.empty()) continue;

    std::set<std::string> locals(fn.params.begin(), fn.params.end());
    for (const BasicBlock& bb : fn.blocks)
      for (const Stmt& st : bb.stmts)
        decl_names_in_stmt(file, static_cast<int>(fi), st, locals);
    const Captures caps = parse_captures(toks, fn.header_begin);

    // Lock statements and writes, with block positions for dominance.
    const std::vector<std::set<int>> dom = dominators(fn);
    std::vector<std::pair<int, int>> locks;  // (block, stmt)
    std::vector<Write> writes;
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      const BasicBlock& bb = fn.blocks[b];
      for (std::size_t s = 0; s < bb.stmts.size(); ++s) {
        if (stmt_has_lock(file, static_cast<int>(fi), bb.stmts[s]))
          locks.emplace_back(static_cast<int>(b), static_cast<int>(s));
        collect_writes(file, static_cast<int>(fi), bb.stmts[s],
                       static_cast<int>(b), static_cast<int>(s), writes);
      }
    }

    for (const Write& w : writes) {
      if (w.subscript) continue;        // per-lane element: the contract
      if (locals.count(w.root)) continue;
      if (caps.by_val.count(w.root)) continue;  // lambda's own copy
      if (caps.default_val && !caps.by_ref.count(w.root)) continue;
      if (declared_atomic(file, static_cast<int>(fi), w.root)) continue;
      const bool locked =
          std::any_of(locks.begin(), locks.end(), [&](const auto& l) {
            if (l.first == w.block) return l.second < w.stmt;
            return dom[w.block].count(l.first) > 0;
          });
      if (locked) continue;
      out.push_back({file.path, w.line, "parallel-shared-write",
                     "'" + w.root + "' is declared outside this " +
                         fn.parallel_callee +
                         " lambda and written inside it without std::atomic, "
                         "a dominating lock, or per-lane indexing — a data "
                         "race under static partitioning",
                     {}});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: mutation-without-invalidate
// ---------------------------------------------------------------------------

bool stmt_cleanses(const FileCfg& file, const Stmt& st) {
  static const std::set<std::string> kCleansers = {
      "invalidate", "mark_pack_dirty", "resync_counters"};
  const std::vector<Token>& toks = file.lex.tokens;
  for (std::size_t i = st.first; i + 1 < st.last; ++i)
    if (toks[i].kind == TokKind::kIdent && kCleansers.count(toks[i].text) &&
        is_punct(toks[i + 1], "("))
      return true;
  return false;
}

/// Is toks[i] the name of a member call (`recv.name(` / `recv->name(`)?
bool member_call_at(const std::vector<Token>& toks, const Stmt& st,
                    std::size_t i) {
  return i > st.first &&
         (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")) &&
         i + 1 < st.last && is_punct(toks[i + 1], "(");
}

/// A tile-state mutation found in one top-level statement.
struct Mutation {
  std::string root;
  int line = 0;
  int block = 0;
  int stmt = 0;
};

void rule_mutation_without_invalidate(const FileCfg& file,
                                      std::vector<Finding>& out) {
  const std::vector<Token>& toks = file.lex.tokens;
  // The Crossbar members that change what the store's panel caches.
  static const std::set<std::string> kWriteMethods = {
      "write",        "force_fault",  "force_soft_fault",
      "strong_write", "drift_toward", "decay_soft_faults"};

  for (std::size_t fi = 0; fi < file.functions.size(); ++fi) {
    const FunctionCfg& fn = file.functions[fi];
    if (fn.enclosing != -1) continue;  // lambdas fold into their statement

    // First sweep: which names alias a tile reference?
    std::set<std::string> aliases;
    for (const BasicBlock& bb : fn.blocks) {
      for (const Stmt& st : bb.stmts) {
        for (std::size_t i = st.first; i < st.last; ++i) {
          if (!is_ident(toks[i], "tile") || !member_call_at(toks, st, i))
            continue;
          const std::size_t rp = match_paren(toks, i + 1);
          if (rp == std::string::npos || rp + 1 >= st.last) continue;
          // `auto& tl = x.tile(...);` — the declared name (the ident right
          // before the '=' preceding the receiver chain) aliases the tile.
          std::size_t cs = i - 2;  // receiver ident
          while (cs >= st.first + 2 &&
                 (is_punct(toks[cs - 1], ".") || is_punct(toks[cs - 1], "->")))
            cs -= 2;
          if (cs >= st.first + 2 && is_punct(toks[cs - 1], "=") &&
              toks[cs - 2].kind == TokKind::kIdent &&
              is_decl_name_at(toks, st, cs - 2))
            aliases.insert(toks[cs - 2].text);
        }
      }
    }

    // Second sweep: mutation sites.
    std::vector<Mutation> muts;
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      const BasicBlock& bb = fn.blocks[b];
      for (std::size_t s = 0; s < bb.stmts.size(); ++s) {
        const Stmt& st = bb.stmts[s];
        for (std::size_t i = st.first; i < st.last; ++i) {
          if (toks[i].kind != TokKind::kIdent) continue;
          // Direct chain: `recv.tile(...).write(...)` / `.force_fault(...)`,
          // or escape: `f(recv.tile(...))`.
          if (toks[i].text == "tile" && member_call_at(toks, st, i)) {
            const std::size_t rp = match_paren(toks, i + 1);
            if (rp == std::string::npos || rp >= st.last) continue;
            std::size_t cs = i - 2;
            while (cs >= st.first + 2 && (is_punct(toks[cs - 1], ".") ||
                                          is_punct(toks[cs - 1], "->")))
              cs -= 2;
            const std::string root =
                toks[cs].kind == TokKind::kIdent ? toks[cs].text : "";
            if (root.empty()) continue;
            const bool chained = rp + 1 < st.last && is_punct(toks[rp + 1], ".");
            const bool chained_write =
                chained && rp + 2 < st.last &&
                kWriteMethods.count(toks[rp + 2].text) > 0;
            // Escape: the raw tile& itself is handed to a call. A chained
            // read (`store.tile(i,j).rows()` in an EXPECT) stays a read.
            const bool escapes_as_arg =
                !chained && cs > st.first &&
                (is_punct(toks[cs - 1], "(") || is_punct(toks[cs - 1], ","));
            if (chained_write || escapes_as_arg)
              muts.push_back({root, toks[i].line, static_cast<int>(b),
                              static_cast<int>(s)});
            continue;
          }
          // Alias write: `tl.write(...)` / `tl.force_fault(...)`.
          if (aliases.count(toks[i].text) && i + 3 < st.last &&
              is_punct(toks[i + 1], ".") &&
              kWriteMethods.count(toks[i + 2].text) &&
              is_punct(toks[i + 3], "("))
            muts.push_back({toks[i].text, toks[i].line, static_cast<int>(b),
                            static_cast<int>(s)});
        }
      }
    }
    if (muts.empty()) continue;

    // Which blocks cleanse (contain an invalidate/mark-dirty call)?
    std::vector<bool> cleanses(fn.blocks.size(), false);
    for (std::size_t b = 0; b < fn.blocks.size(); ++b)
      for (const Stmt& st : fn.blocks[b].stmts)
        if (stmt_cleanses(file, st)) cleanses[b] = true;

    std::set<std::string> reported;
    for (const Mutation& m : muts) {
      // A cleanser later in the same block covers every path.
      bool safe = false;
      const BasicBlock& mb = fn.blocks[m.block];
      // A cleanser later in the same block (or inside the mutating
      // statement itself — a loop-body lambda that packs and clears its
      // own flags) covers every path.
      for (std::size_t s = m.stmt; s < mb.stmts.size(); ++s)
        if (stmt_cleanses(file, mb.stmts[s])) safe = true;
      if (!safe) {
        // BFS: can the exit be reached without passing a cleansing block?
        std::set<int> seen;
        std::vector<int> work(mb.succs.begin(), mb.succs.end());
        bool reaches_exit = work.empty();  // block falls off the body end
        while (!work.empty()) {
          const int b = work.back();
          work.pop_back();
          if (!seen.insert(b).second) continue;
          if (b == fn.exit_id) {
            reaches_exit = true;
            break;
          }
          if (cleanses[b]) continue;  // absorbed
          for (const int s2 : fn.blocks[b].succs) work.push_back(s2);
        }
        safe = !reaches_exit;
      }
      if (safe) continue;
      const std::string key = m.root + "@" + fn.name;
      if (!reported.insert(key).second) continue;
      out.push_back({file.path, m.line, "mutation-without-invalidate",
                     "tile state is mutated through '" + m.root +
                         "' but a path reaches the end of '" + fn.name +
                         "' with no invalidate()/mark_pack_dirty() — the "
                         "store's read-out panel goes stale",
                     {}});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unchecked-must-use
// ---------------------------------------------------------------------------

void rule_unchecked_must_use(const FileCfg& file, std::vector<Finding>& out) {
  static const std::set<std::string> kWatched = {
      "save_checkpoint", "load_checkpoint", "detect", "detect_store",
      "forward_matmul"};
  const std::vector<Token>& toks = file.lex.tokens;

  for (std::size_t fi = 0; fi < file.functions.size(); ++fi) {
    const FunctionCfg& fn = file.functions[fi];
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      const BasicBlock& bb = fn.blocks[b];
      for (std::size_t s = 0; s < bb.stmts.size(); ++s) {
        const Stmt& st = bb.stmts[s];
        for (std::size_t i = st.first; i < st.last; ++i) {
          if (in_nested_body(file, static_cast<int>(fi), i)) continue;
          // Only the member APIs, not unrelated free functions.
          if (toks[i].kind != TokKind::kIdent ||
              !kWatched.count(toks[i].text) || !member_call_at(toks, st, i))
            continue;
          const std::size_t rp = match_paren(toks, i + 1);
          if (rp == std::string::npos) continue;

          // Start of the full call expression (receiver chain).
          std::size_t cs = i - 1 > st.first ? i - 2 : st.first;
          while (cs >= st.first + 2 && (is_punct(toks[cs - 1], ".") ||
                                        is_punct(toks[cs - 1], "->") ||
                                        is_punct(toks[cs - 1], "::")))
            cs -= 2;

          // Bound to a variable? `auto v = recv.call(...);`
          if (cs >= st.first + 2 && is_punct(toks[cs - 1], "=") &&
              toks[cs - 2].kind == TokKind::kIdent &&
              is_decl_name_at(toks, st, cs - 2) &&
              (rp + 1 >= st.last || is_punct(toks[rp + 1], ";"))) {
            const std::string var = toks[cs - 2].text;
            // Is `var` ever read afterwards, on any path?
            bool used = false;
            auto scan_stmt = [&](const Stmt& other) {
              for (std::size_t k = other.first; k < other.last && !used; ++k)
                if (toks[k].kind == TokKind::kIdent && toks[k].text == var)
                  used = true;  // nested-lambda captures count as uses
            };
            for (std::size_t s2 = s + 1; s2 < bb.stmts.size() && !used; ++s2)
              scan_stmt(bb.stmts[s2]);
            std::set<int> seen;
            std::vector<int> work(bb.succs.begin(), bb.succs.end());
            while (!work.empty() && !used) {
              const int nb = work.back();
              work.pop_back();
              if (!seen.insert(nb).second) continue;
              for (const Stmt& other : fn.blocks[nb].stmts) {
                scan_stmt(other);
                if (used) break;
              }
              for (const int s2 : fn.blocks[nb].succs) work.push_back(s2);
            }
            if (!used)
              out.push_back({file.path, toks[i].line, "unchecked-must-use",
                             "result of " + toks[i].text + "() is bound to '" +
                                 var + "' but never read on any path",
                             {}});
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: use-after-move
// ---------------------------------------------------------------------------

struct MoveEvent {
  std::string var;
  int line = 0;
};

/// Process one statement: flag reads of moved vars, apply kills, record
/// new moves. `flag` may be null during the fixpoint sweep.
void move_transfer(const FileCfg& file, int fn_idx, const Stmt& st,
                   std::set<std::string>& moved,
                   std::vector<MoveEvent>* flag) {
  const std::vector<Token>& toks = file.lex.tokens;
  std::set<std::string> decls;
  decl_names_in_stmt(file, fn_idx, st, decls);
  // A (re)declaration gives the name fresh storage — kill *before* the
  // read scan, or the declaring occurrence itself (`Foo f;` at the top of
  // a loop body whose previous iteration moved f) reads as a violation.
  for (const std::string& d : decls) moved.erase(d);
  std::string target;
  if (toks[st.first].kind == TokKind::kIdent && st.first + 1 < st.last &&
      is_punct(toks[st.first + 1], "="))
    target = toks[st.first].text;

  std::set<std::string> to_move;
  static const std::set<std::string> kResetters = {"clear", "reset",
                                                   "assign"};
  for (std::size_t i = st.first; i < st.last; ++i) {
    if (in_nested_body(file, fn_idx, i)) continue;
    // std::move(x) where x is a plain identifier.
    if (is_ident(toks[i], "std") && i + 5 < st.last &&
        is_punct(toks[i + 1], "::") && is_ident(toks[i + 2], "move") &&
        is_punct(toks[i + 3], "(") &&
        toks[i + 4].kind == TokKind::kIdent &&
        is_punct(toks[i + 5], ")")) {
      const std::string v = toks[i + 4].text;
      if (moved.count(v)) {
        if (flag) flag->push_back({v, toks[i + 4].line});
        moved.erase(v);
      }
      to_move.insert(v);
      i += 5;
      continue;
    }
    if (toks[i].kind != TokKind::kIdent) continue;
    // A name after '.', '->' or '::' is a member/scope name that merely
    // shadows the variable (`pd.delta` is not a read of `delta`).
    if (i > st.first && (is_punct(toks[i - 1], ".") ||
                         is_punct(toks[i - 1], "->") ||
                         is_punct(toks[i - 1], "::")))
      continue;
    const std::string& name = toks[i].text;
    if (!moved.count(name)) continue;
    if (i == st.first && name == target) continue;  // overwritten below
    // Re-filling kills: x.clear() / x.reset(...) / x.assign(...).
    if (i + 3 < st.last && is_punct(toks[i + 1], ".") &&
        kResetters.count(toks[i + 2].text) && is_punct(toks[i + 3], "(")) {
      moved.erase(name);
      i += 3;
      continue;
    }
    // Mid-statement assignment target (`a, x = fresh` is rare; still treat
    // `x =` as a kill, not a read).
    if (i + 1 < st.last && is_punct(toks[i + 1], "=")) {
      moved.erase(name);
      continue;
    }
    if (flag) flag->push_back({name, toks[i].line});
    moved.erase(name);  // report each variable once per path
  }
  if (!target.empty()) moved.erase(target);
  for (const std::string& v : to_move) moved.insert(v);
}

void rule_use_after_move(const FileCfg& file, std::vector<Finding>& out) {
  for (std::size_t fi = 0; fi < file.functions.size(); ++fi) {
    const FunctionCfg& fn = file.functions[fi];
    const int n = static_cast<int>(fn.blocks.size());
    std::vector<std::vector<int>> preds(n);
    for (int b = 0; b < n; ++b)
      for (const int s : fn.blocks[b].succs) preds[s].push_back(b);

    std::vector<std::set<std::string>> out_state(n);
    bool changed = true;
    int rounds = 0;
    while (changed && rounds++ < n + 8) {
      changed = false;
      for (int b = 0; b < n; ++b) {
        std::set<std::string> state;  // may-moved at block entry
        for (const int p : preds[b])
          state.insert(out_state[p].begin(), out_state[p].end());
        for (const Stmt& st : fn.blocks[b].stmts)
          move_transfer(file, static_cast<int>(fi), st, state, nullptr);
        if (state != out_state[b]) {
          out_state[b] = std::move(state);
          changed = true;
        }
      }
    }

    // Reporting sweep over the stable states.
    std::set<std::string> reported;
    for (int b = 0; b < n; ++b) {
      std::set<std::string> state;
      for (const int p : preds[b])
        state.insert(out_state[p].begin(), out_state[p].end());
      std::vector<MoveEvent> flags;
      for (const Stmt& st : fn.blocks[b].stmts)
        move_transfer(file, static_cast<int>(fi), st, state, &flags);
      for (const MoveEvent& e : flags) {
        if (!reported.insert(e.var).second) continue;
        out.push_back({file.path, e.line, "use-after-move",
                       "'" + e.var +
                           "' is read after std::move() moved it out with "
                           "no reassignment in between",
                       {}});
      }
    }
  }
}

void flow_file(const FileCfg& file, std::vector<Finding>& out) {
  // The pool and the store own their internals (the loop machinery, the
  // dirty flags), so the rules that police their callers skip them.
  const std::string& path = file.path;
  const bool pool_owner = path.ends_with("src/common/thread_pool.cpp") ||
                          path.ends_with("src/common/thread_pool.hpp");
  const bool store_owner = path.ends_with("src/rcs/crossbar_store.cpp") ||
                           path.ends_with("src/rcs/crossbar_store.hpp");
  if (!pool_owner) rule_parallel_shared_write(file, out);
  if (!store_owner) rule_mutation_without_invalidate(file, out);
  rule_unchecked_must_use(file, out);
  rule_use_after_move(file, out);
}

}  // namespace

Family flow_family() {
  return {"flow",
          {
              {"parallel-shared-write",
               "a variable declared outside a parallel_for/for_each_tile "
               "lambda is written inside it without std::atomic, a "
               "dominating lock, or per-lane indexing"},
              {"mutation-without-invalidate",
               "tile/conductance state is mutated through the store (`.` or "
               "`->`) but some path reaches the function exit without "
               "invalidate()/mark_pack_dirty()"},
              {"unchecked-must-use",
               "the result of save_checkpoint/load_checkpoint/detect/"
               "detect_store/forward_matmul is bound to a variable that is "
               "never read"},
              {"use-after-move",
               "a variable is read after std::move() with no reassignment on "
               "some path (reaching-definitions over moves)"},
          },
          [](const Program& program, std::vector<Finding>& out) {
            for (const FileCfg& file : program) flow_file(file, out);
          }};
}

}  // namespace refit::check
