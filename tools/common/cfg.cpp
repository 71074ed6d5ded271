// Shared CFG construction (see cfg.hpp). Pass A walks the token stream
// once to find every function body (named definitions and lambdas, with
// their enclosing-call context); pass B parses each body into basic
// blocks with a recursive-descent statement walker.
#include "common/cfg.hpp"

#include <algorithm>
#include <ostream>
#include <set>

namespace refit::cfg {

using refit::lint::match_brace;
using refit::lint::match_paren;
using refit::lint::Token;
using refit::lint::TokKind;

bool is_punct(const Token& t, const char* s) {
  return t.kind == TokKind::kPunct && t.text == s;
}
bool is_ident(const Token& t, const char* s) {
  return t.kind == TokKind::kIdent && t.text == s;
}

bool is_assign_op(const Token& t) {
  if (t.kind != TokKind::kPunct) return false;
  static const std::set<std::string> kOps = {"=",  "+=",  "-=",  "*=",
                                             "/=", "%=",  "&=",  "|=",
                                             "^=", "<<=", ">>="};
  return kOps.count(t.text) > 0;
}

bool is_decl_name_at(const std::vector<Token>& toks, const Stmt& st,
                     std::size_t i) {
  if (toks[i].kind != TokKind::kIdent || i == st.first) return false;
  static const std::set<std::string> kFollow = {"=", "{", "(", ";",
                                                ",", "[", ":", ")"};
  if (i + 1 < st.last && (toks[i + 1].kind != TokKind::kPunct ||
                          !kFollow.count(toks[i + 1].text)))
    return false;
  static const std::set<std::string> kBlockers = {
      "return", "delete", "throw", "new", "case", "goto", "co_return"};
  static const std::set<std::string> kTypePunct = {"::", "<", ">", ">>",
                                                   "*",  "&", "&&"};
  for (std::size_t j = i; j-- > st.first;) {
    const Token& t = toks[j];
    if (t.kind == TokKind::kIdent) {
      if (kBlockers.count(t.text)) return false;
      continue;
    }
    if (t.kind == TokKind::kNumber) continue;  // array/template extents
    if (t.kind == TokKind::kPunct && kTypePunct.count(t.text)) continue;
    return false;
  }
  return true;
}

namespace {

/// Identifiers that can directly precede a '(' without being a callee or a
/// function name (control flow, operators, specifiers).
const std::set<std::string>& non_function_idents() {
  static const std::set<std::string> kSet = {
      "if",       "while",    "for",          "switch",     "catch",
      "return",   "new",      "delete",       "sizeof",     "alignof",
      "alignas",  "decltype", "noexcept",     "constexpr",  "static_assert",
      "assert",   "operator", "throw",        "case",       "defined",
      "typeid",   "co_await", "co_return",    "co_yield",   "requires",
      "__asm__",  "asm",
  };
  return kSet;
}

/// Type-ish tokens allowed in a trailing-return type or specifier tail.
bool is_type_tail_token(const Token& t) {
  if (t.kind == TokKind::kIdent) return true;
  return is_punct(t, "::") || is_punct(t, "*") || is_punct(t, "&") ||
         is_punct(t, "&&") || is_punct(t, "<") || is_punct(t, ">") ||
         is_punct(t, ">>") || is_punct(t, ",");
}

/// From the token right after a parameter list's ')', skip specifiers
/// (const/noexcept/override/final/mutable/&/&&), a trailing return type,
/// and a ctor member-init list. Returns the index of the body's '{', or
/// npos when no body follows (declaration, expression, ...).
std::size_t find_body_brace(const std::vector<Token>& toks, std::size_t q) {
  const std::size_t n = toks.size();
  while (q < n) {
    const Token& t = toks[q];
    if (is_punct(t, "{")) return q;
    if (is_ident(t, "const") || is_ident(t, "noexcept") ||
        is_ident(t, "override") || is_ident(t, "final") ||
        is_ident(t, "mutable") || is_punct(t, "&") || is_punct(t, "&&")) {
      // noexcept(...) carries an argument.
      if (is_ident(t, "noexcept") && q + 1 < n && is_punct(toks[q + 1], "(")) {
        const std::size_t c = match_paren(toks, q + 1);
        if (c == std::string::npos) return std::string::npos;
        q = c + 1;
        continue;
      }
      ++q;
      continue;
    }
    if (is_punct(t, "->")) {
      // Trailing return type: skip type tokens up to '{' or a terminator.
      ++q;
      while (q < n && is_type_tail_token(toks[q])) ++q;
      continue;
    }
    if (is_punct(t, ":")) {
      // Ctor member-init list: `name(init)` / `name{init}` groups joined
      // by commas until the body brace.
      ++q;
      while (q < n) {
        if (is_punct(toks[q], "{")) {
          // Either an init group `member{...}` (preceded by an ident) or
          // the body itself.
          if (q > 0 && toks[q - 1].kind == TokKind::kIdent) {
            const std::size_t c = match_brace(toks, q);
            if (c == std::string::npos) return std::string::npos;
            q = c + 1;
            if (q < n && is_punct(toks[q], ",")) ++q;
            continue;
          }
          return q;
        }
        if (is_punct(toks[q], "(")) {
          const std::size_t c = match_paren(toks, q);
          if (c == std::string::npos) return std::string::npos;
          q = c + 1;
          if (q < n && is_punct(toks[q], ",")) ++q;
          continue;
        }
        if (toks[q].kind == TokKind::kIdent || is_punct(toks[q], "::") ||
            is_punct(toks[q], "<") || is_punct(toks[q], ">") ||
            is_punct(toks[q], ",") || is_punct(toks[q], "...")) {
          ++q;
          continue;
        }
        return std::string::npos;
      }
      return std::string::npos;
    }
    return std::string::npos;
  }
  return std::string::npos;
}

/// Declared names of a parameter list [lp+1, rp): per depth-0 comma
/// segment, the last identifier before any depth-0 '=' (default argument).
std::vector<std::string> param_names(const std::vector<Token>& toks,
                                     std::size_t lp, std::size_t rp) {
  std::vector<std::string> out;
  int depth = 0;
  std::string last_ident;
  bool in_default = false;
  for (std::size_t i = lp + 1; i < rp; ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(" || t.text == "<" || t.text == "[" || t.text == "{")
        ++depth;
      else if (t.text == ")" || t.text == ">" || t.text == "]" ||
               t.text == "}")
        --depth;
      else if (t.text == "=" && depth == 0)
        in_default = true;
      else if (t.text == "," && depth == 0) {
        if (!last_ident.empty()) out.push_back(last_ident);
        last_ident.clear();
        in_default = false;
      }
      continue;
    }
    if (t.kind == TokKind::kIdent && depth == 0 && !in_default)
      last_ident = t.text;
  }
  if (!last_ident.empty()) out.push_back(last_ident);
  return out;
}

/// True when the '[' at `i` opens a lambda introducer (not a subscript,
/// array declarator, or attribute).
bool is_lambda_start(const std::vector<Token>& toks, std::size_t i) {
  if (i + 1 < toks.size() && is_punct(toks[i + 1], "["))
    return false;  // [[attribute]]
  if (i > 0) {
    const Token& p = toks[i - 1];
    // After a value (identifier, ')', ']', literal) a '[' is a subscript
    // or an array declarator.
    if (p.kind == TokKind::kIdent && !is_ident(p, "return") &&
        !is_ident(p, "case") && !non_function_idents().count(p.text) &&
        p.text != "else" && p.text != "do")
      return false;
    if (is_punct(p, ")") || is_punct(p, "]") || p.kind == TokKind::kNumber ||
        p.kind == TokKind::kString)
      return false;
  }
  const std::size_t close = match_brace(toks, i);
  if (close == std::string::npos) return false;
  if (close + 1 >= toks.size()) return false;
  const Token& nxt = toks[close + 1];
  if (is_punct(nxt, "{")) return true;
  if (is_punct(nxt, "(")) {
    const std::size_t rp = match_paren(toks, close + 1);
    if (rp == std::string::npos) return false;
    return find_body_brace(toks, rp + 1) != std::string::npos;
  }
  // `[&] mutable { ... }` / `[&] -> T { ... }` (no parameter list).
  if (is_ident(nxt, "mutable") || is_punct(nxt, "->"))
    return find_body_brace(toks, close + 1) != std::string::npos;
  return false;
}

/// The thread-pool entry points the race rule watches.
bool is_parallel_entry(const std::string& name) {
  return name == "parallel_for" || name == "parallel_for_weighted" ||
         name == "for_each_tile";
}

// ---------------------------------------------------------------------------
// Pass A: find every function body.
// ---------------------------------------------------------------------------

void find_functions(FileCfg& file) {
  const std::vector<Token>& toks = file.lex.tokens;
  const std::size_t n = toks.size();
  // Innermost-last stack of open function indices (by body_end).
  std::vector<std::size_t> fn_stack;
  // Names of the calls whose argument lists are currently open ("" for
  // grouping parens); the lambda-to-pool association reads this.
  std::vector<std::string> call_stack;

  for (std::size_t i = 0; i < n; ++i) {
    while (!fn_stack.empty() &&
           file.functions[fn_stack.back()].body_end <= i)
      fn_stack.pop_back();

    const Token& t = toks[i];
    if (is_punct(t, ")")) {
      if (!call_stack.empty()) call_stack.pop_back();
      continue;
    }
    if (is_punct(t, "(")) {
      std::string callee;
      if (i > 0 && toks[i - 1].kind == TokKind::kIdent &&
          !non_function_idents().count(toks[i - 1].text))
        callee = toks[i - 1].text;
      call_stack.push_back(callee);

      // Named function definition: `name ( params ) tail {`.
      if (callee.empty()) continue;
      const std::size_t rp = match_paren(toks, i);
      if (rp == std::string::npos) continue;
      const std::size_t lb = find_body_brace(toks, rp + 1);
      if (lb == std::string::npos) continue;
      const std::size_t rb = match_brace(toks, lb);
      if (rb == std::string::npos) continue;
      FunctionCfg fn;
      fn.name = callee;
      fn.line = toks[lb].line;
      fn.header_begin = i - 1;
      fn.body_begin = lb + 1;
      fn.body_end = rb;
      fn.params = param_names(toks, i, rp);
      fn.enclosing = fn_stack.empty() ? -1 : static_cast<int>(fn_stack.back());
      file.functions.push_back(std::move(fn));
      fn_stack.push_back(file.functions.size() - 1);
      continue;
    }
    if (is_punct(t, "[") && is_lambda_start(toks, i)) {
      const std::size_t close = match_brace(toks, i);
      std::size_t lp = std::string::npos, rp = std::string::npos;
      std::size_t after = close + 1;
      if (is_punct(toks[after], "(")) {
        lp = after;
        rp = match_paren(toks, after);
        if (rp == std::string::npos) continue;
        after = rp + 1;
      }
      const std::size_t lb = find_body_brace(toks, after);
      if (lb == std::string::npos) continue;
      const std::size_t rb = match_brace(toks, lb);
      if (rb == std::string::npos) continue;
      FunctionCfg fn;
      fn.name = "<lambda>";
      fn.line = toks[lb].line;
      fn.header_begin = i;
      fn.body_begin = lb + 1;
      fn.body_end = rb;
      fn.is_lambda = true;
      if (lp != std::string::npos) fn.params = param_names(toks, lp, rp);
      fn.enclosing = fn_stack.empty() ? -1 : static_cast<int>(fn_stack.back());
      for (auto it = call_stack.rbegin(); it != call_stack.rend(); ++it) {
        if (it->empty()) continue;
        if (is_parallel_entry(*it)) fn.parallel_callee = *it;
        break;  // innermost named call decides
      }
      file.functions.push_back(std::move(fn));
      fn_stack.push_back(file.functions.size() - 1);
      continue;
    }
  }
  // Functions sorted by body_begin (pass order already guarantees it for
  // same-start nesting; enforce for determinism).
  std::stable_sort(file.functions.begin(), file.functions.end(),
                   [](const FunctionCfg& a, const FunctionCfg& b) {
                     return a.body_begin < b.body_begin;
                   });
  // Re-point `enclosing` after the sort: the innermost strictly-containing
  // function wins (ranges nest, so the tightest container is correct).
  for (std::size_t i = 0; i < file.functions.size(); ++i) {
    int best = -1;
    for (std::size_t j = 0; j < file.functions.size(); ++j) {
      if (j == i) continue;
      const FunctionCfg& g = file.functions[j];
      const FunctionCfg& f = file.functions[i];
      if (g.body_begin <= f.body_begin && f.body_end <= g.body_end &&
          (g.body_begin < f.body_begin || f.body_end < g.body_end)) {
        if (best < 0 ||
            file.functions[best].body_begin < g.body_begin)
          best = static_cast<int>(j);
      }
    }
    file.functions[i].enclosing = best;
  }
}

// ---------------------------------------------------------------------------
// Pass B: parse one body into basic blocks.
// ---------------------------------------------------------------------------

class BodyParser {
 public:
  BodyParser(const std::vector<Token>& toks, FunctionCfg& fn)
      : t_(toks), fn_(fn) {
    fn_.blocks.clear();
    fn_.entry = new_block();    // 0
    fn_.exit_id = new_block();  // 1
    cur_ = fn_.entry;
  }

  void run() {
    parse_stmts(fn_.body_begin, fn_.body_end);
    edge(cur_, fn_.exit_id);
  }

 private:
  int new_block() {
    fn_.blocks.emplace_back();
    return static_cast<int>(fn_.blocks.size()) - 1;
  }
  void edge(int a, int b) {
    auto& s = fn_.blocks[a].succs;
    if (std::find(s.begin(), s.end(), b) == s.end()) s.push_back(b);
  }
  void add_stmt(int block, std::size_t first, std::size_t last) {
    if (first >= last) return;
    fn_.blocks[block].stmts.push_back({first, last, t_[first].line});
  }

  /// One past the end of a plain statement starting at `from`: the first
  /// ';' with all bracket depths at zero (consumed), or `to`.
  std::size_t stmt_end(std::size_t from, std::size_t to) const {
    int depth = 0;
    for (std::size_t i = from; i < to; ++i) {
      const Token& tk = t_[i];
      if (tk.kind != TokKind::kPunct) continue;
      if (tk.text == "(" || tk.text == "[" || tk.text == "{") ++depth;
      else if (tk.text == ")" || tk.text == "]" || tk.text == "}") --depth;
      else if (tk.text == ";" && depth == 0) return i + 1;
    }
    return to;
  }

  void parse_stmts(std::size_t from, std::size_t to) {
    std::size_t pos = from;
    while (pos < to) pos = parse_one(pos, to);
  }

  /// Parse the single statement at `pos`; returns one past its end.
  std::size_t parse_one(std::size_t pos, std::size_t to);

  const std::vector<Token>& t_;
  FunctionCfg& fn_;
  int cur_ = 0;
  std::vector<int> break_targets_;
  std::vector<int> continue_targets_;
};

std::size_t BodyParser::parse_one(std::size_t pos, std::size_t to) {
  const Token& tk = t_[pos];

  if (is_punct(tk, ";")) return pos + 1;

  if (is_punct(tk, "{")) {
    const std::size_t rb = match_brace(t_, pos);
    const std::size_t end = (rb == std::string::npos || rb > to) ? to : rb;
    parse_stmts(pos + 1, end);
    return end + 1 > to ? to : end + 1;
  }

  if (is_ident(tk, "if")) {
    std::size_t lp = pos + 1;
    if (lp < to && is_ident(t_[lp], "constexpr")) ++lp;
    if (lp >= to || !is_punct(t_[lp], "(")) return stmt_end(pos, to);
    const std::size_t rp = match_paren(t_, lp);
    if (rp == std::string::npos || rp >= to) return stmt_end(pos, to);
    add_stmt(cur_, lp + 1, rp);  // condition evaluates in the current block
    const int cond_block = cur_;
    const int then_block = new_block();
    const int join = new_block();
    edge(cond_block, then_block);
    cur_ = then_block;
    std::size_t next = parse_one(rp + 1, to);
    edge(cur_, join);
    if (next < to && is_ident(t_[next], "else")) {
      const int else_block = new_block();
      edge(cond_block, else_block);
      cur_ = else_block;
      next = parse_one(next + 1, to);
      edge(cur_, join);
    } else {
      edge(cond_block, join);
    }
    cur_ = join;
    return next;
  }

  if (is_ident(tk, "while")) {
    const std::size_t lp = pos + 1;
    if (lp >= to || !is_punct(t_[lp], "(")) return stmt_end(pos, to);
    const std::size_t rp = match_paren(t_, lp);
    if (rp == std::string::npos || rp >= to) return stmt_end(pos, to);
    const int head = new_block();
    edge(cur_, head);
    add_stmt(head, lp + 1, rp);
    const int body = new_block();
    const int after = new_block();
    edge(head, body);
    edge(head, after);
    break_targets_.push_back(after);
    continue_targets_.push_back(head);
    cur_ = body;
    const std::size_t next = parse_one(rp + 1, to);
    edge(cur_, head);
    break_targets_.pop_back();
    continue_targets_.pop_back();
    cur_ = after;
    return next;
  }

  if (is_ident(tk, "do")) {
    const int body = new_block();
    edge(cur_, body);
    const int cond_block = new_block();
    const int after = new_block();
    break_targets_.push_back(after);
    continue_targets_.push_back(cond_block);
    cur_ = body;
    std::size_t next = parse_one(pos + 1, to);
    edge(cur_, cond_block);
    break_targets_.pop_back();
    continue_targets_.pop_back();
    // `while (cond) ;`
    if (next < to && is_ident(t_[next], "while") && next + 1 < to &&
        is_punct(t_[next + 1], "(")) {
      const std::size_t rp = match_paren(t_, next + 1);
      if (rp != std::string::npos && rp < to) {
        add_stmt(cond_block, next + 2, rp);
        next = rp + 1;
        if (next < to && is_punct(t_[next], ";")) ++next;
      }
    }
    edge(cond_block, body);
    edge(cond_block, after);
    cur_ = after;
    return next;
  }

  if (is_ident(tk, "for")) {
    const std::size_t lp = pos + 1;
    if (lp >= to || !is_punct(t_[lp], "(")) return stmt_end(pos, to);
    const std::size_t rp = match_paren(t_, lp);
    if (rp == std::string::npos || rp >= to) return stmt_end(pos, to);
    // Classic three-clause or range-based? Look for a depth-0 ';'.
    std::size_t semi1 = std::string::npos, semi2 = std::string::npos;
    int depth = 0;
    for (std::size_t i = lp + 1; i < rp; ++i) {
      const Token& x = t_[i];
      if (x.kind != TokKind::kPunct) continue;
      if (x.text == "(" || x.text == "[" || x.text == "{") ++depth;
      else if (x.text == ")" || x.text == "]" || x.text == "}") --depth;
      else if (x.text == ";" && depth == 0) {
        if (semi1 == std::string::npos) semi1 = i;
        else if (semi2 == std::string::npos) semi2 = i;
      }
    }
    const int after = new_block();
    int head, inc_block;
    if (semi1 != std::string::npos) {
      add_stmt(cur_, lp + 1, semi1);  // init runs once, in the current block
      head = new_block();
      edge(cur_, head);
      const std::size_t cond_from = semi1 + 1;
      const std::size_t cond_to = semi2 == std::string::npos ? rp : semi2;
      add_stmt(head, cond_from, cond_to);
      inc_block = new_block();
      if (semi2 != std::string::npos) add_stmt(inc_block, semi2 + 1, rp);
      edge(inc_block, head);
    } else {
      head = new_block();
      edge(cur_, head);
      add_stmt(head, lp + 1, rp);  // `decl : range` as one statement
      inc_block = head;
    }
    const int body = new_block();
    edge(head, body);
    edge(head, after);
    break_targets_.push_back(after);
    continue_targets_.push_back(inc_block);
    cur_ = body;
    const std::size_t next = parse_one(rp + 1, to);
    edge(cur_, inc_block);
    break_targets_.pop_back();
    continue_targets_.pop_back();
    cur_ = after;
    return next;
  }

  if (is_ident(tk, "switch")) {
    const std::size_t lp = pos + 1;
    if (lp >= to || !is_punct(t_[lp], "(")) return stmt_end(pos, to);
    const std::size_t rp = match_paren(t_, lp);
    if (rp == std::string::npos || rp + 1 >= to ||
        !is_punct(t_[rp + 1], "{"))
      return stmt_end(pos, to);
    const std::size_t rb = match_brace(t_, rp + 1);
    const std::size_t body_to = rb == std::string::npos ? to : rb;
    add_stmt(cur_, lp + 1, rp);
    const int head = cur_;
    const int after = new_block();
    break_targets_.push_back(after);
    bool saw_default = false;
    bool in_label = false;
    std::size_t p = rp + 2;
    while (p < body_to) {
      if (is_ident(t_[p], "case") || is_ident(t_[p], "default")) {
        saw_default = saw_default || is_ident(t_[p], "default");
        // Skip the label expression to its ':' (a lone ':', not '::').
        std::size_t c = p + 1;
        int d = 0;
        while (c < body_to) {
          const Token& x = t_[c];
          if (x.kind == TokKind::kPunct) {
            if (x.text == "(" || x.text == "[" || x.text == "{") ++d;
            else if (x.text == ")" || x.text == "]" || x.text == "}") --d;
            else if (x.text == ":" && d == 0) break;
          }
          ++c;
        }
        const int label_block = new_block();
        edge(head, label_block);
        if (in_label) edge(cur_, label_block);  // fallthrough
        cur_ = label_block;
        in_label = true;
        p = c + 1;
        continue;
      }
      if (!in_label) {
        // Statements before the first label are unreachable; park them in
        // a fresh block so the walker still sees them.
        cur_ = new_block();
        in_label = true;
      }
      p = parse_one(p, body_to);
    }
    if (in_label) edge(cur_, after);  // last label falls off the switch
    if (!saw_default) edge(head, after);
    break_targets_.pop_back();
    cur_ = after;
    return body_to + 1 > to ? to : body_to + 1;
  }

  if (is_ident(tk, "break") && !break_targets_.empty()) {
    add_stmt(cur_, pos, pos + 1);
    edge(cur_, break_targets_.back());
    cur_ = new_block();  // dead until the next join
    return stmt_end(pos, to);
  }

  if (is_ident(tk, "continue") && !continue_targets_.empty()) {
    add_stmt(cur_, pos, pos + 1);
    edge(cur_, continue_targets_.back());
    cur_ = new_block();
    return stmt_end(pos, to);
  }

  if (is_ident(tk, "return")) {
    const std::size_t end = stmt_end(pos, to);
    add_stmt(cur_, pos, end);
    edge(cur_, fn_.exit_id);
    cur_ = new_block();
    return end;
  }

  if (is_ident(tk, "try") && pos + 1 < to && is_punct(t_[pos + 1], "{")) {
    const int pre = cur_;
    const int try_block = new_block();
    const int join = new_block();
    edge(pre, try_block);
    cur_ = try_block;
    std::size_t next = parse_one(pos + 1, to);
    edge(cur_, join);
    while (next < to && is_ident(t_[next], "catch")) {
      std::size_t p = next + 1;
      const int handler = new_block();
      edge(pre, handler);  // the try body may transfer at any point
      if (p < to && is_punct(t_[p], "(")) {
        const std::size_t rp = match_paren(t_, p);
        if (rp == std::string::npos || rp >= to) break;
        add_stmt(handler, p + 1, rp);
        p = rp + 1;
      }
      cur_ = handler;
      next = parse_one(p, to);
      edge(cur_, join);
    }
    cur_ = join;
    return next;
  }

  // Everything else — declarations, expressions, local types, `goto`-free
  // ladders' plain rungs — is one statement up to the terminating ';'.
  const std::size_t end = stmt_end(pos, to);
  add_stmt(cur_, pos, end);
  return end;
}

}  // namespace

FileCfg build_file_cfg(const std::string& path, const std::string& content) {
  FileCfg file;
  file.path = path;
  file.lex = refit::lint::lex(content);
  find_functions(file);
  for (FunctionCfg& fn : file.functions) {
    BodyParser parser(file.lex.tokens, fn);
    parser.run();
  }
  // Bodies nest, so painting them outermost-first (by opening token)
  // leaves each token owned by its innermost function.
  std::vector<int> order(file.functions.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return file.functions[a].body_begin < file.functions[b].body_begin;
  });
  file.innermost.assign(file.lex.tokens.size(), -1);
  for (const int i : order) {
    const FunctionCfg& fn = file.functions[i];
    for (std::size_t t = fn.body_begin;
         t < fn.body_end && t < file.innermost.size(); ++t)
      file.innermost[t] = i;
  }
  return file;
}

bool in_nested_body(const FileCfg& file, int fn_index,
                    std::size_t token_index) {
  if (token_index >= file.innermost.size()) return false;
  const int inner = file.innermost[token_index];
  if (inner < 0 || inner == fn_index) return false;
  const FunctionCfg& fn = file.functions[fn_index];
  const FunctionCfg& g = file.functions[inner];
  return g.body_begin > fn.body_begin && g.body_end <= fn.body_end;
}

void dump_cfg(std::ostream& os, const FileCfg& file) {
  const std::vector<Token>& toks = file.lex.tokens;
  for (std::size_t i = 0; i < file.functions.size(); ++i) {
    const FunctionCfg& fn = file.functions[i];
    os << "function " << fn.name << " @" << fn.line;
    if (fn.is_lambda) {
      os << " lambda";
      if (!fn.parallel_callee.empty()) os << "(" << fn.parallel_callee << ")";
    }
    if (!fn.params.empty()) {
      os << " params(";
      for (std::size_t p = 0; p < fn.params.size(); ++p)
        os << (p ? ", " : "") << fn.params[p];
      os << ")";
    }
    os << "\n";
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      const BasicBlock& bb = fn.blocks[b];
      os << "  b" << b;
      if (static_cast<int>(b) == fn.entry) os << " entry";
      if (static_cast<int>(b) == fn.exit_id) os << " exit";
      if (!bb.succs.empty()) {
        os << " ->";
        for (const int s : bb.succs) os << " b" << s;
      }
      os << "\n";
      for (const Stmt& st : bb.stmts) {
        os << "    line " << st.line << ":";
        const std::size_t limit = std::min(st.last, st.first + 6);
        for (std::size_t k = st.first; k < limit; ++k)
          os << " " << toks[k].text;
        if (st.last > limit) os << " ...";
        os << "\n";
      }
    }
  }
}

}  // namespace refit::cfg
