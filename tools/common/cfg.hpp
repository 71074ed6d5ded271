// Intraprocedural control-flow graphs over the analyzer lexer
// (tools/common/lexer.hpp). refit-check builds each file's CFGs once and
// hands them to its per-function dataflow rules (flow_rules.cpp).
//
// build_file_cfg() lexes one translation unit, finds every function body
// (free functions, member functions, TEST bodies — anything of the shape
// `name(params) ... {`), and parses each body into a CFG of basic blocks:
//
//   - if/else, while, for (classic and range), do/while build the usual
//     diamond/loop shapes; `break`/`continue` edge to the innermost loop's
//     exit/header; `return` edges to the function's dedicated exit block;
//   - switch bodies get one block per `case`/`default` label, an edge from
//     the switch head to every label, and *fallthrough* edges between
//     consecutive label blocks unless the previous one ended in a jump;
//   - try/catch approximates: the try body may complete (edge to the join)
//     or transfer to each handler (edge from the block before the try);
//   - lambdas are extracted as nested functions with their own CFGs; the
//     enclosing statement keeps the lambda's tokens, and analyses skip the
//     nested body range via FunctionCfg::body_begin/body_end. A lambda
//     passed (possibly indirectly) to ThreadPool::parallel_for /
//     parallel_for_weighted / TileGrid::for_each_tile records the callee in
//     parallel_callee — the hook the static race rule keys on.
//
// Statements are token ranges into the file-wide token vector, so analyses
// (refit-check's flow and det rules) can re-inspect any
// statement's tokens without re-lexing. The graph is deliberately
// syntax-directed and unresolved (no symbol table): good enough for the
// dataflow rules, cheap enough to run on every commit.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/lexer.hpp"

namespace refit::cfg {

/// One statement: tokens [first, last) of FileCfg::tokens. `line` is the
/// line of the first token (what findings anchor to).
struct Stmt {
  std::size_t first = 0;
  std::size_t last = 0;
  int line = 0;
};

/// A basic block: straight-line statements plus successor edges. Condition
/// expressions (if/while/for/switch heads) are ordinary statements at the
/// end of their block.
struct BasicBlock {
  std::vector<Stmt> stmts;
  std::vector<int> succs;
};

/// One function (or lambda) with its CFG. blocks[entry] is the entry,
/// blocks[exit_id] the single synthetic exit every return edges to.
struct FunctionCfg {
  std::string name;           ///< unqualified name; "<lambda>" for lambdas
  int line = 0;               ///< line of the body's opening brace
  std::size_t header_begin = 0;  ///< name token (named fn) / '[' (lambda)
  std::size_t body_begin = 0; ///< first token index inside the body braces
  std::size_t body_end = 0;   ///< one past the last body token
  std::vector<std::string> params;  ///< declared parameter names
  bool is_lambda = false;
  /// For lambdas: the innermost enclosing call the lambda is an argument
  /// of, when it is one of the thread-pool entry points ("parallel_for",
  /// "parallel_for_weighted", "for_each_tile"); empty otherwise.
  std::string parallel_callee;
  /// Index (into FileCfg::functions) of the lexically enclosing function;
  /// -1 for file-scope functions.
  int enclosing = -1;
  std::vector<BasicBlock> blocks;
  int entry = 0;
  int exit_id = 1;
};

/// A whole translation unit, lexed once.
struct FileCfg {
  std::string path;
  refit::lint::LexResult lex;
  std::vector<FunctionCfg> functions;
  /// Per token: index of the innermost function whose body holds it, or
  /// -1 (the index behind in_nested_body's constant-time answer).
  std::vector<int> innermost;
};

/// Lex + CFG-build one file. Never fails: constructs the parser cannot
/// shape degrade to straight-line statements (linter, not compiler).
[[nodiscard]] FileCfg build_file_cfg(const std::string& path,
                                     const std::string& content);

/// Deterministic text dump of every function's CFG — the golden-fixture
/// format under testdata/cfg/ (one `function`/`block`/`succ` section per
/// entity, token texts elided down to per-statement line + first tokens).
void dump_cfg(std::ostream& os, const FileCfg& file);

// Token predicates the rules share.
[[nodiscard]] bool is_punct(const refit::lint::Token& t, const char* s);
[[nodiscard]] bool is_ident(const refit::lint::Token& t, const char* s);
/// `=` or a compound assignment (`+=`, `<<=`, …).
[[nodiscard]] bool is_assign_op(const refit::lint::Token& t);

/// Heuristic: is toks[i] the *declared name* of a declaration inside `st`?
/// True when the token is followed by an initializer/terminator and every
/// token between the statement start and the name is type-shaped (no
/// operators, no assignment — that is what separates `int* p = q` from
/// `x = a * b`).
[[nodiscard]] bool is_decl_name_at(const std::vector<refit::lint::Token>& toks,
                                   const Stmt& st, std::size_t i);

/// True if the token range [first, last) of `stmts` overlaps the body of a
/// *nested* function of `fn` (analyses use this to skip lambda bodies when
/// reading an enclosing statement's tokens).
[[nodiscard]] bool in_nested_body(const FileCfg& file, int fn_index,
                                  std::size_t token_index);

}  // namespace refit::cfg
