// C++ token scanner behind refit-check, the project's static analyzer
// (tools/refit_check): its per-file token rules, its cross-file passes,
// and the CFG builder its dataflow and determinism rules share.
//
// This is deliberately not a parser: it lexes well enough to separate
// code from comments, strings and preprocessor lines, which is all the
// pattern-matching and flow rules need. The in-source suppression syntax
// (`// refit-check: allow(rule[, rule…])`) is parsed here too, so every
// rule family honours the same tag.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace refit::lint {

enum class TokKind { kIdent, kNumber, kPunct, kString, kChar };

struct Token {
  TokKind kind;
  std::string text;
  int line;
};

struct Comment {
  std::string text;
  int line;
};

/// A preprocessor directive, captured whole (continuation lines folded).
struct PpLine {
  std::string text;  ///< directive without the leading '#', trimmed
  int line;
};

struct LexResult {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<PpLine> pp_lines;
};

[[nodiscard]] bool ident_start(char c);
[[nodiscard]] bool ident_char(char c);

/// Lex a whole translation unit. Never fails: malformed input degrades to
/// best-effort tokens, which is the right behavior for a linter.
[[nodiscard]] LexResult lex(const std::string& src);

/// Index of the matching `)` for the `(` at `open` (token index), or npos.
[[nodiscard]] std::size_t match_paren(const std::vector<Token>& toks,
                                      std::size_t open);
/// Same, for the `{` / `[` at `open` (closer chosen from the opener).
[[nodiscard]] std::size_t match_brace(const std::vector<Token>& toks,
                                      std::size_t open);

/// The comment tag that introduces an in-source suppression.
inline constexpr const char* kSuppressionTag = "refit-check:";

/// In-source rule suppressions of one file.
struct Suppressions {
  /// line → rules allowed on that line (and the line after it).
  std::map<int, std::set<std::string>> by_line;
  /// rules disabled for the entire file.
  std::set<std::string> file_wide;

  [[nodiscard]] bool allows(const std::string& rule, int line) const;
};

/// Parses `refit-check: allow(a, b)` / `refit-check: allow-file(a)` out of
/// comment text (any other tag is ignored). allow-file only takes effect
/// within the first 10 lines of the file.
[[nodiscard]] Suppressions parse_suppressions(
    const std::vector<Comment>& comments);

}  // namespace refit::lint
