// Unit tests for the shared analyzer lexer (tools/common/lexer.{hpp,cpp}):
// token round-trips on the nastiest constructs the analyzers meet in the
// tree — raw strings, template argument lists, ctor-init lists — plus the
// bracket matchers and the suppression parser.
#include <string>
#include <vector>

#include "common/lexer.hpp"
#include "gtest/gtest.h"

namespace {

using refit::lint::Comment;
using refit::lint::lex;
using refit::lint::LexResult;
using refit::lint::match_brace;
using refit::lint::match_paren;
using refit::lint::parse_suppressions;
using refit::lint::Suppressions;
using refit::lint::Token;
using refit::lint::TokKind;

/// Reassemble the token texts in order — the round-trip check: lexing must
/// neither drop, merge, nor split any token of the constructs under test.
std::string joined(const LexResult& lr) {
  std::string out;
  for (const Token& t : lr.tokens) {
    if (!out.empty()) out += ' ';
    out += t.text;
  }
  return out;
}

TEST(Lexer, RawStringRoundTrip) {
  // The )" inside the raw string must not terminate it; only )x" does.
  const auto lr = lex("auto s = R\"x(a \"quoted\" )\" line\nstill)x\";\n");
  ASSERT_EQ(lr.tokens.size(), 5u);
  EXPECT_EQ(lr.tokens[3].kind, TokKind::kString);
  EXPECT_EQ(lr.tokens[3].text, "R\"x(a \"quoted\" )\" line\nstill)x\"");
  EXPECT_EQ(lr.tokens[4].text, ";");
  // Tokens after a multi-line raw string carry the advanced line number.
  EXPECT_EQ(lr.tokens[4].line, 2);
}

TEST(Lexer, TemplateArgumentsAndShifts) {
  // Maximal munch must keep >> as one token (the lexer is not a parser;
  // rules that match templates handle nesting themselves) and <<= intact.
  const auto lr = lex("std::map<int, std::vector<double>> m; x <<= 2;\n");
  EXPECT_EQ(joined(lr),
            "std :: map < int , std :: vector < double >> m ; x <<= 2 ;");
}

TEST(Lexer, CtorInitListTokens) {
  const std::string src =
      "Foo::Foo(int n) : a_(n), b_{n + 1}, c_(std::move(v)) {}\n";
  const auto lr = lex(src);
  EXPECT_EQ(joined(lr),
            "Foo :: Foo ( int n ) : a_ ( n ) , b_ { n + 1 } , c_ ( std :: "
            "move ( v ) ) { }");
}

TEST(Lexer, CommentsAndStringsDoNotTokenize) {
  const auto lr = lex(
      "int a; // trailing ++x\n"
      "/* block = y */ int b = \"no ++ here\"[0];\n");
  for (const Token& t : lr.tokens) {
    EXPECT_NE(t.text, "++");
  }
  ASSERT_EQ(lr.comments.size(), 2u);
  EXPECT_EQ(lr.comments[0].line, 1);
  EXPECT_EQ(lr.comments[1].line, 2);
}

TEST(Lexer, PreprocessorContinuationFoldsIntoOneLine) {
  const auto lr = lex("#define ADD(a, b) \\\n  ((a) + (b))\nint x;\n");
  ASSERT_EQ(lr.pp_lines.size(), 1u);
  EXPECT_EQ(lr.pp_lines[0].line, 1);
  EXPECT_NE(lr.pp_lines[0].text.find("((a) + (b))"), std::string::npos);
  // The folded body must not leak into the token stream.
  ASSERT_FALSE(lr.tokens.empty());
  EXPECT_EQ(lr.tokens[0].text, "int");
  EXPECT_EQ(lr.tokens[0].line, 3);
}

TEST(Lexer, NumbersWithExponentsAndSuffixes) {
  const auto lr = lex("double d = 1.5e-3; auto u = 0x1fULL; float f = 2.f;\n");
  std::vector<std::string> nums;
  for (const Token& t : lr.tokens)
    if (t.kind == TokKind::kNumber) nums.push_back(t.text);
  ASSERT_EQ(nums.size(), 3u);
  EXPECT_EQ(nums[0], "1.5e-3");
  EXPECT_EQ(nums[1], "0x1fULL");
  EXPECT_EQ(nums[2], "2.f");
}

TEST(Lexer, CharLiteralWithEscape) {
  const auto lr = lex("char c = '\\''; char d = 'x';\n");
  std::vector<std::string> chars;
  for (const Token& t : lr.tokens)
    if (t.kind == TokKind::kChar) chars.push_back(t.text);
  ASSERT_EQ(chars.size(), 2u);
  EXPECT_EQ(chars[0], "'\\''");
  EXPECT_EQ(chars[1], "'x'");
}

TEST(Lexer, MatchParenSkipsNesting) {
  const auto lr = lex("f(a, g(b, h(c)), d) + k(e)\n");
  // Token 1 is f's '('; its match is the ')' before '+'.
  ASSERT_EQ(lr.tokens[1].text, "(");
  const std::size_t close = match_paren(lr.tokens, 1);
  ASSERT_NE(close, std::string::npos);
  EXPECT_EQ(lr.tokens[close + 1].text, "+");
}

TEST(Lexer, MatchBraceHandlesBracesAndBrackets) {
  const auto lr = lex("{ int a[3] = {1, 2, 3}; } tail\n");
  const std::size_t close = match_brace(lr.tokens, 0);
  ASSERT_NE(close, std::string::npos);
  EXPECT_EQ(lr.tokens[close + 1].text, "tail");
  // '[' matches its ']'.
  std::size_t open_sq = 0;
  while (lr.tokens[open_sq].text != "[") ++open_sq;
  const std::size_t close_sq = match_brace(lr.tokens, open_sq);
  ASSERT_NE(close_sq, std::string::npos);
  EXPECT_EQ(lr.tokens[close_sq].text, "]");
}

TEST(Lexer, UnterminatedConstructsDegradeGracefully) {
  // Best-effort on malformed input: never crash, never loop.
  EXPECT_FALSE(lex("auto s = \"unterminated\n").tokens.empty());
  EXPECT_FALSE(lex("auto s = R\"(never closed\n").tokens.empty());
  // An unterminated block comment swallows the rest of the file — the
  // correct degradation (everything after /* *is* comment text).
  const auto lr = lex("/* never closed\nint x;");
  EXPECT_TRUE(lr.tokens.empty());
  EXPECT_EQ(lr.comments.size(), 1u);
}

TEST(Lexer, SuppressionsPerTagAreIndependent) {
  // Only the refit-check tag suppresses; other tools' comment tags never
  // do.
  const std::vector<Comment> comments = {
      {"// other-tool: allow(randomness)", 5},
      {"// refit-check: allow(use-after-move, parallel-shared-write)", 9},
  };
  const Suppressions sup = parse_suppressions(comments);
  EXPECT_FALSE(sup.allows("randomness", 5));
  EXPECT_TRUE(sup.allows("use-after-move", 9));
  EXPECT_TRUE(sup.allows("parallel-shared-write", 9));
  // A suppression covers its own line and the next one only.
  EXPECT_TRUE(sup.allows("use-after-move", 10));
  EXPECT_FALSE(sup.allows("use-after-move", 11));
  EXPECT_FALSE(sup.allows("randomness", 9));
}

TEST(Lexer, FileWideSuppressionOnlyInHeader) {
  const std::vector<Comment> early = {{"// refit-check: allow-file(x)", 3}};
  EXPECT_TRUE(parse_suppressions(early).allows("x", 999));
  const std::vector<Comment> late = {{"// refit-check: allow-file(x)", 42}};
  EXPECT_FALSE(parse_suppressions(late).allows("x", 999));
}

}  // namespace
