// Token scanner + suppression parser behind refit-check (see lexer.hpp).
#include "common/lexer.hpp"

#include <cctype>
#include <sstream>

namespace refit::lint {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

namespace {

/// Multi-character punctuators, longest first (maximal munch) so that `==`
/// never lexes as two `=` and `<<=` never as `<<` `=`.
const char* const kPuncts[] = {
    "<<=", ">>=", "...", "->*", "::", "->", "++", "--", "<<", ">>", "<=",
    ">=",  "==",  "!=",  "&&",  "||", "+=", "-=", "*=", "/=", "%=", "&=",
    "|=",  "^=",
};

}  // namespace

LexResult lex(const std::string& src) {
  LexResult out;
  std::size_t i = 0;
  const std::size_t n = src.size();
  int line = 1;
  bool at_line_start = true;

  auto advance = [&](std::size_t count) {
    for (std::size_t k = 0; k < count && i < n; ++k, ++i)
      if (src[i] == '\n') ++line;
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      at_line_start = true;
      advance(1);
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t start = i;
      while (i < n && src[i] != '\n') ++i;
      out.comments.push_back({src.substr(start, i - start), line});
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start_line = line;
      const std::size_t start = i;
      advance(2);
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) advance(1);
      advance(2);
      out.comments.push_back({src.substr(start, i - start), start_line});
      continue;
    }
    // Preprocessor directive (only when '#' is the first glyph on the line).
    if (c == '#' && at_line_start) {
      const int start_line = line;
      std::string text;
      advance(1);
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          text += ' ';
          advance(2);
          continue;
        }
        if (src[i] == '\n') break;
        text += src[i];
        advance(1);
      }
      // Trim.
      const auto b = text.find_first_not_of(" \t");
      const auto e = text.find_last_not_of(" \t");
      out.pp_lines.push_back(
          {b == std::string::npos ? "" : text.substr(b, e - b + 1),
           start_line});
      continue;
    }
    at_line_start = false;
    // Raw string literal R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(') delim += src[j++];
      const std::string closer = ")" + delim + "\"";
      const std::size_t end = src.find(closer, j);
      const int start_line = line;
      const std::size_t stop = end == std::string::npos ? n : end + closer.size();
      std::string text = src.substr(i, stop - i);
      advance(stop - i);
      out.tokens.push_back({TokKind::kString, std::move(text), start_line});
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      const int start_line = line;
      const std::size_t start = i;
      advance(1);
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n)
          advance(2);
        else
          advance(1);
      }
      advance(1);
      out.tokens.push_back({quote == '"' ? TokKind::kString : TokKind::kChar,
                            src.substr(start, i - start), start_line});
      continue;
    }
    if (ident_start(c)) {
      const std::size_t start = i;
      while (i < n && ident_char(src[i])) ++i;
      out.tokens.push_back(
          {TokKind::kIdent, src.substr(start, i - start), line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      const std::size_t start = i;
      while (i < n && (ident_char(src[i]) || src[i] == '.' ||
                       ((src[i] == '+' || src[i] == '-') && i > start &&
                        (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                         src[i - 1] == 'p' || src[i - 1] == 'P'))))
        ++i;
      out.tokens.push_back(
          {TokKind::kNumber, src.substr(start, i - start), line});
      continue;
    }
    // Punctuation, longest match first.
    bool matched = false;
    for (const char* p : kPuncts) {
      const std::size_t len = std::char_traits<char>::length(p);
      if (src.compare(i, len, p) == 0) {
        out.tokens.push_back({TokKind::kPunct, p, line});
        advance(len);
        matched = true;
        break;
      }
    }
    if (!matched) {
      out.tokens.push_back({TokKind::kPunct, std::string(1, c), line});
      advance(1);
    }
  }
  return out;
}

std::size_t match_paren(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == "(") ++depth;
    if (toks[i].text == ")" && --depth == 0) return i;
  }
  return std::string::npos;
}

std::size_t match_brace(const std::vector<Token>& toks, std::size_t open) {
  if (open >= toks.size()) return std::string::npos;
  const std::string& opener = toks[open].text;
  const std::string closer = opener == "{" ? "}" : "]";
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == opener) ++depth;
    if (toks[i].text == closer && --depth == 0) return i;
  }
  return std::string::npos;
}

bool Suppressions::allows(const std::string& rule, int line) const {
  if (file_wide.count(rule) || file_wide.count("*")) return true;
  for (const int l : {line, line - 1}) {
    const auto it = by_line.find(l);
    if (it != by_line.end() &&
        (it->second.count(rule) || it->second.count("*")))
      return true;
  }
  return false;
}

Suppressions parse_suppressions(const std::vector<Comment>& comments) {
  const std::string tag = kSuppressionTag;
  Suppressions sup;
  for (const Comment& cm : comments) {
    const std::size_t pos0 = cm.text.find(tag);
    if (pos0 == std::string::npos) continue;
    std::size_t pos = pos0 + tag.size();
    while (pos < cm.text.size()) {
      while (pos < cm.text.size() &&
             (std::isspace(static_cast<unsigned char>(cm.text[pos])) ||
              cm.text[pos] == ','))
        ++pos;
      std::size_t word_end = pos;
      while (word_end < cm.text.size() &&
             (ident_char(cm.text[word_end]) || cm.text[word_end] == '-'))
        ++word_end;
      const std::string verb = cm.text.substr(pos, word_end - pos);
      if (verb != "allow" && verb != "allow-file") break;
      const std::size_t open = cm.text.find('(', word_end);
      if (open == std::string::npos) break;
      const std::size_t close = cm.text.find(')', open);
      if (close == std::string::npos) break;
      std::string list = cm.text.substr(open + 1, close - open - 1);
      std::istringstream ls(list);
      std::string rule;
      while (std::getline(ls, rule, ',')) {
        const auto b = rule.find_first_not_of(" \t");
        const auto e = rule.find_last_not_of(" \t");
        if (b == std::string::npos) continue;
        rule = rule.substr(b, e - b + 1);
        if (verb == "allow-file" && cm.line <= 10)
          sup.file_wide.insert(rule);
        else
          sup.by_line[cm.line].insert(rule);
      }
      pos = close + 1;
    }
  }
  return sup;
}

}  // namespace refit::lint
