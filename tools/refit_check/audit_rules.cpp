// The audit family (see check.hpp): rules that need the whole program
// rather than one file. Each file is reduced to its quoted includes and
// its namespace-scope class shapes (bases, watched pointer/reference
// members); the rules then run over the merged facts.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <set>

#include "check.hpp"
#include "common/lexer.hpp"

namespace refit::check {
namespace {

using lint::match_brace;
using lint::match_paren;
using lint::PpLine;
using lint::TokKind;
using lint::Token;

std::string join(const std::vector<std::string>& v, char sep) {
  std::string out;
  for (const std::string& s : v) {
    if (!out.empty()) out += sep;
    out += s;
  }
  return out;
}

/// A pointer/reference data member of a class (only members whose type
/// names a watched store/system type are recorded).
struct MemberRef {
  std::string type;  ///< the pointee/referee type name
  std::string name;  ///< member name
  int line = 0;
  bool is_const = false;
};

/// A class with its base list (for the Phase-derivation walk).
struct ClassInfo {
  std::string name;
  int line = 0;
  std::vector<std::string> bases;  ///< unqualified base names
  std::vector<MemberRef> members;  ///< watched pointer/ref members
};

/// Store/system types a Phase may not hold mutable pointers/references
/// to: anything that owns device or flow state. Cross-phase state must
/// flow through the EngineContext so checkpoints capture it.
const std::set<std::string>& watched_types() {
  static const std::set<std::string> kTypes = {
      "WeightStore", "CrossbarWeightStore", "RcsSystem", "Crossbar",
      "Network",     "EngineContext",       "FaultMatrix",
  };
  return kTypes;
}

const std::set<std::string> kNotAFunctionName = {
    "if",     "for",     "while",   "switch",        "catch",
    "return", "sizeof",  "alignof", "decltype",      "static_assert",
    "assert", "defined", "new",     "delete",        "throw",
    "using",  "typedef", "else",    "co_return",     "co_await",
};

/// Skip a balanced `<...>` template argument list starting at `open`
/// (which must be `<`); returns the index just past the matching `>`.
/// `>>` closes two levels. Falls back to `open + 1` on mismatch.
std::size_t skip_angles(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kPunct) continue;
    if (t[i].text == "<") ++depth;
    if (t[i].text == ">" && --depth == 0) return i + 1;
    if (t[i].text == ">>") {
      depth -= 2;
      if (depth <= 0) return i + 1;
    }
    if (t[i].text == ";" || t[i].text == "{") break;  // not a template list
  }
  return open + 1;
}

/// Parse the base list between `:` and the class body's `{`. Bases are
/// reduced to their unqualified name (`public refit::Phase` → "Phase",
/// `BasePhase<T>` → "BasePhase").
std::vector<std::string> parse_bases(const std::vector<Token>& t,
                                     std::size_t colon, std::size_t open) {
  std::vector<std::string> bases;
  std::string last_ident;
  int angle = 0;
  for (std::size_t i = colon + 1; i < open; ++i) {
    const Token& tok = t[i];
    if (tok.text == "<") ++angle;
    if (tok.text == ">") --angle;
    if (tok.text == ">>") angle -= 2;
    if (angle > 0) continue;
    if (tok.kind == TokKind::kIdent) {
      if (tok.text == "public" || tok.text == "protected" ||
          tok.text == "private" || tok.text == "virtual")
        continue;
      last_ident = tok.text;
    } else if (tok.text == "," || i + 1 == open) {
      if (!last_ident.empty()) bases.push_back(last_ident);
      last_ident.clear();
    }
  }
  if (!last_ident.empty()) bases.push_back(last_ident);
  return bases;
}

/// Collect watched-type pointer/reference data members declared directly
/// in the class body (nested braces — method bodies, nested types — and
/// parenthesized parameter lists are skipped, so a method *returning*
/// `RcsSystem*` or taking `EngineContext&` is not a member).
std::vector<MemberRef> parse_members(const std::vector<Token>& t,
                                     std::size_t open, std::size_t close) {
  std::vector<MemberRef> members;
  int brace = 0;
  int paren = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    const Token& tok = t[i];
    if (tok.text == "{") ++brace;
    if (tok.text == "}") --brace;
    if (tok.text == "(") ++paren;
    if (tok.text == ")") --paren;
    if (brace > 0 || paren > 0) continue;
    if (tok.kind != TokKind::kIdent || !watched_types().count(tok.text))
      continue;
    const bool const_before = i > 0 && t[i - 1].text == "const";
    // After the type: a run of cv-qualifiers and declarator operators,
    // then the member name.
    std::size_t j = i + 1;
    bool saw_ptr_or_ref = false;
    bool const_after = false;
    while (j < close && (t[j].text == "*" || t[j].text == "&" ||
                         t[j].text == "const")) {
      if (t[j].text == "*" || t[j].text == "&") {
        if (!saw_ptr_or_ref && t[j - 1].text == "const") const_after = true;
        saw_ptr_or_ref = true;
      }
      ++j;
    }
    if (!saw_ptr_or_ref) continue;
    if (j >= close || t[j].kind != TokKind::kIdent) continue;
    // `Type* name(` is a method declaration returning Type*, not a member.
    if (j + 1 < close && t[j + 1].text == "(") continue;
    members.push_back({tok.text, t[j].text, tok.line,
                       const_before || const_after});
    i = j;
  }
  return members;
}

/// What the cross-file rules need to know about one file.
struct FileFacts {
  std::string path;
  bool is_header = false;
  std::vector<std::string> includes;  ///< quoted includes, as written
  std::vector<int> include_lines;     ///< parallel to `includes`
  std::vector<ClassInfo> classes;
};

FileFacts extract_facts(const cfg::FileCfg& file) {
  FileFacts facts;
  facts.path = file.path;
  facts.is_header = file.path.ends_with(".hpp") ||
                    file.path.ends_with(".h") ||
                    file.path.ends_with(".hh");
  const std::vector<Token>& t = file.lex.tokens;

  for (const PpLine& pp : file.lex.pp_lines) {
    if (pp.text.compare(0, 7, "include") != 0) continue;
    const std::size_t q1 = pp.text.find('"');
    if (q1 == std::string::npos) continue;  // <system> include
    const std::size_t q2 = pp.text.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    facts.includes.push_back(pp.text.substr(q1 + 1, q2 - q1 - 1));
    facts.include_lines.push_back(pp.line);
  }

  // Namespace-scope class shapes. Class and function bodies are consumed
  // inline, so the scope stack only tracks namespaces (true) and stray
  // blocks (global initializers, enum bodies), whose contents are skipped.
  std::vector<bool> scopes;
  auto at_ns_scope = [&] {
    return std::all_of(scopes.begin(), scopes.end(),
                       [](bool is_namespace) { return is_namespace; });
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == "{") scopes.push_back(false);
      if (tok.text == "}" && !scopes.empty()) scopes.pop_back();
      continue;
    }
    if (tok.kind != TokKind::kIdent) continue;

    if (tok.text == "namespace" && (i == 0 || t[i - 1].text != "using")) {
      std::size_t j = i + 1;
      while (j < t.size() &&
             (t[j].kind == TokKind::kIdent || t[j].text == "::"))
        ++j;
      if (j < t.size() && t[j].text == "{") scopes.push_back(true);
      i = j;  // (a namespace alias opens no scope)
      continue;
    }

    if (!at_ns_scope()) continue;

    // class/struct Name [final] [: bases] { … };  (fwd decls skipped)
    if ((tok.text == "class" || tok.text == "struct")) {
      std::size_t j = i + 1;
      if (j >= t.size() || t[j].kind != TokKind::kIdent) continue;
      const std::string name = t[j].text;
      const int line = t[j].line;
      std::size_t k = j + 1;
      if (k < t.size() && t[k].text == "final") ++k;
      std::size_t colon = std::string::npos;
      if (k < t.size() && t[k].text == ":") {
        colon = k;
        while (k < t.size() && t[k].text != "{" && t[k].text != ";") ++k;
      }
      // Only `{` (or `: bases {`) right after the name is a definition;
      // anything else is a forward declaration, a template parameter
      // (`template <class T>`), or an elaborated type.
      if (k >= t.size() || t[k].text != "{") {
        i = j;
        continue;
      }
      const std::size_t body_close = match_brace(t, k);
      if (body_close == std::string::npos) continue;
      ClassInfo ci;
      ci.name = name;
      ci.line = line;
      if (colon != std::string::npos) ci.bases = parse_bases(t, colon, k);
      ci.members = parse_members(t, k, body_close);
      facts.classes.push_back(std::move(ci));
      i = body_close;
      continue;
    }

    // Function definition: Name ( params ) [trailer] { … }. Member
    // access and keywords are excluded. Bodies — and ctor member-init
    // lists — are consumed whole, so local classes are never recorded and
    // `: member_(x) {` never masquerades as a definition of `member_`.
    if (i + 1 < t.size() && t[i + 1].text == "(" &&
        !kNotAFunctionName.count(tok.text) &&
        (i == 0 || (t[i - 1].text != "." && t[i - 1].text != "->" &&
                    t[i - 1].text != "operator"))) {
      const bool qualified = i > 0 && t[i - 1].text == "::";
      const std::size_t close = match_paren(t, i + 1);
      if (close == std::string::npos) continue;
      // Trailer scan to the body `{` (definition) or a terminator.
      // Parenthesized member-init expressions and template argument
      // lists are skipped whole.
      std::size_t k = close + 1;
      bool is_def = false;
      while (k < t.size()) {
        const std::string& s = t[k].text;
        if (s == "{") {
          is_def = true;
          break;
        }
        if (s == ";" || s == "}" || s == "=") break;
        if (!qualified && (s == "," || s == ")")) break;
        if (s == "(") {
          k = match_paren(t, k);
          if (k == std::string::npos) break;
          ++k;
          continue;
        }
        if (s == "<") {
          k = skip_angles(t, k);
          continue;
        }
        ++k;
      }
      if (!is_def || k == std::string::npos) {
        i = close;
        continue;
      }
      const std::size_t body_close = match_brace(t, k);
      if (body_close != std::string::npos) i = body_close;
      continue;
    }
  }
  return facts;
}

/// Lexical-normalize a path ("a/./b", "a/x/../b" → "a/b").
std::string normalize(const std::string& p) {
  return std::filesystem::path(p).lexically_normal().generic_string();
}

std::string dir_of(const std::string& p) {
  const std::size_t slash = p.rfind('/');
  return slash == std::string::npos ? "" : p.substr(0, slash);
}

// ---- include-cycle --------------------------------------------------------

void check_include_cycles(const std::vector<FileFacts>& tus,
                          std::vector<Finding>& findings) {
  // Resolve each quoted include to a scanned file: relative to the
  // includer's directory first, then to src/ (the project's include
  // root), then as written.
  std::map<std::string, const FileFacts*> by_path;
  for (const FileFacts& tu : tus) by_path[normalize(tu.path)] = &tu;
  auto resolve = [&](const FileFacts& from,
                     const std::string& inc) -> const FileFacts* {
    for (const std::string& cand :
         {normalize(dir_of(from.path) + "/" + inc), normalize("src/" + inc),
          normalize(inc)}) {
      const auto it = by_path.find(cand);
      if (it != by_path.end()) return it->second;
    }
    return nullptr;
  };

  // Edges between headers only (a .cpp cannot appear inside a cycle).
  std::map<const FileFacts*, std::vector<std::pair<const FileFacts*, int>>>
      edges;
  for (const FileFacts& tu : tus) {
    if (!tu.is_header) continue;
    for (std::size_t i = 0; i < tu.includes.size(); ++i) {
      const FileFacts* to = resolve(tu, tu.includes[i]);
      if (to != nullptr && to->is_header && to != &tu)
        edges[&tu].push_back({to, tu.include_lines[i]});
    }
  }

  // Iterative DFS with colors; each cycle is reported once, anchored at
  // its lexicographically smallest member so the finding is stable.
  std::map<const FileFacts*, int> color;  // 0 white, 1 grey, 2 black
  std::set<std::string> seen_cycles;
  std::vector<const FileFacts*> stack;

  std::function<void(const FileFacts*)> dfs = [&](const FileFacts* n) {
    color[n] = 1;
    stack.push_back(n);
    for (const auto& [to, line] : edges[n]) {
      (void)line;
      if (color[to] == 2) continue;
      if (color[to] == 1) {
        // Found a cycle: the stack suffix from `to` to `n`.
        const auto begin =
            std::find(stack.begin(), stack.end(), to);
        std::vector<std::string> members;
        for (auto it = begin; it != stack.end(); ++it)
          members.push_back((*it)->path);
        std::vector<std::string> sorted = members;
        std::sort(sorted.begin(), sorted.end());
        const std::string key = join(sorted, ' ');
        if (seen_cycles.count(key)) continue;
        seen_cycles.insert(key);
        // Anchor: smallest member; line: its include of the next member.
        const std::size_t anchor = static_cast<std::size_t>(
            std::min_element(members.begin(), members.end()) -
            members.begin());
        const FileFacts* atu = by_path.at(normalize(members[anchor]));
        const std::string& next = members[(anchor + 1) % members.size()];
        int at_line = 1;
        for (const auto& [to2, line2] : edges[atu])
          if (to2->path == next) at_line = line2;
        // Rotate so the message walks the cycle from the anchor.
        std::vector<std::string> walk;
        for (std::size_t k = 0; k < members.size(); ++k)
          walk.push_back(members[(anchor + k) % members.size()]);
        walk.push_back(members[anchor]);
        findings.push_back({atu->path, at_line, "include-cycle",
                            "#include cycle: " + join(walk, ' ') +
                                " (headers must form a DAG)"});
        continue;
      }
      dfs(to);
    }
    stack.pop_back();
    color[n] = 2;
  };
  for (const FileFacts& tu : tus)
    if (tu.is_header && color[&tu] == 0) dfs(&tu);
}

// ---- phase-purity ---------------------------------------------------------

void check_phase_purity(const std::vector<FileFacts>& tus,
                        std::vector<Finding>& findings) {
  // Class → bases, merged across TUs (unqualified names).
  std::map<std::string, std::set<std::string>> bases;
  for (const FileFacts& tu : tus)
    for (const ClassInfo& c : tu.classes)
      bases[c.name].insert(c.bases.begin(), c.bases.end());

  std::map<std::string, bool> memo;
  std::function<bool(const std::string&, int)> derives_from_phase =
      [&](const std::string& name, int depth) -> bool {
    if (name == "Phase") return true;
    if (depth > 16) return false;  // base-graph cycle guard
    const auto m = memo.find(name);
    if (m != memo.end()) return m->second;
    memo[name] = false;  // break cycles conservatively
    bool yes = false;
    const auto it = bases.find(name);
    if (it != bases.end())
      for (const std::string& b : it->second)
        if (derives_from_phase(b, depth + 1)) yes = true;
    memo[name] = yes;
    return yes;
  };

  for (const FileFacts& tu : tus) {
    for (const ClassInfo& c : tu.classes) {
      if (c.name == "Phase" || !derives_from_phase(c.name, 0)) continue;
      for (const MemberRef& m : c.members) {
        if (m.is_const) continue;
        findings.push_back(
            {tu.path, m.line, "phase-purity",
             c.name + "::" + m.name + " holds a mutable " + m.type +
                 " — phases may only reach store/system state through the "
                 "EngineContext passed to run(), or checkpoint/resume "
                 "silently drops it"});
      }
    }
  }
}

}  // namespace

Family audit_family() {
  return {"audit",
          {
              {"include-cycle",
               "a cycle in the quoted-#include graph (headers must form a "
               "DAG)"},
              {"phase-purity",
               "a class deriving from the engine's Phase holding a non-const "
               "pointer/reference to a store/system type — phases must reach "
               "all state through the EngineContext so checkpoint/resume "
               "stays exact"},
          },
          [](const Program& program, std::vector<Finding>& out) {
            std::vector<FileFacts> facts;
            facts.reserve(program.size());
            for (const cfg::FileCfg& file : program)
              facts.push_back(extract_facts(file));
            check_include_cycles(facts, out);
            check_phase_purity(facts, out);
          }};
}

}  // namespace refit::check
