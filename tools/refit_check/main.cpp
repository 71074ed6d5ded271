// refit-check CLI: runs every rule family (see check.hpp) over the given
// files/directories and reports findings compiler-style (`path:line:
// [rule] message`), so editors and CI can jump to them.
//
// Usage:
//   refit_check [--list-rules] [--json] [--dump-cfg] [<file-or-dir>...]
//
// With no paths, the project roots are scanned: src tests bench examples
// tools (run from the repo root). `--json` prints the findings as one flat
// JSON array of {file, line, rule, message} records (CI turns them
// into annotations); the human summary moves to stderr. `--dump-cfg`
// prints every function's CFG instead of checking — the format of the
// testdata/cfg/*.golden files.
//
// Exit status: 0 = clean, 1 = findings, 2 = usage or I/O error.
// Directories are scanned recursively for .cpp/.hpp/.h/.cc/.hh/.cxx
// files; directories named `testdata` or starting with `build` are
// skipped, so the analyzer's own fixtures never count against the tree.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "check.hpp"

namespace fs = std::filesystem;

namespace {

bool source_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
         ext == ".hh" || ext == ".cxx";
}

bool skip_dir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name == "testdata" || name.rfind("build", 0) == 0 ||
         name == ".git" || name == "third_party";
}

void collect(const fs::path& root, std::vector<fs::path>& out) {
  if (fs::is_regular_file(root)) {
    if (source_extension(root)) out.push_back(root);
    return;
  }
  for (auto it = fs::recursive_directory_iterator(root);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_directory() && skip_dir(it->path())) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && source_extension(it->path()))
      out.push_back(it->path());
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The roots scanned when the CLI is invoked bare (matches check.sh/CI).
const char* const kDefaultRoots[] = {"src", "tests", "bench", "examples",
                                     "tools"};

int usage() {
  std::cerr << "usage: refit_check [--list-rules] [--json] [--dump-cfg] "
               "[<file-or-dir>...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool dump = false;
  std::vector<std::string> roots;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& a : args) {
    if (a == "--list-rules") {
      for (const auto& fam : refit::check::families())
        for (const auto& r : fam.rules)
          std::cout << r.name << " (" << fam.name << ")\n    "
                    << r.description << "\n";
      return 0;
    }
    if (a == "--json") {
      json = true;
    } else if (a == "--dump-cfg") {
      dump = true;
    } else if (!a.empty() && a[0] == '-') {
      return usage();
    } else {
      roots.push_back(a);
    }
  }
  if (roots.empty())
    for (const char* r : kDefaultRoots)
      if (fs::exists(r)) roots.emplace_back(r);
  if (roots.empty()) {
    std::cerr << "refit_check: no inputs (run from the repo root or pass "
                 "paths)\n";
    return 2;
  }

  std::vector<fs::path> files;
  for (const std::string& a : roots) {
    if (!fs::exists(a)) {
      std::cerr << "refit_check: no such file or directory: " << a << "\n";
      return 2;
    }
    collect(a, files);
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  refit::check::Program program;
  program.reserve(files.size());
  for (const fs::path& f : files) {
    std::ifstream in(f, std::ios::binary);
    if (!in) {
      std::cerr << "refit_check: cannot read " << f << "\n";
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    program.push_back(refit::cfg::build_file_cfg(f.generic_string(), ss.str()));
  }
  if (dump) {
    for (const refit::cfg::FileCfg& file : program) {
      std::cout << "== " << file.path << "\n";
      refit::cfg::dump_cfg(std::cout, file);
    }
    return 0;
  }

  const std::vector<refit::check::Finding> findings =
      refit::check::check_program(program);
  std::map<std::string, std::size_t> per_rule;
  if (json) std::cout << "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const refit::check::Finding& f = findings[i];
    ++per_rule[f.rule];
    if (json) {
      std::cout << (i ? ",\n" : "\n") << "  {\"file\": \""
                << json_escape(f.file) << "\", \"line\": " << f.line
                << ", \"rule\": \"" << json_escape(f.rule)
                << "\", \"message\": \"" << json_escape(f.message)
                << "\"}";
    } else {
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    }
  }
  if (json) std::cout << (findings.empty() ? "]\n" : "\n]\n");

  std::ostream& human = json ? std::cerr : std::cout;
  if (findings.empty()) {
    human << "refit-check: " << files.size() << " files clean\n";
    return 0;
  }
  human << "refit-check: " << findings.size() << " finding(s) in "
        << files.size() << " files scanned:";
  for (const auto& [rule, count] : per_rule)
    human << " " << rule << "=" << count;
  human << "\n(suppress a deliberate use with `// refit-check: "
           "allow(<rule>)` on or above the line, with a comment saying "
           "why)\n";
  return 1;
}
