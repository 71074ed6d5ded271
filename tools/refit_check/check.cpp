// The refit-check driver core (see check.hpp): the rule registry and the
// one pass that runs every family and applies suppressions.
#include "check.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "common/lexer.hpp"

namespace refit::check {

const std::vector<Family>& families() {
  static const std::vector<Family> kFamilies = {
      lint_family(), audit_family(), flow_family()};
  return kFamilies;
}

std::vector<Finding> check_program(const Program& program) {
  std::vector<Finding> findings;
  for (const Family& fam : families()) fam.run(program, findings);

  std::map<std::string, lint::Suppressions> sups;
  for (const cfg::FileCfg& f : program)
    sups.emplace(f.path, lint::parse_suppressions(f.lex.comments));
  findings.erase(std::remove_if(findings.begin(), findings.end(),
                                [&](const Finding& f) {
                                  const auto it = sups.find(f.file);
                                  return it != sups.end() &&
                                         it->second.allows(f.rule, f.line);
                                }),
                 findings.end());

  const auto key = [](const Finding& f) {
    return std::tie(f.file, f.line, f.rule, f.message);
  };
  std::stable_sort(findings.begin(), findings.end(),
                   [&](const Finding& a, const Finding& b) {
                     return key(a) < key(b);
                   });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [&](const Finding& a, const Finding& b) {
                               return key(a) == key(b);
                             }),
                 findings.end());
  return findings;
}

}  // namespace refit::check
