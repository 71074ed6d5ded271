// Expected-findings self-test for refit-lint: every fixture under
// testdata/ is linted and the produced (line, rule) pairs must match the
// fixture's annotations exactly —
//
//   // EXPECT-LINT: <rule>        finding on this line
//   // EXPECT-LINT@<N>: <rule>    finding reported at line N (for rules
//                                 that anchor to line 1 or a pragma line)
//
// A fixture with no annotations asserts the linter is silent on it, so the
// clean fixtures guard against false positives as much as the bad ones
// guard against false negatives.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "lint.hpp"

namespace fs = std::filesystem;

namespace {

using LineRule = std::pair<int, std::string>;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open fixture " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::multiset<LineRule> parse_expectations(const std::string& content) {
  std::multiset<LineRule> want;
  const std::regex at_line(R"(EXPECT-LINT@(\d+):\s*([a-z0-9-]+))");
  const std::regex same_line(R"(EXPECT-LINT:\s*([a-z0-9-]+))");
  std::istringstream ss(content);
  std::string line;
  int lineno = 0;
  while (std::getline(ss, line)) {
    ++lineno;
    std::smatch m;
    if (std::regex_search(line, m, at_line))
      want.emplace(std::stoi(m[1]), m[2]);
    else if (std::regex_search(line, m, same_line))
      want.emplace(lineno, m[1]);
  }
  return want;
}

std::vector<fs::path> fixtures() {
  // Recursive: layering fixtures live under testdata/src/<module>/ so the
  // path-derived module matches what the rule sees on real sources.
  std::vector<fs::path> out;
  for (const auto& e :
       fs::recursive_directory_iterator(REFIT_LINT_TESTDATA_DIR))
    if (e.is_regular_file()) out.push_back(e.path());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

TEST(RefitLint, TestdataDirHasFixtures) {
  EXPECT_GE(fixtures().size(), 8u)
      << "testdata/ should hold at least one fixture per rule";
}

TEST(RefitLint, FixturesProduceExactlyTheAnnotatedFindings) {
  for (const fs::path& p : fixtures()) {
    SCOPED_TRACE(p.filename().string());
    const std::string content = read_file(p);
    const std::multiset<LineRule> want = parse_expectations(content);

    std::multiset<LineRule> got;
    for (const auto& f :
         refit::lint::lint_source(p.generic_string(), content))
      got.emplace(f.line, f.rule);

    for (const auto& [line, rule] : want)
      EXPECT_TRUE(got.count({line, rule}))
          << "expected finding [" << rule << "] at line " << line
          << " was not produced";
    for (const auto& [line, rule] : got)
      EXPECT_TRUE(want.count({line, rule}))
          << "unexpected finding [" << rule << "] at line " << line;
  }
}

TEST(RefitLint, EveryRuleIsCoveredByAFixture) {
  std::set<std::string> exercised;
  for (const fs::path& p : fixtures())
    for (const auto& [line, rule] : parse_expectations(read_file(p)))
      exercised.insert(rule);
  for (const auto& r : refit::lint::rules())
    EXPECT_TRUE(exercised.count(r.name))
        << "rule '" << r.name << "' has no expected-findings fixture";
}

TEST(RefitLint, PathExemptionsApply) {
  // The modules that own a primitive may use it freely.
  const std::string pool_src =
      "// thread pool impl\n#include <thread>\nstd::thread t; std::mutex m;\n";
  EXPECT_TRUE(
      refit::lint::lint_source("src/common/thread_pool.cpp", pool_src)
          .empty());
  const std::string rng_src = "// rng impl\nint x = rand();\n";
  EXPECT_TRUE(refit::lint::lint_source("src/common/rng.cpp", rng_src).empty());

  // common/log serializes with a mutex; src/obs owns both its own
  // synchronization and the raw std::chrono clocks behind the Clock seam.
  const std::string mutex_src = "// impl\n#include <mutex>\nstd::mutex m;\n";
  EXPECT_TRUE(
      refit::lint::lint_source("src/common/log.cpp", mutex_src).empty());
  EXPECT_TRUE(
      refit::lint::lint_source("src/obs/metrics.cpp", mutex_src).empty());
  const std::string clock_src =
      "// impl\nauto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(
      refit::lint::lint_source("src/obs/clock.cpp", clock_src).empty());
  // Files outside src/ (tests, benches) may read clocks directly.
  EXPECT_TRUE(refit::lint::lint_source("tests/x.cpp", clock_src).empty());

  // The same sources elsewhere are violations.
  EXPECT_FALSE(refit::lint::lint_source("src/nn/dense.cpp", pool_src).empty());
  EXPECT_FALSE(refit::lint::lint_source("src/nn/dense.cpp", rng_src).empty());
  EXPECT_FALSE(
      refit::lint::lint_source("src/nn/dense.cpp", clock_src).empty());

  // nn/weight_store (the interface and the software backend) is exempt;
  // the identical call is a violation in any other nn/core file, and legal
  // outside the inference side entirely (rcs, detect, tests).
  const std::string eff_src = "// impl\nauto w = store->effective();\n";
  EXPECT_TRUE(
      refit::lint::lint_source("src/nn/weight_store.cpp", eff_src).empty());
  EXPECT_FALSE(
      refit::lint::lint_source("src/nn/dense.cpp", eff_src).empty());
  EXPECT_FALSE(
      refit::lint::lint_source("src/core/engine.cpp", eff_src).empty());
  EXPECT_TRUE(
      refit::lint::lint_source("src/rcs/crossbar_store.cpp", eff_src).empty());
  EXPECT_TRUE(refit::lint::lint_source("tests/x.cpp", eff_src).empty());
}

TEST(RefitLint, FileWideSuppression) {
  const std::string src =
      "// refit-lint: allow-file(randomness)\n"
      "int a = rand();\nint b = rand();\n";
  EXPECT_TRUE(refit::lint::lint_source("tests/x.cpp", src).empty());
}

TEST(RefitLint, SuppressionOnPreviousLineCoversOneLineOnly) {
  const std::string src =
      "// header\n"
      "// refit-lint: allow(randomness)\n"
      "int a = rand();\n"
      "int b = rand();\n";
  const auto findings = refit::lint::lint_source("tests/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_EQ(findings[0].rule, "randomness");
}

TEST(RefitLint, FindingsCarryFileRuleAndMessage) {
  const auto findings = refit::lint::lint_source(
      "tests/x.cpp", "// header\nint a = rand();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "tests/x.cpp");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[0].rule, "randomness");
  EXPECT_NE(findings[0].message.find("refit::Rng"), std::string::npos);
}
