// Self-test for refit-check. One expected-findings harness covers every
// rule family: each entry directly under testdata/<family>/ is one case —
// a file on its own, or a directory whose files form one program (the
// audit family's cross-file cases). Every case is checked with *all*
// rules, and the produced (file, line, rule) triples must match the
// fixtures' annotations exactly:
//
//   // EXPECT: <rule>        finding on this line
//   // EXPECT@<N>: <rule>    finding reported at line N (for rules that
//                            anchor to line 1 or a pragma line)
//
// A case without annotations asserts the analyzer is silent on it, so the
// clean fixtures guard against false positives as much as the bad ones
// guard against false negatives. Paths are case-relative to the family
// directory, which keeps the path-based rules (layering's src/<module>/,
// the det family's scope) seeing what they see on the tree.
//
// On top of the harness, the families' path exemptions and suppression
// semantics are probed directly, the CFG dump is pinned by golden files
// under testdata/cfg/ (regenerate with `build/tools/refit_check
// --dump-cfg <file>` minus the `== ` header), and the det family's
// interprocedural machinery is probed through det.hpp.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "check.hpp"
#include "det.hpp"
#include "gtest/gtest.h"

namespace fs = std::filesystem;

namespace {

using refit::check::Finding;
using FileLineRule = std::tuple<std::string, int, std::string>;
using Case = std::vector<std::pair<std::string, std::string>>;  // path, text

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open fixture " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

fs::path testdata(const std::string& sub) {
  return fs::path(REFIT_CHECK_TESTDATA_DIR) / sub;
}

/// The cases of one family, each as (family-relative path, content) pairs.
std::vector<Case> cases(const std::string& family) {
  const fs::path dir = testdata(family);
  std::vector<fs::path> entries;
  for (const auto& e : fs::directory_iterator(dir)) entries.push_back(e.path());
  std::sort(entries.begin(), entries.end());
  std::vector<Case> out;
  for (const fs::path& entry : entries) {
    std::vector<fs::path> files;
    if (fs::is_directory(entry)) {
      for (const auto& e : fs::recursive_directory_iterator(entry))
        if (e.is_regular_file()) files.push_back(e.path());
    } else {
      files.push_back(entry);
    }
    std::sort(files.begin(), files.end());
    Case c;
    for (const fs::path& f : files)
      c.emplace_back(f.lexically_relative(dir).generic_string(), read_file(f));
    out.push_back(std::move(c));
  }
  return out;
}

std::set<FileLineRule> expectations(const Case& c) {
  std::set<FileLineRule> want;
  const std::regex at_line(R"(EXPECT@(\d+):\s*([a-z0-9-]+))");
  const std::regex same_line(R"(EXPECT:\s*([a-z0-9-]+))");
  for (const auto& [path, content] : c) {
    std::istringstream ss(content);
    std::string line;
    int lineno = 0;
    while (std::getline(ss, line)) {
      ++lineno;
      std::smatch m;
      if (std::regex_search(line, m, at_line))
        want.emplace(path, std::stoi(m[1]), m[2]);
      else if (std::regex_search(line, m, same_line))
        want.emplace(path, lineno, m[1]);
    }
  }
  return want;
}

std::vector<Finding> check_case(const Case& c) {
  refit::check::Program program;
  for (const auto& [path, content] : c)
    program.push_back(refit::cfg::build_file_cfg(path, content));
  return refit::check::check_program(program);
}

/// The harness: every case of `family` produces exactly its annotations.
void expect_fixtures_match(const std::string& family) {
  for (const Case& c : cases(family)) {
    SCOPED_TRACE(family + "/" + c.front().first);
    const std::set<FileLineRule> want = expectations(c);
    std::set<FileLineRule> got;
    for (const Finding& f : check_case(c)) got.emplace(f.file, f.line, f.rule);
    for (const auto& [file, line, rule] : want)
      EXPECT_TRUE(got.count({file, line, rule}))
          << "expected finding [" << rule << "] at " << file << ":" << line
          << " was not produced";
    for (const auto& [file, line, rule] : got)
      EXPECT_TRUE(want.count({file, line, rule}))
          << "unexpected finding [" << rule << "] at " << file << ":"
          << line;
  }
}

const refit::check::Family& family(const std::string& name) {
  for (const auto& fam : refit::check::families())
    if (fam.name == name) return fam;
  ADD_FAILURE() << "no rule family named " << name;
  return refit::check::families().front();
}

/// Every registered rule of `family` is exercised by a bad fixture there.
void expect_rules_covered(const std::string& name) {
  std::set<std::string> exercised;
  for (const Case& c : cases(name))
    for (const auto& [file, line, rule] : expectations(c))
      exercised.insert(rule);
  for (const auto& r : family(name).rules)
    EXPECT_TRUE(exercised.count(r.name))
        << "rule '" << r.name << "' has no expected-findings fixture under "
        << "testdata/" << name << "/";
}

/// Check one source with every rule, keeping the findings of one family
/// (the unit tests below probe one family's semantics at a time).
std::vector<Finding> check_source(const std::string& family_name,
                                  const std::string& path,
                                  const std::string& content) {
  std::set<std::string> names;
  for (const auto& r : family(family_name).rules) names.insert(r.name);
  std::vector<Finding> out;
  for (Finding& f : check_case({{path, content}}))
    if (names.count(f.rule)) out.push_back(std::move(f));
  return out;
}

refit::det::Files pointers(const std::vector<refit::cfg::FileCfg>& files) {
  refit::det::Files out;
  for (const auto& f : files) out.push_back(&f);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

TEST(RefitCheck, RuleNamesAreUniqueAcrossFamilies) {
  std::set<std::string> seen;
  std::size_t total = 0;
  for (const auto& fam : refit::check::families())
    for (const auto& r : fam.rules) {
      EXPECT_TRUE(seen.insert(r.name).second) << "duplicate rule " << r.name;
      ++total;
    }
  EXPECT_EQ(total, 22u) << "lint 11 + audit 2 + flow 4 + det 5";
}

TEST(RefitCheck, DetScopeLeavesOutTestsAndTools) {
  EXPECT_TRUE(refit::det::in_scope("src/rcs/crossbar_store.cpp"));
  EXPECT_TRUE(refit::det::in_scope("bench/bench_backend.cpp"));
  EXPECT_TRUE(refit::det::in_scope("examples/quickstart.cpp"));
  EXPECT_FALSE(refit::det::in_scope("tests/test_backend.cpp"));
  EXPECT_FALSE(refit::det::in_scope("tools/refit_check/main.cpp"));
  // The same threadcount leak is a det finding in bench/, not in tests/.
  const std::string src =
      "// impl\n"
      "void f(std::ostream& os) {\n"
      "  os << std::thread::hardware_concurrency();\n"
      "}\n";
  EXPECT_EQ(check_source("det", "bench/x.cpp", src).size(), 1u);
  EXPECT_TRUE(check_source("det", "tests/x.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// lint
// ---------------------------------------------------------------------------

TEST(RefitLint, TestdataDirHasFixtures) {
  EXPECT_GE(cases("lint").size(), 8u)
      << "testdata/lint/ should hold at least one fixture per rule";
}

TEST(RefitLint, FixturesProduceExactlyTheAnnotatedFindings) {
  expect_fixtures_match("lint");
}

TEST(RefitLint, EveryRuleIsCoveredByAFixture) { expect_rules_covered("lint"); }

TEST(RefitLint, PathExemptionsApply) {
  const auto lint = [](const std::string& path, const std::string& src) {
    return check_source("lint", path, src);
  };
  // The modules that own a primitive may use it freely.
  const std::string pool_src =
      "// thread pool impl\n#include <thread>\nstd::thread t; std::mutex m;\n";
  EXPECT_TRUE(lint("src/common/thread_pool.cpp", pool_src).empty());
  const std::string rng_src = "// rng impl\nint x = rand();\n";
  EXPECT_TRUE(lint("src/common/rng.cpp", rng_src).empty());

  // common/log serializes with a mutex; src/obs owns both its own
  // synchronization and the raw std::chrono clocks behind the Clock seam.
  const std::string mutex_src = "// impl\n#include <mutex>\nstd::mutex m;\n";
  EXPECT_TRUE(lint("src/common/log.cpp", mutex_src).empty());
  EXPECT_TRUE(lint("src/obs/metrics.cpp", mutex_src).empty());
  const std::string clock_src =
      "// impl\nauto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(lint("src/obs/clock.cpp", clock_src).empty());
  // Files outside src/ (tests, benches) may read clocks directly.
  EXPECT_TRUE(lint("tests/x.cpp", clock_src).empty());

  // The same sources elsewhere are violations.
  EXPECT_FALSE(lint("src/nn/dense.cpp", pool_src).empty());
  EXPECT_FALSE(lint("src/nn/dense.cpp", rng_src).empty());
  EXPECT_FALSE(lint("src/nn/dense.cpp", clock_src).empty());

  // nn/weight_store (the interface and the software backend) is exempt;
  // the identical call is a violation in any other nn/core file, and legal
  // outside the inference side entirely (rcs, detect, tests).
  const std::string eff_src = "// impl\nauto w = store->effective();\n";
  EXPECT_TRUE(lint("src/nn/weight_store.cpp", eff_src).empty());
  EXPECT_FALSE(lint("src/nn/dense.cpp", eff_src).empty());
  EXPECT_FALSE(lint("src/core/engine.cpp", eff_src).empty());
  EXPECT_TRUE(lint("src/rcs/crossbar_store.cpp", eff_src).empty());
  EXPECT_TRUE(lint("tests/x.cpp", eff_src).empty());
}

TEST(RefitLint, FileWideSuppression) {
  const std::string src =
      "// refit-check: allow-file(randomness)\n"
      "int a = rand();\nint b = rand();\n";
  EXPECT_TRUE(check_case({{"tests/x.cpp", src}}).empty());
}

TEST(RefitLint, SuppressionOnPreviousLineCoversOneLineOnly) {
  const std::string src =
      "// header\n"
      "// refit-check: allow(randomness)\n"
      "int a = rand();\n"
      "int b = rand();\n";
  const auto findings = check_case({{"tests/x.cpp", src}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_EQ(findings[0].rule, "randomness");
}

TEST(RefitLint, FindingsCarryFileRuleAndMessage) {
  const auto findings =
      check_case({{"tests/x.cpp", "// header\nint a = rand();\n"}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "tests/x.cpp");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[0].rule, "randomness");
  EXPECT_NE(findings[0].message.find("refit::Rng"), std::string::npos);
}

// ---------------------------------------------------------------------------
// audit
// ---------------------------------------------------------------------------

TEST(RefitAudit, TestdataDirHasCases) {
  EXPECT_GE(cases("audit").size(), 4u)
      << "testdata/audit/ should hold a bad and a clean case per rule";
}

TEST(RefitAudit, CasesProduceExactlyTheAnnotatedFindings) {
  expect_fixtures_match("audit");
}

TEST(RefitAudit, EveryRuleIsCoveredByACase) { expect_rules_covered("audit"); }

// ---------------------------------------------------------------------------
// flow
// ---------------------------------------------------------------------------

TEST(RefitFlow, TestdataDirHasFixtures) {
  EXPECT_GE(cases("flow").size(), 8u)
      << "testdata/flow/ should hold a bad and a clean fixture per rule";
  std::size_t cfg_cases = 0;
  for (const auto& e : fs::directory_iterator(testdata("cfg")))
    cfg_cases += e.path().extension() == ".cpp";
  EXPECT_GE(cfg_cases, 5u) << "testdata/cfg/ should pin the CFG edge cases";
}

TEST(RefitFlow, FixturesProduceExactlyTheAnnotatedFindings) {
  expect_fixtures_match("flow");
}

TEST(RefitFlow, EveryRuleIsCoveredByAFixture) { expect_rules_covered("flow"); }

TEST(RefitFlow, CfgGoldensMatch) {
  std::vector<fs::path> sources;
  for (const auto& e : fs::directory_iterator(testdata("cfg")))
    if (e.path().extension() == ".cpp") sources.push_back(e.path());
  std::sort(sources.begin(), sources.end());
  for (const fs::path& p : sources) {
    SCOPED_TRACE(p.filename().string());
    fs::path golden = p;
    golden.replace_extension(".golden");
    ASSERT_TRUE(fs::exists(golden))
        << "missing golden for " << p.filename()
        << " (regenerate with refit_check --dump-cfg)";
    const refit::cfg::FileCfg cfg = refit::cfg::build_file_cfg(
        p.filename().generic_string(), read_file(p));
    std::ostringstream dump;
    refit::cfg::dump_cfg(dump, cfg);
    EXPECT_EQ(dump.str(), read_file(golden))
        << "CFG drift — if intentional, refresh the golden with "
           "`refit_check --dump-cfg "
        << p.filename().string() << "`";
  }
}

TEST(RefitFlow, SuppressionCoversOwnAndNextLineOnly) {
  const std::string src =
      "// header\n"
      "void f(Det& d, Xb& xb) {\n"
      "  // refit-check: allow(unchecked-must-use)\n"
      "  auto first = d.detect(xb);\n"
      "  auto second = d.detect(xb);\n"
      "}\n";
  const auto findings = check_source("flow", "tests/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_EQ(findings[0].rule, "unchecked-must-use");
}

TEST(RefitFlow, PathExemptionsApply) {
  // The store owns its dirty flags; the pool owns its loop internals.
  const std::string mut =
      "// impl\nvoid touch(Store& s) { s.tile(0, 0).write(1, 2.0); }\n";
  EXPECT_TRUE(check_source("flow", "src/rcs/crossbar_store.cpp", mut).empty());
  EXPECT_FALSE(check_source("flow", "src/rcs/rcs_system.cpp", mut).empty());
}

TEST(RefitFlow, LambdaParallelCalleeIsRecorded) {
  const std::string src =
      "void run(Pool& pool, std::vector<float>& out) {\n"
      "  pool.parallel_for(out.size(), [&](std::size_t b, std::size_t e) {\n"
      "    for (std::size_t i = b; i < e; ++i) out[i] = 0.0f;\n"
      "  });\n"
      "  auto plain = [&]() { return out.size(); };\n"
      "  (void)plain;\n"
      "}\n";
  const refit::cfg::FileCfg cfg =
      refit::cfg::build_file_cfg("tests/x.cpp", src);
  ASSERT_EQ(cfg.functions.size(), 3u);
  int parallel = 0, plain = 0;
  for (const auto& fn : cfg.functions) {
    if (!fn.is_lambda) continue;
    if (fn.parallel_callee == "parallel_for") ++parallel;
    if (fn.parallel_callee.empty()) ++plain;
  }
  EXPECT_EQ(parallel, 1);
  EXPECT_EQ(plain, 1);
}

// ---------------------------------------------------------------------------
// det
// ---------------------------------------------------------------------------

TEST(RefitDet, TestdataDirHasFixtures) {
  EXPECT_GE(cases("det").size(), 10u)
      << "testdata/det/ should hold a bad and a clean fixture per rule";
}

TEST(RefitDet, FixturesProduceExactlyTheAnnotatedFindings) {
  expect_fixtures_match("det");
}

TEST(RefitDet, EveryRuleIsCoveredByAFixture) { expect_rules_covered("det"); }

TEST(RefitDet, CallGraphConstruction) {
  const std::string src =
      "// impl\n"
      "int c() { return 3; }\n"
      "int b() { return c() + c(); }\n"
      "int a() { return b(); }\n"
      "int d() { return qsort(nullptr, 0, 0, nullptr); }\n";
  std::vector<refit::cfg::FileCfg> files;
  files.push_back(refit::cfg::build_file_cfg("src/x.cpp", src));
  const refit::det::CallGraph cg =
      refit::det::build_call_graph(pointers(files));
  ASSERT_TRUE(cg.callees.count("a"));
  EXPECT_EQ(cg.callees.at("a"), (std::set<std::string>{"b"}));
  EXPECT_EQ(cg.callees.at("b"), (std::set<std::string>{"c"}));
  EXPECT_TRUE(cg.callees.at("c").empty());
  // Externals (qsort) are not edges: only functions defined in the set.
  EXPECT_TRUE(cg.callees.at("d").empty());
}

TEST(RefitDet, SummaryPropagationTwoHops) {
  const std::string src =
      "// impl\n"
      "unsigned leaf() {\n"
      "  std::random_device rd;\n"
      "  return rd();\n"
      "}\n"
      "unsigned mid() { return leaf(); }\n"
      "unsigned relay(unsigned x, unsigned y) { return y; }\n";
  std::vector<refit::cfg::FileCfg> files;
  files.push_back(refit::cfg::build_file_cfg("src/x.cpp", src));
  const auto sums = refit::det::compute_summaries(pointers(files));
  ASSERT_TRUE(sums.count("leaf"));
  EXPECT_TRUE(sums.at("leaf").ret_taint & refit::det::kNondetSeed)
      << "the entropy source must taint leaf's return value";
  ASSERT_TRUE(sums.count("mid"));
  EXPECT_TRUE(sums.at("mid").ret_taint & refit::det::kNondetSeed)
      << "leaf's return taint must propagate through mid's summary";
  ASSERT_TRUE(sums.count("relay"));
  EXPECT_EQ(sums.at("relay").param_to_ret, 2u)
      << "only parameter 1 flows to relay's return";
  EXPECT_EQ(sums.at("relay").ret_taint, 0u);
}

TEST(RefitDet, RecursionTerminates) {
  const std::string src =
      "// impl\n"
      "unsigned spin(unsigned x) {\n"
      "  if (x == 0) {\n"
      "    std::random_device rd;\n"
      "    return rd();\n"
      "  }\n"
      "  return spin(x - 1);\n"
      "}\n"
      "void use(std::ostream& os) { os << spin(3); }\n";
  const auto findings = check_source("det", "src/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "nondet-seed-provenance");
  EXPECT_EQ(findings[0].line, 9);
}

TEST(RefitDet, ExplainChainCoversSourceToSink) {
  const auto findings =
      check_source("det", "nondet_seed_bad.cpp",
                   read_file(testdata("det/nondet_seed_bad.cpp")));
  ASSERT_EQ(findings.size(), 1u);
  const Finding& f = findings[0];
  EXPECT_EQ(f.rule, "nondet-seed-provenance");
  ASSERT_GE(f.chain.size(), 4u) << "source, two call hops, and the sink";
  EXPECT_NE(f.chain.front().find("source:"), std::string::npos);
  const auto mentions = [&](const std::string& needle) {
    for (const auto& step : f.chain)
      if (step.find(needle) != std::string::npos) return true;
    return false;
  };
  EXPECT_TRUE(mentions("device_entropy")) << "the returning callee hop";
  EXPECT_TRUE(mentions("mix_bits")) << "the pass-through hop";
  EXPECT_NE(f.chain.back().find("seeds RNG stream"), std::string::npos);
}

TEST(RefitDet, SuppressionCoversOwnAndNextLineOnly) {
  const std::string src =
      "// header\n"
      "void f(std::ostream& os) {\n"
      "  unsigned a = std::thread::hardware_concurrency();\n"
      "  unsigned b = std::thread::hardware_concurrency();\n"
      "  // refit-check: allow(threadcount-value-dependence)\n"
      "  os << a;\n"
      "  os << b;\n"
      "}\n";
  const auto findings = check_source("det", "src/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 7);
  EXPECT_EQ(findings[0].rule, "threadcount-value-dependence");
}

TEST(RefitDet, PathExemptionsApply) {
  // The clock seam owns the wall-clock read by design; anywhere else the
  // same code is a finding.
  const std::string src =
      "// impl\n"
      "void tick(std::ostream& os) {\n"
      "  auto t = std::chrono::steady_clock::now();\n"
      "  os << t.time_since_epoch().count();\n"
      "}\n";
  EXPECT_TRUE(check_source("det", "src/obs/clock.cpp", src).empty());
  EXPECT_FALSE(check_source("det", "src/obs/timer.cpp", src).empty());
}
