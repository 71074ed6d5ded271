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
// the determinism scope of src/, bench/ and examples/) seeing what they
// see on the tree.
//
// On top of the harness, the families' path exemptions and suppression
// semantics are probed directly, and the CFG dump is pinned by golden
// files under testdata/cfg/ (regenerate with `build/tools/refit_check
// --dump-cfg <file>` minus the `== ` header).
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

/// The harness: every case of `family` produces exactly its annotations —
/// counting only the rules in `only`, when it is not empty.
void expect_fixtures_match(const std::string& family,
                           const std::set<std::string>& only = {}) {
  const auto kept = [&](const std::string& rule) {
    return only.empty() || only.count(rule) > 0;
  };
  for (const Case& c : cases(family)) {
    SCOPED_TRACE(family + "/" + c.front().first);
    std::set<FileLineRule> want;
    for (const auto& [file, line, rule] : expectations(c))
      if (kept(rule)) want.emplace(file, line, rule);
    std::set<FileLineRule> got;
    for (const Finding& f : check_case(c))
      if (kept(f.rule)) got.emplace(f.file, f.line, f.rule);
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
  EXPECT_EQ(total, 17u) << "lint 12 + audit 2 + flow 3";
}

TEST(RefitCheck, DetScopeLeavesOutTestsAndTools) {
  // The determinism rules cover src/, bench/ and examples/; tests/ and
  // tools/ build nondeterminism on purpose. The same thread-count leak is
  // a finding in the first three only.
  const std::string src =
      "// impl\n"
      "void f(std::ostream& os) {\n"
      "  os << std::thread::hardware_concurrency();\n"
      "}\n";
  for (const char* path : {"src/rcs/crossbar_store.cpp",
                           "bench/bench_backend.cpp",
                           "examples/quickstart.cpp"})
    EXPECT_EQ(check_source("lint", path, src).size(), 1u) << path;
  for (const char* path :
       {"tests/test_backend.cpp", "tools/refit_check/main.cpp"})
    EXPECT_TRUE(check_source("lint", path, src).empty()) << path;
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
  // Tests may read clocks directly.
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
  EXPECT_GE(cases("flow").size(), 6u)
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
  // The pool owns its loop internals; its callers' lambdas are policed.
  const std::string shared =
      "// impl\nvoid run(Pool& pool) {\n  int hits = 0;\n"
      "  pool.parallel_for(4, [&](std::size_t b, std::size_t e) {\n"
      "    ++hits;\n  });\n}\n";
  EXPECT_TRUE(
      check_source("flow", "src/common/thread_pool.cpp", shared).empty());
  EXPECT_FALSE(check_source("flow", "src/rcs/rcs_system.cpp", shared).empty());
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
// det: the lint rules that keep every artifact a function of the seed
// ---------------------------------------------------------------------------

namespace {

/// Entropy seeds, thread-count queries, raw clocks, and hash- or
/// address-ordered containers: each would let an artifact differ between
/// two runs of the same seed.
const std::set<std::string> kDeterminismRules = {
    "randomness", "concurrency", "obs-timing", "container-order"};

bool in_artifact_dir(const std::string& path) {
  return path.starts_with("src/") || path.starts_with("bench/") ||
         path.starts_with("examples/");
}

}  // namespace

TEST(RefitDet, TestdataDirHasFixtures) {
  // A bad fixture per source of nondeterminism (entropy seed, thread
  // count, wall clock, hash order, pointer order) in the directories it
  // probes, and a clean counterpart for each owner and for tests/.
  std::set<std::string> bad_files;
  for (const Case& c : cases("lint"))
    for (const auto& [file, line, rule] : expectations(c))
      if (kDeterminismRules.count(rule) && in_artifact_dir(file))
        bad_files.insert(file);
  EXPECT_GE(bad_files.size(), 5u)
      << "testdata/lint/{bench,src}/ should hold a determinism fixture per "
         "source of nondeterminism";
  for (const char* clean :
       {"bench/bench_util.cpp", "src/core/clean_container_order.cpp",
        "src/obs/clean_timing.cpp", "tests/clean_nondeterminism.cpp"})
    EXPECT_TRUE(fs::is_regular_file(testdata("lint") / clean)) << clean;
}

TEST(RefitDet, FixturesProduceExactlyTheAnnotatedFindings) {
  expect_fixtures_match("lint", kDeterminismRules);
}

TEST(RefitDet, EveryRuleIsCoveredByAFixture) {
  // Each determinism rule is a registered lint rule, and a fixture in the
  // artifact-writing scope exercises it there.
  std::set<std::string> registered;
  for (const auto& r : family("lint").rules) registered.insert(r.name);
  std::set<std::string> exercised;
  for (const Case& c : cases("lint"))
    for (const auto& [file, line, rule] : expectations(c))
      if (in_artifact_dir(file)) exercised.insert(rule);
  for (const std::string& rule : kDeterminismRules) {
    EXPECT_TRUE(registered.count(rule)) << "no lint rule named " << rule;
    EXPECT_TRUE(exercised.count(rule))
        << "rule '" << rule << "' has no fixture under testdata/lint/ in "
        << "src/, bench/ or examples/";
  }
}

TEST(RefitDet, SuppressionCoversOwnAndNextLineOnly) {
  const std::string src =
      "// header\n"
      "void f(std::ostream& os) {\n"
      "  // refit-check: allow(concurrency)\n"
      "  unsigned a = std::thread::hardware_concurrency();\n"
      "  unsigned b = std::thread::hardware_concurrency();\n"
      "  unsigned c = std::thread::hardware_concurrency();  "
      "// refit-check: allow(concurrency)\n"
      "  os << a << b << c;\n"
      "}\n";
  const auto findings = check_source("lint", "src/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_EQ(findings[0].rule, "concurrency");
}

TEST(RefitDet, PathExemptionsApply) {
  const auto rules_at = [](const std::string& path, const std::string& src) {
    std::vector<std::string> out;
    for (const Finding& f : check_source("lint", path, src))
      out.push_back(f.rule);
    return out;
  };
  using Rules = std::vector<std::string>;

  // The clock seam owns the wall-clock read by design; benches and
  // examples write artifacts too, so they go through the seam like src/.
  const std::string clock_src =
      "// impl\n"
      "void tick(std::ostream& os) {\n"
      "  auto t = std::chrono::steady_clock::now();\n"
      "  os << t.time_since_epoch().count();\n"
      "}\n";
  EXPECT_TRUE(rules_at("src/obs/clock.cpp", clock_src).empty());
  for (const char* path : {"src/core/x.cpp", "bench/x.cpp", "examples/x.cpp"})
    EXPECT_EQ(rules_at(path, clock_src), Rules{"obs-timing"}) << path;

  // The pool sizes itself and bench_util records the host as provenance;
  // no other bench may ask for the thread count.
  const std::string hw_src =
      "// impl\nunsigned n = std::thread::hardware_concurrency();\n";
  EXPECT_TRUE(rules_at("src/common/thread_pool.cpp", hw_src).empty());
  EXPECT_TRUE(rules_at("bench/bench_util.cpp", hw_src).empty());
  EXPECT_EQ(rules_at("bench/bench_backend.cpp", hw_src), Rules{"concurrency"});
  EXPECT_EQ(rules_at("bench/soft_faults.cpp", hw_src), Rules{"concurrency"});

  // Hash- and pointer-ordered containers are findings wherever artifacts
  // are written.
  const std::string order_src =
      "// impl\n"
      "std::unordered_map<int, double> counts;\n"
      "std::map<const Tile*, int> hits;\n";
  for (const char* path : {"src/core/x.cpp", "bench/x.cpp", "examples/x.cpp"})
    EXPECT_EQ(rules_at(path, order_src),
              (Rules{"container-order", "container-order"}))
        << path;

  // tests/ builds all three on purpose and writes no artifact.
  for (const std::string* src : {&clock_src, &hw_src, &order_src})
    EXPECT_TRUE(rules_at("tests/x.cpp", *src).empty());
}
