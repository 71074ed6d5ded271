// Unit tests for the shared CFG builder (common/cfg.hpp), exercised
// directly rather than through refit-check's golden dumps: block/edge
// structure for the loop and switch shapes, lambda extraction and
// parallel-callee association, and the statement token ranges the
// downstream analyses walk. refit_check/testdata/cfg/ goldens pin the
// exact dump format; these tests pin the graph semantics.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/cfg.hpp"
#include "gtest/gtest.h"

namespace {

using refit::cfg::build_file_cfg;
using refit::cfg::FileCfg;
using refit::cfg::FunctionCfg;

const FunctionCfg* find_fn(const FileCfg& file, const std::string& name) {
  for (const FunctionCfg& fn : file.functions)
    if (fn.name == name) return &fn;
  return nullptr;
}

/// All blocks reachable from the entry.
std::set<int> reachable(const FunctionCfg& fn) {
  std::set<int> seen;
  std::vector<int> work = {fn.entry};
  while (!work.empty()) {
    const int b = work.back();
    work.pop_back();
    if (!seen.insert(b).second) continue;
    for (const int s : fn.blocks[b].succs) work.push_back(s);
  }
  return seen;
}

bool has_edge(const FunctionCfg& fn, int from, int to) {
  const auto& s = fn.blocks[from].succs;
  return std::find(s.begin(), s.end(), to) != s.end();
}

}  // namespace

TEST(ToolsCfg, StraightLineBodyIsEntryToExit) {
  const FileCfg file = build_file_cfg("t.cpp",
                                      "int f(int a) {\n"
                                      "  int b = a + 1;\n"
                                      "  return b;\n"
                                      "}\n");
  ASSERT_EQ(file.functions.size(), 1u);
  const FunctionCfg& fn = file.functions[0];
  EXPECT_EQ(fn.name, "f");
  ASSERT_EQ(fn.params.size(), 1u);
  EXPECT_EQ(fn.params[0], "a");
  // Entry holds both statements and the return edges to the exit.
  EXPECT_EQ(fn.blocks[fn.entry].stmts.size(), 2u);
  EXPECT_TRUE(has_edge(fn, fn.entry, fn.exit_id));
  EXPECT_TRUE(reachable(fn).count(fn.exit_id));
}

TEST(ToolsCfg, IfElseMakesADiamond) {
  const FileCfg file = build_file_cfg("t.cpp",
                                      "void f(bool c) {\n"
                                      "  if (c) { g(); } else { h(); }\n"
                                      "  tail();\n"
                                      "}\n");
  const FunctionCfg& fn = file.functions[0];
  // Entry (condition) has two successors: then and else arms.
  EXPECT_EQ(fn.blocks[fn.entry].succs.size(), 2u);
  // Both arms rejoin: some block with the tail() statement is reachable
  // from both successors of the entry.
  const int then_b = fn.blocks[fn.entry].succs[0];
  const int else_b = fn.blocks[fn.entry].succs[1];
  auto closure = [&fn](int from) {
    std::set<int> out;
    std::vector<int> work = {from};
    while (!work.empty()) {
      const int x = work.back();
      work.pop_back();
      if (!out.insert(x).second) continue;
      for (const int s : fn.blocks[x].succs) work.push_back(s);
    }
    return out;
  };
  const std::set<int> from_then = closure(then_b);
  const std::set<int> from_else = closure(else_b);
  std::set<int> join;
  std::set_intersection(from_then.begin(), from_then.end(), from_else.begin(),
                        from_else.end(), std::inserter(join, join.begin()));
  EXPECT_FALSE(join.empty()) << "then/else arms never rejoin";
}

TEST(ToolsCfg, WhileLoopHasBackEdgeAndExitEdge) {
  const FileCfg file = build_file_cfg("t.cpp",
                                      "void f(int n) {\n"
                                      "  while (n > 0) { --n; }\n"
                                      "}\n");
  const FunctionCfg& fn = file.functions[0];
  // Find the loop head: a block with the condition statement and two
  // successors (body + after).
  int head = -1;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b)
    if (fn.blocks[b].succs.size() == 2 && !fn.blocks[b].stmts.empty())
      head = static_cast<int>(b);
  ASSERT_GE(head, 0);
  const int body = fn.blocks[head].succs[0];
  EXPECT_TRUE(has_edge(fn, body, head)) << "loop body must edge back to head";
  EXPECT_TRUE(reachable(fn).count(fn.exit_id));
}

TEST(ToolsCfg, ForLoopBreakEdgesToAfterContinueToIncrement) {
  const FileCfg file =
      build_file_cfg("t.cpp",
                     "void f() {\n"
                     "  for (int i = 0; i < 4; ++i) {\n"
                     "    if (i == 1) continue;\n"
                     "    if (i == 2) break;\n"
                     "    work(i);\n"
                     "  }\n"
                     "  done();\n"
                     "}\n");
  const FunctionCfg& fn = file.functions[0];
  // The increment block holds `++i` and edges to the condition head.
  int inc = -1, head = -1;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    for (const auto& st : fn.blocks[b].stmts) {
      const auto& tok = file.lex.tokens[st.first];
      if (tok.text == "++") inc = static_cast<int>(b);
    }
  }
  ASSERT_GE(inc, 0);
  ASSERT_EQ(fn.blocks[inc].succs.size(), 1u);
  head = fn.blocks[inc].succs[0];
  // `continue` lands in the increment block; `break` skips past the head.
  bool continue_edge = false, break_bypasses_head = false;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    for (const auto& st : fn.blocks[b].stmts) {
      const auto& tok = file.lex.tokens[st.first];
      if (tok.text == "continue") continue_edge = has_edge(fn, b, inc);
      if (tok.text == "break")
        break_bypasses_head =
            !fn.blocks[b].succs.empty() && !has_edge(fn, b, head);
    }
  }
  EXPECT_TRUE(continue_edge);
  EXPECT_TRUE(break_bypasses_head);
}

TEST(ToolsCfg, SwitchEdgesHeadToEveryLabelWithFallthrough) {
  const FileCfg file = build_file_cfg("t.cpp",
                                      "void f(int k) {\n"
                                      "  switch (k) {\n"
                                      "    case 0: a(); break;\n"
                                      "    case 1: b();\n"  // falls through
                                      "    default: c();\n"
                                      "  }\n"
                                      "}\n");
  const FunctionCfg& fn = file.functions[0];
  // The switch head (entry, holding the `k` condition) must have >= 3
  // successors: one per label (no implicit exit edge — default exists).
  EXPECT_GE(fn.blocks[fn.entry].succs.size(), 3u);
  // Fallthrough: the case-1 block (holding b()) edges into the default
  // block (holding c()).
  int b_block = -1, c_block = -1;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b)
    for (const auto& st : fn.blocks[b].stmts) {
      const auto& tok = file.lex.tokens[st.first];
      if (tok.text == "b") b_block = static_cast<int>(b);
      if (tok.text == "c") c_block = static_cast<int>(b);
    }
  ASSERT_GE(b_block, 0);
  ASSERT_GE(c_block, 0);
  EXPECT_TRUE(has_edge(fn, b_block, c_block));
}

TEST(ToolsCfg, LambdaBecomesNestedFunctionWithEnclosingLink) {
  const FileCfg file =
      build_file_cfg("t.cpp",
                     "void outer() {\n"
                     "  auto add = [](int a, int b) { return a + b; };\n"
                     "  (void)add;\n"
                     "}\n");
  ASSERT_EQ(file.functions.size(), 2u);
  const FunctionCfg* outer = find_fn(file, "outer");
  const FunctionCfg* lambda = find_fn(file, "<lambda>");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(lambda, nullptr);
  EXPECT_TRUE(lambda->is_lambda);
  ASSERT_EQ(lambda->params.size(), 2u);
  EXPECT_EQ(lambda->params[0], "a");
  // enclosing points at the lexically containing function.
  const auto outer_idx = static_cast<int>(outer - file.functions.data());
  EXPECT_EQ(lambda->enclosing, outer_idx);
  // The lambda body tokens are nested inside outer's body range.
  EXPECT_GT(lambda->body_begin, outer->body_begin);
  EXPECT_LE(lambda->body_end, outer->body_end);
  EXPECT_TRUE(refit::cfg::in_nested_body(file, outer_idx, lambda->body_begin));
}

TEST(ToolsCfg, ParallelCalleeRecordedForPoolEntryPoints) {
  const FileCfg file = build_file_cfg(
      "t.cpp",
      "void run(Pool& pool, Grid& grid, std::vector<float>& out) {\n"
      "  pool.parallel_for(8, [&](std::size_t b, std::size_t e) {\n"
      "    out[b] = 1.0f;\n"
      "  });\n"
      "  grid.for_each_tile([&](Tile& t) { t.touch(); });\n"
      "  auto plain = [&]() { return out.size(); };\n"
      "  (void)plain;\n"
      "}\n");
  std::vector<std::string> callees;
  for (const FunctionCfg& fn : file.functions)
    if (fn.is_lambda) callees.push_back(fn.parallel_callee);
  ASSERT_EQ(callees.size(), 3u);
  EXPECT_EQ(std::count(callees.begin(), callees.end(), "parallel_for"), 1);
  EXPECT_EQ(std::count(callees.begin(), callees.end(), "for_each_tile"), 1);
  EXPECT_EQ(std::count(callees.begin(), callees.end(), ""), 1);
}

TEST(ToolsCfg, StatementTokenRangesRoundTrip) {
  const FileCfg file = build_file_cfg("t.cpp",
                                      "int g(int x) {\n"
                                      "  int y = x * 2;\n"
                                      "  return y;\n"
                                      "}\n");
  const FunctionCfg& fn = file.functions[0];
  // Reassembling the first statement's tokens gives the declaration back.
  const auto& st = fn.blocks[fn.entry].stmts[0];
  std::string text;
  for (std::size_t i = st.first; i < st.last; ++i)
    text += file.lex.tokens[i].text + " ";
  EXPECT_EQ(text, "int y = x * 2 ; ");
  EXPECT_EQ(st.line, 2);
}
