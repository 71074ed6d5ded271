// The lint family (see check.hpp): per-file token rules over the lexed
// source. Each pattern-matches the token stream against a project
// invariant that reviewers used to police by hand; path-based exemptions
// let the module that owns a primitive use it.
#include <map>
#include <set>

#include "check.hpp"
#include "common/lexer.hpp"

namespace refit::check {
namespace {

using lint::match_paren;
using lint::PpLine;
using lint::Token;
using lint::TokKind;

// ---------------------------------------------------------------------------
// Rule helpers
// ---------------------------------------------------------------------------

bool path_contains(const std::string& path, const std::string& needle) {
  return path.find(needle) != std::string::npos;
}

const std::set<std::string> kConcurrencyNames = {
    "thread",        "jthread",
    "async",         "mutex",
    "timed_mutex",   "recursive_mutex",
    "recursive_timed_mutex",
    "shared_mutex",  "shared_timed_mutex",
    "condition_variable", "condition_variable_any",
};

const std::set<std::string> kStdEngineNames = {
    "mt19937",     "mt19937_64", "random_device", "default_random_engine",
    "minstd_rand", "minstd_rand0", "ranlux24", "ranlux48", "knuth_b",
};

const std::set<std::string> kCRandNames = {"rand", "srand", "drand48",
                                           "lrand48", "mrand48", "random"};

// Conductance-mutating Crossbar members: callable only from the modules
// that own device physics (src/device, src/rram) and from the store that
// mediates them (rcs/crossbar_store). Everything else must go through the
// CellEncoding/DeviceNoiseModel seam so encodings stay swappable.
const std::set<std::string> kConductanceMutators = {
    "force_fault", "force_soft_fault", "strong_write",
    "drift_toward", "decay_soft_faults",
};

const std::set<std::string> kAssignOps = {"=",  "+=", "-=",  "*=",  "/=",
                                          "%=", "&=", "|=",  "^=",  "<<=",
                                          ">>=", "++", "--"};

/// Module layering: directory under src/ → modules it may include. A
/// module may always include itself; anything absent from its set is an
/// inverted (or skipped-layer) dependency. Mirrors the link graph in the
/// per-module CMakeLists and the diagram in docs/architecture.md.
const std::map<std::string, std::set<std::string>>& layer_deps() {
  static const std::map<std::string, std::set<std::string>> kDeps = {
      {"obs", {}},
      {"common", {"obs"}},
      {"tensor", {"common", "obs"}},
      {"nn", {"common", "tensor", "obs"}},
      {"rram", {"common", "obs"}},
      {"device", {"common", "rram", "obs"}},
      {"data", {"common", "tensor", "obs"}},
      {"rcs", {"common", "tensor", "nn", "rram", "device", "obs"}},
      {"detect",
       {"common", "tensor", "nn", "rram", "device", "rcs", "obs"}},
      {"core",
       {"common", "tensor", "nn", "rram", "device", "rcs", "data", "detect",
        "obs"}},
  };
  return kDeps;
}

/// The module a source file belongs to: the path component after the last
/// `src/` segment, when it names a known module ("" otherwise — files
/// outside src/, e.g. tests and benches, may include anything).
std::string module_of_path(const std::string& path) {
  const std::size_t p = path.rfind("src/");
  if (p == std::string::npos) return "";
  if (p > 0 && path[p - 1] != '/') return "";
  const std::size_t b = p + 4;
  const std::size_t e = path.find('/', b);
  if (e == std::string::npos) return "";
  const std::string mod = path.substr(b, e - b);
  return layer_deps().count(mod) ? mod : "";
}

void lint_file(const cfg::FileCfg& file, std::vector<Finding>& findings) {
  const std::string& path = file.path;
  const lint::LexResult& lx = file.lex;
  const std::vector<Token>& t = lx.tokens;

  const bool is_header = path.ends_with(".hpp") || path.ends_with(".h") ||
                         path.ends_with(".hh");
  const std::string mod = module_of_path(path);
  // common/log serializes output with a mutex; the obs layer owns the
  // atomics/mutexes behind the metrics registry and the tracer.
  const bool owns_threads = path_contains(path, "common/thread_pool") ||
                            path_contains(path, "common/log") ||
                            path_contains(path, "src/obs/");
  const bool owns_rng = path_contains(path, "common/rng");
  // src/device and src/rram own the conductance-mutation primitives; the
  // crossbar store mediates them for everyone else. Files outside src/
  // (tests, benches, tools) may drive them directly.
  const bool owns_device = mod.empty() || mod == "device" || mod == "rram" ||
                           path_contains(path, "rcs/crossbar_store");
  // nn/weight_store hosts the interface and the software backend, whose
  // effective() is its own floats.
  const bool inference_side =
      (mod == "nn" || mod == "core") && !path_contains(path, "nn/weight_store");
  // src/obs prints the flight-recorder tail itself and common/log owns the
  // serialized sink; every other src/ module goes through events/REFIT_LOG.
  const bool owns_streams =
      mod.empty() || mod == "obs" || path_contains(path, "common/log");
  // src/obs is the only module allowed to read a raw std::chrono clock —
  // everything else must go through the Clock seam (obs/clock.hpp) so
  // golden traces stay deterministic under ManualClock.
  const bool owns_clocks = mod.empty() || mod == "obs";

  auto report = [&](const std::string& rule, int line,
                    const std::string& message) {
    findings.push_back({path, line, rule, message, {}});
  };

  // --- file-header: the first thing in the file is a `//` comment -----------
  {
    const bool ok = !lx.comments.empty() && lx.comments[0].line == 1 &&
                    lx.comments[0].text.compare(0, 2, "//") == 0 &&
                    (t.empty() || t[0].line > 1) &&
                    (lx.pp_lines.empty() || lx.pp_lines[0].line > 1);
    if (!ok)
      report("file-header", 1,
             "file must start with a `//` comment describing its purpose");
  }

  // --- pragma-once ----------------------------------------------------------
  if (is_header) {
    int pragma_line = -1;
    int first_other_pp = -1;
    for (const PpLine& pp : lx.pp_lines) {
      const bool is_pragma_once =
          pp.text.compare(0, 6, "pragma") == 0 &&
          pp.text.find("once") != std::string::npos;
      if (is_pragma_once && pragma_line < 0)
        pragma_line = pp.line;
      else if (!is_pragma_once && first_other_pp < 0)
        first_other_pp = pp.line;
    }
    const int first_code = t.empty() ? -1 : t.front().line;
    if (pragma_line < 0) {
      report("pragma-once", 1, "header is missing `#pragma once`");
    } else {
      if (first_other_pp >= 0 && first_other_pp < pragma_line)
        report("pragma-once", pragma_line,
               "`#pragma once` must precede all other preprocessor lines");
      if (first_code >= 0 && first_code < pragma_line)
        report("pragma-once", pragma_line,
               "`#pragma once` must precede all code");
    }
  }

  // --- layering -------------------------------------------------------------
  {
    if (!mod.empty()) {
      const std::set<std::string>& allowed = layer_deps().at(mod);
      for (const PpLine& pp : lx.pp_lines) {
        if (pp.text.compare(0, 7, "include") != 0) continue;
        const std::size_t q1 = pp.text.find('"');
        if (q1 == std::string::npos) continue;  // <system> includes
        const std::size_t q2 = pp.text.find('"', q1 + 1);
        if (q2 == std::string::npos) continue;
        const std::string inc = pp.text.substr(q1 + 1, q2 - q1 - 1);
        const std::size_t slash = inc.find('/');
        if (slash == std::string::npos) continue;  // same-directory include
        const std::string dep = inc.substr(0, slash);
        if (!layer_deps().count(dep)) continue;  // not a module include
        if (dep == mod || allowed.count(dep)) continue;
        std::string deps_str;
        for (const std::string& d : allowed)
          deps_str += (deps_str.empty() ? "" : ", ") + d;
        report("layering", pp.line,
               "\"" + inc + "\" included from src/" + mod +
                   " inverts the module layering — " + mod +
                   " may depend only on {" +
                   (deps_str.empty() ? "nothing" : deps_str) + "}");
      }
    }
  }

  // --- token-stream rules ---------------------------------------------------
  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind != TokKind::kIdent) continue;

    // std:: qualified names.
    if (tok.text == "std" && i + 2 < t.size() && t[i + 1].text == "::" &&
        t[i + 2].kind == TokKind::kIdent) {
      const std::string& name = t[i + 2].text;
      if (!owns_threads && kConcurrencyNames.count(name)) {
        // std::thread::hardware_concurrency is a pure query, not a
        // concurrency primitive — the bench harness records it.
        const bool is_hw_query =
            name == "thread" && i + 4 < t.size() && t[i + 3].text == "::" &&
            t[i + 4].text == "hardware_concurrency";
        if (!is_hw_query)
          report("concurrency", tok.line,
                 "std::" + name +
                     " outside common/thread_pool — route concurrency "
                     "through refit::ThreadPool");
      }
      if (!owns_rng && (kStdEngineNames.count(name) || name == "rand" ||
                        name == "srand")) {
        report("randomness", tok.line,
               "std::" + name +
                   " outside common/rng — draw from refit::Rng so runs "
                   "are reproducible from one seed");
      }
      // Library modules must not write status to the process streams:
      // the event log feeds run reports and the flight recorder, and
      // REFIT_LOG serializes through common/log. (Tests, benches, tools
      // and examples — mod empty — print freely.)
      if (!owns_streams && (name == "cout" || name == "cerr")) {
        report("obs-event", tok.line,
               "std::" + name +
                   " in src/" + mod +
                   " — emit status through the structured event log "
                   "(obs/events.hpp) or REFIT_LOG instead of the process "
                   "streams so run reports and the flight recorder see it");
      }
    }

    // Bare C rand()/srand()/drand48() calls. Excludes member access
    // (`h.rand()`), qualified names other than std:: (handled above), and
    // declarations (`int rand()` — previous token is a type name, i.e. an
    // identifier that is not a statement keyword).
    static const std::set<std::string> kCallPrefixKeywords = {
        "return", "throw", "case", "do", "else",
        "co_return", "co_await", "co_yield"};
    const bool looks_like_call =
        i == 0 || t[i - 1].kind != TokKind::kIdent ||
        kCallPrefixKeywords.count(t[i - 1].text) > 0;
    if (!owns_rng && kCRandNames.count(tok.text) && i + 1 < t.size() &&
        t[i + 1].text == "(" && looks_like_call &&
        (i == 0 || (t[i - 1].text != "." && t[i - 1].text != "::" &&
                    t[i - 1].text != "->"))) {
      report("randomness", tok.line,
             tok.text + "() outside common/rng — draw from refit::Rng so "
                        "runs are reproducible from one seed");
    }

    // Direct conductance mutation outside the device-physics owners.
    if (!owns_device && kConductanceMutators.count(tok.text) && i > 0 &&
        (t[i - 1].text == "." || t[i - 1].text == "->") && i + 1 < t.size() &&
        t[i + 1].text == "(") {
      report("device-encoding", tok.line,
             tok.text +
                 "() mutates raw conductance outside src/device — thread "
                 "the change through CellEncoding / DeviceNoiseModel (or "
                 "the store's pulse_physical) so encodings stay swappable");
    }

    // store.effective() / store->effective() on inference-side modules.
    // Matching only member-access call sites keeps override declarations
    // (`const Tensor& effective() override`) in new backends legal.
    if (inference_side && tok.text == "effective" && i > 0 &&
        (t[i - 1].text == "." || t[i - 1].text == "->") && i + 1 < t.size() &&
        t[i + 1].text == "(") {
      report("inference-effective", tok.line,
             "effective() materializes the full weight matrix — on "
             "inference paths call store->forward_matmul(x) so crossbar "
             "backends keep the fused per-tile kernel (backward passes "
             "read target(), not effective())");
    }

    // Raw std::chrono clocks in src/ outside obs. Matching the bare
    // identifier also catches `using std::chrono::steady_clock` and
    // namespace-alias spellings.
    if (!owns_clocks && (tok.text == "steady_clock" ||
                         tok.text == "high_resolution_clock")) {
      report("obs-timing", tok.line,
             "std::chrono::" + tok.text +
                 " outside src/obs — take timestamps through "
                 "refit::obs::now_ns() or obs::Stopwatch so ManualClock "
                 "test runs stay deterministic");
    }

    // using namespace in headers.
    if (is_header && tok.text == "using" && i + 1 < t.size() &&
        t[i + 1].text == "namespace") {
      report("using-namespace-header", tok.line,
             "`using namespace` in a header leaks into every includer");
    }

    // Side effects inside REFIT_DCHECK (compiled away under NDEBUG).
    if ((tok.text == "REFIT_DCHECK" || tok.text == "REFIT_DCHECK_MSG") &&
        i + 1 < t.size() && t[i + 1].text == "(") {
      const std::size_t close = match_paren(t, i + 1);
      if (close != std::string::npos) {
        for (std::size_t j = i + 2; j < close; ++j) {
          if (t[j].kind == TokKind::kPunct && kAssignOps.count(t[j].text)) {
            report("dcheck-side-effect", t[j].line,
                   "`" + t[j].text + "` inside " + tok.text +
                       " — the argument is not evaluated under NDEBUG, so "
                       "side effects vanish in release builds");
            break;  // one finding per macro invocation is enough
          }
        }
        i = close;  // do not re-flag nested tokens
      }
    }
  }
}

}  // namespace

Family lint_family() {
  return {"lint",
          {
              {"concurrency",
               "std::thread/std::async/std::mutex and friends outside "
               "common/thread_pool (std::thread::hardware_concurrency is "
               "allowed)"},
              {"randomness",
               "rand()/std::random_device/std::mt19937 and other ad-hoc "
               "generators outside common/rng"},
              {"using-namespace-header", "`using namespace` in a header"},
              {"dcheck-side-effect",
               "++/--/assignment inside REFIT_DCHECK / REFIT_DCHECK_MSG, "
               "which compile away under NDEBUG"},
              {"pragma-once",
               "header missing `#pragma once`, or `#pragma once` not before "
               "all other code/preprocessor lines"},
              {"file-header",
               "file does not start with a `//` purpose-comment header"},
              {"layering",
               "an #include pointing against the module dependency order "
               "(e.g. src/detect including core/, src/rcs including "
               "detect/)"},
              {"obs-timing",
               "std::chrono::steady_clock / high_resolution_clock in src/ "
               "outside src/obs — take timestamps through "
               "refit::obs::now_ns() or obs::Stopwatch so the Clock seam "
               "stays the single time source"},
              {"device-encoding",
               "direct conductance-mutator call (force_fault / "
               "force_soft_fault / strong_write / drift_toward / "
               "decay_soft_faults) outside src/device, src/rram, and "
               "rcs/crossbar_store — go through the CellEncoding / "
               "DeviceNoiseModel seam"},
              {"obs-event",
               "std::cout/std::cerr in src/ outside src/obs and common/log "
               "— emit fault/remap/checkpoint status through the structured "
               "event log (obs/events.hpp) or REFIT_LOG so run reports and "
               "the flight recorder see it"},
              {"inference-effective",
               "store.effective() / store->effective() on an inference path "
               "(src/nn, src/core) outside nn/weight_store — call "
               "WeightStore::forward_matmul so crossbar backends keep the "
               "fused kernel instead of materializing the effective matrix"},
          },
          [](const Program& program, std::vector<Finding>& out) {
            for (const cfg::FileCfg& file : program) lint_file(file, out);
          }};
}

}  // namespace refit::check
