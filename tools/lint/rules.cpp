// The six dcache invariant rules plus the suppression audit. Each rule is
// a pure function of the LintInput snapshot; see INVARIANTS.md for the
// contract each one enforces and the approved ways to suppress it.
#include "lint.hpp"

#include <algorithm>
#include <array>
#include <string_view>

#include "index.hpp"

namespace dcache::lint {

namespace {

using Tokens = std::vector<Token>;

[[nodiscard]] bool isId(const Token& t, std::string_view s) {
  return t.kind == TokenKind::kIdentifier && t.text == s;
}
[[nodiscard]] bool isPunct(const Token& t, std::string_view s) {
  return t.kind == TokenKind::kPunct && t.text == s;
}

/// Index of the ')' matching the '(' at `open`, or tokens.size().
[[nodiscard]] std::size_t matchParen(const Tokens& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (isPunct(toks[i], "(")) ++depth;
    else if (isPunct(toks[i], ")") && --depth == 0) return i;
  }
  return toks.size();
}

/// Skip a balanced template argument list: `openAngle` indexes '<'; returns
/// the index *after* the matching '>'. '>' tokens are single chars, so
/// nested ">>" closes two levels naturally.
[[nodiscard]] std::size_t skipAngles(const Tokens& toks,
                                     std::size_t openAngle) {
  int depth = 0;
  for (std::size_t i = openAngle; i < toks.size(); ++i) {
    if (isPunct(toks[i], "<")) ++depth;
    else if (isPunct(toks[i], ">") && --depth == 0) return i + 1;
    else if (isPunct(toks[i], ";")) break;  // malformed; bail out
  }
  return toks.size();
}

void add(std::vector<Finding>& out, std::string rule,
         const std::string& file, int line, std::string message) {
  out.push_back({std::move(rule), file, line, std::move(message)});
}

[[nodiscard]] bool fileIs(const SourceFile& f,
                          std::initializer_list<std::string_view> paths) {
  for (const std::string_view p : paths) {
    if (f.relPath == p) return true;
  }
  return false;
}

[[nodiscard]] const SourceFile* findFile(const LintInput& in,
                                         std::string_view relPath) {
  for (const SourceFile& f : in.files) {
    if (f.relPath == relPath) return &f;
  }
  return nullptr;
}

[[nodiscard]] bool hasIdentToken(const SourceFile& f, std::string_view name) {
  return std::any_of(f.tokens.begin(), f.tokens.end(),
                     [&](const Token& t) { return isId(t, name); });
}

[[nodiscard]] bool hasStringContaining(const SourceFile& f,
                                       std::string_view needle) {
  return std::any_of(f.tokens.begin(), f.tokens.end(), [&](const Token& t) {
    return t.kind == TokenKind::kString &&
           t.text.find(needle) != std::string::npos;
  });
}

[[nodiscard]] std::string snakeCase(std::string_view camel) {
  std::string out;
  for (const char c : camel) {
    if (std::isupper(static_cast<unsigned char>(c))) {
      out.push_back('_');
      out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

const std::vector<std::string>& knownRules() {
  static const std::vector<std::string> kRules = {
      "determinism",    "unordered-iter", "charge-funnel",
      "counter-registration", "bench-hygiene", "hot-path-alloc",
      "units",          "race-capture",   "charge-path",
      "guard-pairing",  "suppression"};
  return kRules;
}

// ---------------------------------------------------------------------------
// Rule: determinism
// ---------------------------------------------------------------------------
// Experiments must be bit-for-bit reproducible for any --jobs N, so no
// source of entropy other than the experiment seed may exist. Wall clocks,
// std::random_device, C rand(), and thread ids are banned; std RNG engines
// are banned outside src/util/rng.* (the repo's seeded Pcg32/SplitMix64
// are the only approved generators).

void ruleDeterminism(const LintInput& in, std::vector<Finding>& out) {
  static constexpr std::array<std::string_view, 3> kClocks = {
      "steady_clock", "system_clock", "high_resolution_clock"};
  static constexpr std::array<std::string_view, 3> kClockCalls = {
      "clock_gettime", "gettimeofday", "timespec_get"};
  static constexpr std::array<std::string_view, 10> kEngines = {
      "mt19937",        "mt19937_64",    "minstd_rand",
      "minstd_rand0",   "ranlux24",      "ranlux24_base",
      "ranlux48",       "ranlux48_base", "knuth_b",
      "default_random_engine"};

  for (const SourceFile& f : in.files) {
    if (fileIs(f, {"src/util/rng.hpp", "src/util/rng.cpp"})) continue;
    const Tokens& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokenKind::kIdentifier) continue;
      const std::string& s = t[i].text;
      const Token* prev = i > 0 ? &t[i - 1] : nullptr;
      const Token* next = i + 1 < t.size() ? &t[i + 1] : nullptr;
      const bool memberAccess =
          prev && (isPunct(*prev, ".") || isPunct(*prev, "->"));

      if (s == "random_device") {
        add(out, "determinism", f.relPath, t[i].line,
            "std::random_device is nondeterministic; expand the experiment "
            "seed with util::SplitMix64 instead");
        continue;
      }
      if (std::find(kClocks.begin(), kClocks.end(), s) != kClocks.end()) {
        add(out, "determinism", f.relPath, t[i].line,
            "wall-clock (" + s + ") breaks --jobs determinism; use the "
            "simulated clock (Deployment::simTimeMicros)");
        continue;
      }
      if (std::find(kClockCalls.begin(), kClockCalls.end(), s) !=
          kClockCalls.end()) {
        add(out, "determinism", f.relPath, t[i].line,
            "wall-clock call " + s + "() breaks --jobs determinism; use the "
            "simulated clock");
        continue;
      }
      if (std::find(kEngines.begin(), kEngines.end(), s) != kEngines.end()) {
        add(out, "determinism", f.relPath, t[i].line,
            "std RNG engine std::" + s + " outside src/util/rng.hpp; use "
            "util::Pcg32 seeded from the experiment seed");
        continue;
      }
      if ((s == "rand" || s == "srand") && next && isPunct(*next, "(") &&
          !memberAccess) {
        add(out, "determinism", f.relPath, t[i].line,
            s + "() draws from C global RNG state; use util::Pcg32 seeded "
            "from the experiment seed");
        continue;
      }
      if (s == "time" && next && isPunct(*next, "(") && !memberAccess) {
        // Only the wall-clock forms: time(nullptr) / time(NULL) / time(0)
        // and std::time(...).
        const bool stdQualified =
            i >= 2 && isPunct(t[i - 1], "::") && isId(t[i - 2], "std");
        const bool nullArg =
            i + 3 < t.size() &&
            (isId(t[i + 2], "nullptr") || isId(t[i + 2], "NULL") ||
             (t[i + 2].kind == TokenKind::kNumber && t[i + 2].text == "0")) &&
            isPunct(t[i + 3], ")");
        if (stdQualified || nullArg) {
          add(out, "determinism", f.relPath, t[i].line,
              "time() reads the wall clock; experiments must derive all "
              "timestamps from the simulated clock");
        }
        continue;
      }
      if (s == "get_id" && next && isPunct(*next, "(")) {
        add(out, "determinism", f.relPath, t[i].line,
            "thread ids vary run to run; results must not depend on which "
            "worker computed them");
        continue;
      }
      if (s == "thread" && next && isPunct(*next, "::") && i + 2 < t.size() &&
          isId(t[i + 2], "id")) {
        add(out, "determinism", f.relPath, t[i].line,
            "std::thread::id in data paths breaks determinism; key results "
            "by cell index, not by worker");
        continue;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unordered-iter
// ---------------------------------------------------------------------------
// Iterating a std::unordered_{map,set} visits elements in hash order —
// stable for one libstdc++ but unspecified, so any iteration that feeds
// output, accounting, or eviction order is a latent golden-diff break.
// Declarations are collected across the whole tree (members declared in a
// header, iterated in the .cpp), then every range-for and .begin() loop
// over a collected name is flagged. Alias resolution rides the declaration
// index: `using`/`typedef` chains of any depth, across files.

void ruleUnorderedIter(const LintInput& in, const Index& index,
                       std::vector<Finding>& out) {
  static constexpr std::array<std::string_view, 4> kContainers = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  const auto isContainer = [&](const Token& t) {
    return t.kind == TokenKind::kIdentifier &&
           std::find(kContainers.begin(), kContainers.end(), t.text) !=
               kContainers.end();
  };

  // Pass A: names declared with an unordered type, plus alias names whose
  // using/typedef chain bottoms out in an unordered container (resolved
  // transitively through the index, so `using A = B; using B = Map;`
  // and typedef spellings are all caught, wherever the links live).
  std::set<std::string> unorderedNames;
  std::set<std::string> unorderedAliases;
  for (const AliasDecl& alias : index.aliases) {
    const bool direct =
        alias.targetTokens.find("unordered_") != std::string::npos;
    const bool chained =
        index.resolveAliasChain(alias.name).find("unordered_") !=
        std::string::npos;
    if (direct || chained) unorderedAliases.insert(alias.name);
  }
  for (const SourceFile& f : in.files) {
    const Tokens& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!isContainer(t[i]) || i + 1 >= t.size() || !isPunct(t[i + 1], "<")) {
        continue;
      }
      std::size_t j = skipAngles(t, i + 1);
      // Skip declarator decorations to reach the declared name.
      while (j < t.size() && (isPunct(t[j], "&") || isPunct(t[j], "*") ||
                              isId(t[j], "const"))) {
        ++j;
      }
      if (j < t.size() && t[j].kind == TokenKind::kIdentifier) {
        unorderedNames.insert(t[j].text);
      }
    }
  }
  // Alias-typed declarations: `Alias name`.
  for (const SourceFile& f : in.files) {
    const Tokens& t = f.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind == TokenKind::kIdentifier &&
          unorderedAliases.count(t[i].text) &&
          t[i + 1].kind == TokenKind::kIdentifier) {
        unorderedNames.insert(t[i + 1].text);
      }
    }
  }

  // Pass B: flag iteration.
  for (const SourceFile& f : in.files) {
    const Tokens& t = f.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (!isId(t[i], "for") || !isPunct(t[i + 1], "(")) continue;
      const std::size_t close = matchParen(t, i + 1);
      if (close >= t.size()) continue;

      // Range-for: a ':' at top nesting depth inside the header.
      std::size_t colon = t.size();
      int depth = 0;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (isPunct(t[j], "(") || isPunct(t[j], "[") || isPunct(t[j], "{")) {
          ++depth;
        } else if (isPunct(t[j], ")") || isPunct(t[j], "]") ||
                   isPunct(t[j], "}")) {
          --depth;
        } else if (depth == 0 && isPunct(t[j], ":")) {
          colon = j;
          break;
        } else if (depth == 0 && isPunct(t[j], ";")) {
          break;  // classic for loop
        }
      }
      if (colon < t.size()) {
        // Terminal identifier of the range expression, unless it is a call
        // or subscript result (those return fresh/ordered values).
        const Token& last = t[close - 1];
        if (last.kind == TokenKind::kIdentifier &&
            unorderedNames.count(last.text)) {
          add(out, "unordered-iter", f.relPath, t[i].line,
              "range-for over unordered container '" + last.text +
                  "' leaks hash order; emit in sorted order or annotate "
                  "why the aggregation is commutative");
        }
        continue;
      }
      // Iterator sweep: `for (auto it = X.begin(); ...`.
      for (std::size_t j = i + 2; j + 4 < close; ++j) {
        if (t[j].kind == TokenKind::kIdentifier &&
            unorderedNames.count(t[j].text) &&
            (isPunct(t[j + 1], ".") || isPunct(t[j + 1], "->")) &&
            (isId(t[j + 2], "begin") || isId(t[j + 2], "cbegin")) &&
            isPunct(t[j + 3], "(") && isPunct(t[j + 4], ")")) {
          add(out, "unordered-iter", f.relPath, t[i].line,
              "iterator sweep over unordered container '" + t[j].text +
                  "' visits elements in hash order; sort the keys or "
                  "annotate why the sweep is commutative");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: charge-funnel
// ---------------------------------------------------------------------------
// Every CPU microsecond must flow through sim::Node::charge — the one
// point where the queue model, the trace sink and the meters all observe
// it. Charging a CpuMeter directly, or poking a span's cpuMicros field,
// silently bypasses part of that pipeline and breaks the CPU-conservation
// property tests.

void ruleChargeFunnel(const LintInput& in, std::vector<Finding>& out) {
  for (const SourceFile& f : in.files) {
    // The funnel itself, the meter implementation, and the trace sink's
    // span aggregation (fed *by* the funnel) are the short whitelist.
    if (fileIs(f, {"src/sim/node.hpp", "src/sim/resource.hpp",
                   "src/sim/resource.cpp", "src/obs/trace.cpp"})) {
      continue;
    }
    const Tokens& t = f.tokens;

    // Names declared as CpuMeter in this file (locals, members, params).
    std::set<std::string> meterNames;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (!isId(t[i], "CpuMeter")) continue;
      std::size_t j = i + 1;
      while (j < t.size() && (isPunct(t[j], "&") || isPunct(t[j], "*") ||
                              isId(t[j], "const"))) {
        ++j;
      }
      if (j < t.size() && t[j].kind == TokenKind::kIdentifier) {
        meterNames.insert(t[j].text);
      }
    }

    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokenKind::kIdentifier) continue;
      const std::string& s = t[i].text;

      // `<meter>.charge(` where <meter> is `cpu_`, `cpu()` or a declared
      // CpuMeter variable.
      if (isId(t[i], "charge") && i + 1 < t.size() && isPunct(t[i + 1], "(") &&
          i >= 2 && (isPunct(t[i - 1], ".") || isPunct(t[i - 1], "->"))) {
        const Token& recv = t[i - 2];
        const bool viaCpuCall = isPunct(recv, ")") && i >= 4 &&
                                isPunct(t[i - 3], "(") && isId(t[i - 4], "cpu");
        const bool viaMeter =
            recv.kind == TokenKind::kIdentifier &&
            (recv.text == "cpu_" || meterNames.count(recv.text));
        if (viaCpuCall || viaMeter) {
          add(out, "charge-funnel", f.relPath, t[i].line,
              "CPU charged directly on a meter, bypassing sim::Node::charge "
              "— the queue model, trace sink and conservation tests will "
              "not see this cost");
        }
        continue;
      }

      // Direct mutation of a span/aggregate `cpuMicros` field.
      if (s == "cpuMicros" && i + 1 < t.size()) {
        const Token& next = t[i + 1];
        const bool compound = isPunct(next, "+=") || isPunct(next, "-=");
        const bool memberAssign =
            isPunct(next, "=") && i >= 1 &&
            (isPunct(t[i - 1], ".") || isPunct(t[i - 1], "->"));
        if (compound || memberAssign) {
          add(out, "charge-funnel", f.relPath, t[i].line,
              "direct mutation of a cpuMicros field outside the trace sink; "
              "all CPU accounting must flow through sim::Node::charge");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: counter-registration
// ---------------------------------------------------------------------------
// A ServeCounters field that is not exported and not conserved is a counter
// that can silently rot. Every field declared in core/deployment.hpp must
// (a) be read by core/report.cpp's metrics adapter, (b) have its
// snake_case metric key registered there, and (c) appear in a conservation
// test (tests/test_chaos_fuzz.cpp or tests/test_obs_conservation.cpp).

void ruleCounterRegistration(const LintInput& in, const Index& index,
                             std::vector<Finding>& out) {
  // Data members come from the declaration index: every FieldDecl whose
  // class is ServeCounters and whose file is the canonical declaration
  // header. (The index already skips statics, usings and member functions,
  // and survives inline method bodies between fields.)
  const SourceFile* decl = findFile(in, "src/core/deployment.hpp");
  if (decl == nullptr) return;  // layout changed; nothing to check against

  struct Field {
    std::string name;
    int line;
  };
  std::vector<Field> fields;
  for (const FieldDecl& field : index.fields) {
    if (field.className != "ServeCounters") continue;
    if (in.files[field.fileIndex].relPath != "src/core/deployment.hpp") {
      continue;
    }
    fields.push_back({field.name, field.line});
  }

  const SourceFile* report = findFile(in, "src/core/report.cpp");
  const SourceFile* chaos = findFile(in, "tests/test_chaos_fuzz.cpp");
  const SourceFile* conservation =
      findFile(in, "tests/test_obs_conservation.cpp");

  for (const Field& field : fields) {
    std::vector<std::string> missing;
    if (report == nullptr || !hasIdentToken(*report, field.name)) {
      missing.push_back("read by the metrics adapter in src/core/report.cpp");
    }
    if (report == nullptr ||
        !hasStringContaining(*report, snakeCase(field.name))) {
      missing.push_back("registered under metric key \"" +
                        snakeCase(field.name) + "\" in src/core/report.cpp");
    }
    const bool conserved =
        (chaos != nullptr && hasIdentToken(*chaos, field.name)) ||
        (conservation != nullptr && hasIdentToken(*conservation, field.name));
    if (!conserved) {
      missing.push_back(
          "asserted by a conservation test (tests/test_chaos_fuzz.cpp or "
          "tests/test_obs_conservation.cpp)");
    }
    if (missing.empty()) continue;
    std::string msg = "ServeCounters::" + field.name + " is not ";
    for (std::size_t k = 0; k < missing.size(); ++k) {
      if (k) msg += "; not ";
      msg += missing[k];
    }
    add(out, "counter-registration", decl->relPath, field.line,
        std::move(msg));
  }
}

// ---------------------------------------------------------------------------
// Rule: bench-hygiene
// ---------------------------------------------------------------------------
// Every bench target must be held by both determinism gates: the --jobs
// byte-diff in tools/check.sh and a golden file in tests/golden/. A bench
// that is inherently nondeterministic (wall-clock microbenchmarks) carries
// a file-wide allow instead.

void ruleBenchHygiene(const LintInput& in, std::vector<Finding>& out) {
  if (!in.hasCheckSh) return;  // fixture roots without CI are not checked
  for (const std::string& src : in.benchSources) {
    // "bench/NAME.cpp" -> NAME
    const std::size_t slash = src.rfind('/');
    std::string name = src.substr(slash + 1);
    name = name.substr(0, name.size() - 4);
    if (name == "bench_common") continue;

    const bool inCheckSh = in.checkShText.find(name) != std::string::npos;
    bool hasGolden = false;
    for (const std::string& g : in.goldenFiles) {
      if (g.rfind(name, 0) == 0) {
        hasGolden = true;
        break;
      }
    }
    if (inCheckSh && hasGolden) continue;
    std::string msg = "bench target '" + name + "' is not ";
    if (!inCheckSh) {
      msg += "registered in tools/check.sh's determinism diff";
      if (!hasGolden) msg += " and not ";
    }
    if (!hasGolden) {
      msg += "covered by a golden in tests/golden/";
    }
    msg += "; register it or add a file-wide allow with the reason it "
           "cannot be deterministic";
    add(out, "bench-hygiene", src, 1, std::move(msg));
  }
}

// ---------------------------------------------------------------------------
// Rule: hot-path-alloc
// ---------------------------------------------------------------------------
// The flat serve path — the node slab, the key arena, the open-addressing
// table and the SLRU segments built on them — is allocation-free per
// operation by design; that property is where the cold-fill speedups come
// from and it regresses silently (a stray per-entry resize() costs 2x and
// no test fails). In the serve-path files every allocation-shaped token
// (operator new, make_unique/make_shared, malloc-family calls, and
// container growth like .push_back/.resize) must carry an allow stating
// its amortization argument.

void ruleHotPathAlloc(const LintInput& in, std::vector<Finding>& out) {
  static constexpr std::array<std::string_view, 5> kAllocCalls = {
      "make_unique", "make_shared", "malloc", "calloc", "realloc"};
  static constexpr std::array<std::string_view, 6> kGrowthCalls = {
      "push_back", "emplace_back", "resize", "reserve", "assign", "insert"};

  for (const SourceFile& f : in.files) {
    // The serve-path whitelist: the slab/arena storage, the flat cache, the
    // SLRU wrapper whose segments are flat caches, the flat KV engine,
    // the storage block cache, the secondary-index entry orders, the lazy
    // bulk-load range and the Database facade that materializes its keys
    // on the KV path. The node-based LFU and S3-FIFO and the test-only
    // oracles in tests/reference/ allocate per entry by design and are
    // deliberately out of scope.
    if (!fileIs(f, {"src/cache/slab.hpp", "src/cache/flat_cache.hpp",
                    "src/cache/flat_cache.cpp", "src/cache/slru.cpp",
                    "src/storage/kv_engine.hpp",
                    "src/storage/kv_engine.cpp",
                    "src/storage/block_cache.hpp",
                    "src/storage/block_cache.cpp",
                    "src/storage/index_order.hpp",
                    "src/storage/index_order.cpp",
                    "src/storage/kv_range.hpp",
                    "src/storage/kv_range.cpp",
                    "src/storage/database.cpp"})) {
      continue;
    }
    const Tokens& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokenKind::kIdentifier) continue;
      const std::string& s = t[i].text;
      const Token* prev = i > 0 ? &t[i - 1] : nullptr;
      const Token* next = i + 1 < t.size() ? &t[i + 1] : nullptr;

      if (s == "new" && (!prev || !isPunct(*prev, "::"))) {
        add(out, "hot-path-alloc", f.relPath, t[i].line,
            "operator new in a serve-path file; nodes and keys must come "
            "from the slab/arena (src/cache/slab.hpp)");
        continue;
      }
      if (std::find(kAllocCalls.begin(), kAllocCalls.end(), s) !=
              kAllocCalls.end() &&
          next && (isPunct(*next, "(") || isPunct(*next, "<"))) {
        add(out, "hot-path-alloc", f.relPath, t[i].line,
            "heap allocation (" + s + ") in a serve-path file; allocate in "
            "amortized chunks and annotate the amortization argument");
        continue;
      }
      if (std::find(kGrowthCalls.begin(), kGrowthCalls.end(), s) !=
              kGrowthCalls.end() &&
          next && isPunct(*next, "(") && prev &&
          (isPunct(*prev, ".") || isPunct(*prev, "->"))) {
        add(out, "hot-path-alloc", f.relPath, t[i].line,
            "container growth (." + s + ") in a serve-path file can "
            "reallocate per entry; grow in amortized strides and annotate "
            "the amortization argument");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driver: rules -> suppression filtering -> suppression audit -> sort
// ---------------------------------------------------------------------------

std::vector<Finding> runLint(LintInput& input) {
  const Index index = buildIndex(input);

  std::vector<Finding> raw;
  ruleDeterminism(input, raw);
  ruleUnorderedIter(input, index, raw);
  ruleChargeFunnel(input, raw);
  ruleCounterRegistration(input, index, raw);
  ruleBenchHygiene(input, raw);
  ruleHotPathAlloc(input, raw);
  runFlowRules(input, index, raw);

  std::vector<Finding> kept;
  for (Finding& finding : raw) {
    bool suppressed = false;
    for (SourceFile& f : input.files) {
      if (f.relPath != finding.file) continue;
      for (Suppression& s : f.suppressions) {
        if (s.rule != finding.rule || s.reason.empty()) continue;
        if (s.fileWide || s.line == finding.line ||
            s.line + 1 == finding.line) {
          s.used = true;
          suppressed = true;
          break;
        }
      }
      break;
    }
    if (!suppressed) kept.push_back(std::move(finding));
  }

  // Audit the suppressions themselves: they must name a real rule, carry a
  // reason, and actually suppress something. (Audit findings are not
  // suppressible — that way lies turtles.)
  const std::vector<std::string>& rules = knownRules();
  for (const SourceFile& f : input.files) {
    for (const Suppression& s : f.suppressions) {
      if (s.rule.empty()) {
        add(kept, "suppression", f.relPath, s.line,
            "malformed dcache-lint directive; use "
            "`dcache-lint: allow(rule-id, reason)`");
        continue;
      }
      if (std::find(rules.begin(), rules.end(), s.rule) == rules.end()) {
        add(kept, "suppression", f.relPath, s.line,
            "unknown rule '" + s.rule + "' (see dcache_lint --list-rules)");
        continue;
      }
      if (s.reason.empty()) {
        add(kept, "suppression", f.relPath, s.line,
            "suppression of '" + s.rule +
                "' is missing its mandatory reason: "
                "allow(" + s.rule + ", <why this site is safe>)");
        continue;
      }
      if (!s.used) {
        add(kept, "suppression", f.relPath, s.line,
            "stale suppression: no '" + s.rule +
                "' finding at this site — delete the allow");
      }
    }
  }

  std::sort(kept.begin(), kept.end(), findingLess);
  return kept;
}

}  // namespace dcache::lint
