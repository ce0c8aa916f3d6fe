// The four symbol/flow-aware rules built on the declaration index and the
// by-name call graph (index.hpp): `units` (suffix-driven dimensional
// analysis), `race-capture` (by-reference captures into worker cells),
// `charge-path` (latency/wire-byte writers must reach the charge funnel),
// and `guard-pairing` (RAII discards + open/close protocol halves). All
// four are lexical over-approximations; the documented false-positive
// escape is a reasoned `// dcache-lint: allow(rule, reason)`.
#include <algorithm>
#include <array>
#include <string_view>

#include "index.hpp"
#include "lint.hpp"

namespace dcache::lint {

namespace {

using Tokens = std::vector<Token>;

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

[[nodiscard]] bool isId(const Token& t, std::string_view s) {
  return t.kind == TokenKind::kIdentifier && t.text == s;
}
[[nodiscard]] bool isPunct(const Token& t, std::string_view s) {
  return t.kind == TokenKind::kPunct && t.text == s;
}

void add(std::vector<Finding>& out, std::string rule,
         const std::string& file, int line, std::string message) {
  out.push_back({std::move(rule), file, line, std::move(message)});
}

/// Forward paren/brace/bracket matcher (duplicated from index.cpp's
/// internal one on purpose: both are implementation details and sharing
/// would couple the files for ~30 lines).
struct Matcher {
  std::vector<std::size_t> match;
  explicit Matcher(const Tokens& toks) : match(toks.size(), kNpos) {
    std::vector<std::size_t> parens, braces, brackets;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kPunct) continue;
      const std::string& s = toks[i].text;
      if (s == "(") parens.push_back(i);
      else if (s == "[") brackets.push_back(i);
      else if (s == "{") braces.push_back(i);
      else if (s == ")" && !parens.empty()) {
        match[i] = parens.back();
        match[parens.back()] = i;
        parens.pop_back();
      } else if (s == "]" && !brackets.empty()) {
        match[i] = brackets.back();
        match[brackets.back()] = i;
        brackets.pop_back();
      } else if (s == "}" && !braces.empty()) {
        match[i] = braces.back();
        match[braces.back()] = i;
        braces.pop_back();
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Rule: units
// ---------------------------------------------------------------------------
// Suffix-driven dimensional analysis: identifiers ending in Micros / Millis
// / Seconds / Bytes / Dollars / *PerSec carry a dimension, and adding,
// subtracting, comparing or assigning across dimensions without a named
// conversion is how a micros value ends up on a millis axis (or a byte
// count in a latency column). Multiplication and division are exempt —
// they *are* the conversions (`millis * 1000`, `bytes / windowSeconds`).

struct Primary {
  std::string name;  // terminal identifier ("" = not a simple primary)
  std::size_t begin = 0;
  std::size_t end = 0;  // one past the primary
};

/// The simple primary ending at token `j` (identifier, member chain,
/// zero-/n-arg call result, or subscript), walking qualifier chains left.
[[nodiscard]] Primary primaryEndingAt(const Tokens& toks, const Matcher& m,
                                      std::size_t j) {
  Primary p;
  std::size_t nameIdx = kNpos;
  if (toks[j].kind == TokenKind::kIdentifier) {
    nameIdx = j;
    p.end = j + 1;
  } else if (isPunct(toks[j], ")") || isPunct(toks[j], "]")) {
    const std::size_t open = m.match[j];
    if (open == kNpos || open == 0) return p;
    if (toks[open - 1].kind != TokenKind::kIdentifier) return p;
    nameIdx = open - 1;
    p.end = j + 1;
  } else {
    return p;
  }
  std::size_t begin = nameIdx;
  while (begin >= 2 &&
         (isPunct(toks[begin - 1], ".") || isPunct(toks[begin - 1], "->") ||
          isPunct(toks[begin - 1], "::")) &&
         toks[begin - 2].kind == TokenKind::kIdentifier) {
    begin -= 2;
  }
  p.name = toks[nameIdx].text;
  p.begin = begin;
  return p;
}

/// The simple primary starting at token `k` (after an operator).
[[nodiscard]] Primary primaryStartingAt(const Tokens& toks, const Matcher& m,
                                        std::size_t k) {
  Primary p;
  if (k >= toks.size() || toks[k].kind != TokenKind::kIdentifier) return p;
  p.begin = k;
  std::string name = toks[k].text;
  std::size_t i = k + 1;
  while (i + 1 < toks.size() &&
         (isPunct(toks[i], ".") || isPunct(toks[i], "->") ||
          isPunct(toks[i], "::")) &&
         toks[i + 1].kind == TokenKind::kIdentifier) {
    name = toks[i + 1].text;
    i += 2;
  }
  if (i < toks.size() && (isPunct(toks[i], "(") || isPunct(toks[i], "["))) {
    const std::size_t close = m.match[i];
    if (close == kNpos) return p;
    i = close + 1;
  }
  p.name = std::move(name);
  p.end = i;
  return p;
}

[[nodiscard]] bool isScaleContext(const Tokens& toks, std::size_t idx) {
  return idx < toks.size() &&
         (isPunct(toks[idx], "*") || isPunct(toks[idx], "/"));
}

/// Top-level argument slices of the call parenthesis at `open`; angle
/// depth is tracked so `foo<a, b>(x)`-style template commas don't split.
void argSlices(const Tokens& toks, const Matcher& m, std::size_t open,
               std::vector<std::pair<std::size_t, std::size_t>>& out) {
  const std::size_t close = m.match[open];
  if (close == kNpos || close == open + 1) return;
  std::size_t sliceStart = open + 1;
  int angle = 0;
  for (std::size_t i = open + 1; i <= close; ++i) {
    if (i < close) {
      if (isPunct(toks[i], "(") || isPunct(toks[i], "[") ||
          isPunct(toks[i], "{")) {
        const std::size_t jump = m.match[i];
        if (jump != kNpos && jump < close) i = jump;
        continue;
      }
      if (isPunct(toks[i], "<")) ++angle;
      else if (isPunct(toks[i], ">") && angle > 0) --angle;
      if (!isPunct(toks[i], ",") || angle > 0) continue;
    }
    out.emplace_back(sliceStart, i);
    sliceStart = i + 1;
  }
}

void ruleUnits(const LintInput& in, const Index& index,
               std::vector<Finding>& out) {
  static constexpr std::array<std::string_view, 11> kOps = {
      "+", "-", "<", ">", "<=", ">=", "==", "!=", "=", "+=", "-="};

  for (const SourceFile& f : in.files) {
    const Tokens& t = f.tokens;
    const Matcher m(t);

    for (std::size_t i = 1; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokenKind::kPunct) continue;
      if (std::find(kOps.begin(), kOps.end(), t[i].text) == kOps.end()) {
        continue;
      }
      const Primary lhs = primaryEndingAt(t, m, i - 1);
      if (lhs.name.empty()) continue;
      const Primary rhs = primaryStartingAt(t, m, i + 1);
      if (rhs.name.empty()) continue;
      // Multiplicative neighbors mean a conversion is in progress.
      if (lhs.begin > 0 && isScaleContext(t, lhs.begin - 1)) continue;
      if (isScaleContext(t, rhs.end)) continue;
      const std::string dimL = dimensionOf(lhs.name);
      const std::string dimR = dimensionOf(rhs.name);
      if (dimL.empty() || dimR.empty() || dimL == dimR) continue;
      add(out, "units", f.relPath, t[i].line,
          "dimensional mix: '" + lhs.name + "' (" + dimL + ") " + t[i].text +
              " '" + rhs.name + "' (" + dimR +
              ") without a named conversion; convert explicitly or fix the "
              "unit suffix");
    }

    // Argument passing: a dimension-suffixed value handed to a parameter
    // declared with a different dimension suffix.
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokenKind::kIdentifier || !isPunct(t[i + 1], "(")) {
        continue;
      }
      const auto decls = index.functionsByName.find(t[i].text);
      if (decls == index.functionsByName.end()) continue;
      std::vector<std::pair<std::size_t, std::size_t>> slices;
      argSlices(t, m, i + 1, slices);
      for (std::size_t pos = 0; pos < slices.size(); ++pos) {
        // Every indexed overload with this arity must agree on the
        // parameter's dimension, else the call is ambiguous and skipped.
        std::string paramDim;
        bool consistent = true, any = false;
        for (const std::size_t fnIdx : decls->second) {
          const FunctionDecl& fn = index.functions[fnIdx];
          if (fn.paramNames.size() != slices.size()) continue;
          const std::string d = dimensionOf(fn.paramNames[pos]);
          if (!any) {
            paramDim = d;
            any = true;
          } else if (d != paramDim) {
            consistent = false;
          }
        }
        if (!any || !consistent || paramDim.empty()) continue;
        // The argument must be one simple primary spanning its slice.
        const auto [aBegin, aEnd] = slices[pos];
        if (aBegin >= aEnd) continue;
        const Primary arg = primaryStartingAt(t, m, aBegin);
        if (arg.name.empty() || arg.end != aEnd) continue;
        const std::string argDim = dimensionOf(arg.name);
        if (argDim.empty() || argDim == paramDim) continue;
        add(out, "units", f.relPath, t[aBegin].line,
            "dimensional mix: '" + arg.name + "' (" + argDim +
                ") passed to parameter '" +
                [&] {
                  for (const std::size_t fnIdx : decls->second) {
                    const FunctionDecl& fn = index.functions[fnIdx];
                    if (fn.paramNames.size() == slices.size()) {
                      return fn.paramNames[pos];
                    }
                  }
                  return std::string();
                }() +
                "' (" + paramDim + ") of " + t[i].text +
                "(); convert explicitly or fix the unit suffix");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: race-capture
// ---------------------------------------------------------------------------
// Lambdas submitted to util::ThreadPool (submit / mapOrdered) run on
// worker threads; mutable shared state captured by reference is a data
// race unless it is atomic, a mutex/cv, declared const, written strictly
// per-cell (every use subscripted), or accessed under a lock the body
// takes. Default [&] captures are flagged unconditionally: the race
// surface must be enumerable to be auditable.

/// Declaration-type text for `name` inside token range [from, to): up to 8
/// tokens preceding the first declaration-shaped occurrence.
[[nodiscard]] std::string declTypeIn(const Tokens& t, std::size_t from,
                                     std::size_t to, const std::string& name) {
  for (std::size_t i = from; i < to && i < t.size(); ++i) {
    if (!isId(t[i], name)) continue;
    if (i + 1 >= t.size()) break;
    const Token& next = t[i + 1];
    const bool declShaped = isPunct(next, "=") || isPunct(next, ";") ||
                            isPunct(next, "{") || isPunct(next, "(") ||
                            isPunct(next, ",") || isPunct(next, ")");
    if (!declShaped || i == 0) continue;
    const Token& prev = t[i - 1];
    const bool typeBefore = prev.kind == TokenKind::kIdentifier ||
                            isPunct(prev, ">") || isPunct(prev, "&") ||
                            isPunct(prev, "*");
    if (!typeBefore) continue;
    std::string type;
    const std::size_t lo = i >= 8 ? i - 8 : 0;
    for (std::size_t k = lo; k < i; ++k) {
      if (!type.empty()) type.push_back(' ');
      type += t[k].text;
    }
    return type;
  }
  return "";
}

[[nodiscard]] bool typeIsSynchronized(const std::string& type) {
  return type.find("atomic") != std::string::npos ||
         type.find("mutex") != std::string::npos ||
         type.find("condition_variable") != std::string::npos;
}
[[nodiscard]] bool typeIsConst(const std::string& type) {
  return type.find("const") != std::string::npos;
}

[[nodiscard]] bool isAssignOp(const Token& t) {
  if (t.kind != TokenKind::kPunct) return false;
  static constexpr std::array<std::string_view, 10> kOps = {
      "=", "+=", "-=", "*=", "/=", "|=", "&=", "^=", "++", "--"};
  return std::find(kOps.begin(), kOps.end(), t.text) != kOps.end();
}

/// The lambda body writes `name` directly: `name = / += / ++`, a member
/// write `name.field =`, or a pre-inc/dec. Subscripted writes
/// (`name[i] = ...`) are the per-cell slot pattern and do not count —
/// task i owning slot i is the sanctioned sharing discipline.
[[nodiscard]] bool bodyWritesName(const Tokens& t, std::size_t from,
                                  std::size_t to, const std::string& name) {
  for (std::size_t i = from; i < to && i < t.size(); ++i) {
    if (!isId(t[i], name)) continue;
    if (i > from && (isPunct(t[i - 1], "++") || isPunct(t[i - 1], "--"))) {
      return true;
    }
    if (i + 1 < t.size() && isAssignOp(t[i + 1])) return true;
    if (i + 3 < t.size() &&
        (isPunct(t[i + 1], ".") || isPunct(t[i + 1], "->")) &&
        t[i + 2].kind == TokenKind::kIdentifier && isAssignOp(t[i + 3])) {
      return true;
    }
  }
  return false;
}

[[nodiscard]] bool bodyTakesLock(const Tokens& t, std::size_t from,
                                 std::size_t to) {
  for (std::size_t i = from; i < to && i < t.size(); ++i) {
    if (isId(t[i], "lock_guard") || isId(t[i], "scoped_lock") ||
        isId(t[i], "unique_lock")) {
      return true;
    }
  }
  return false;
}

void ruleRaceCapture(const LintInput& in, const Index& index,
                     std::vector<Finding>& out) {
  for (std::size_t fi = 0; fi < in.files.size(); ++fi) {
    const SourceFile& f = in.files[fi];
    const Tokens& t = f.tokens;
    const Matcher m(t);

    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokenKind::kIdentifier ||
          (t[i].text != "submit" && t[i].text != "mapOrdered") ||
          !isPunct(t[i + 1], "(")) {
        continue;
      }
      const std::size_t close = m.match[i + 1];
      if (close == kNpos) continue;

      for (const LambdaDecl& lambda : index.lambdas) {
        if (lambda.fileIndex != fi) continue;
        if (lambda.bodyBegin <= i + 1 || lambda.bodyBegin >= close) continue;

        // Enclosing-scope token range for declaration lookups: the
        // function this submission site lives in (falls back to the whole
        // file for namespace-scope submissions).
        std::size_t declFrom = 0, declTo = t.size();
        const std::size_t fnIdx = index.enclosingFunctionAt(fi, i);
        if (fnIdx != kNpos) {
          declFrom = index.functions[fnIdx].bodyBegin;
          declTo = index.functions[fnIdx].bodyEnd;
        }
        const bool locked =
            bodyTakesLock(t, lambda.bodyBegin, lambda.bodyEnd);

        for (const LambdaCapture& cap : lambda.captures) {
          switch (cap.kind) {
            case LambdaCapture::Kind::kRefDefault:
              add(out, "race-capture", f.relPath, lambda.line,
                  "default by-reference capture [&] on a lambda submitted "
                  "to a worker thread; enumerate the captures explicitly "
                  "so the shared state is auditable");
              break;
            case LambdaCapture::Kind::kThis: {
              if (locked) break;
              add(out, "race-capture", f.relPath, lambda.line,
                  "raw `this` captured into a worker-thread lambda; every "
                  "member touched becomes shared state — capture the "
                  "needed members explicitly, or annotate the per-cell "
                  "discipline");
              break;
            }
            case LambdaCapture::Kind::kByRef:
            case LambdaCapture::Kind::kInitRef: {
              if (cap.name.empty()) break;
              // Reads of fork-join inputs are fine; the race surface is a
              // direct write to the captured name from the worker.
              if (!bodyWritesName(t, lambda.bodyBegin, lambda.bodyEnd,
                                  cap.name)) {
                break;
              }
              const std::string type =
                  declTypeIn(t, declFrom, declTo, cap.name);
              if (typeIsSynchronized(type) || typeIsConst(type)) break;
              if (locked) break;  // body takes a lock: declared discipline
              add(out, "race-capture", f.relPath, lambda.line,
                  "'" + cap.name +
                      "' captured by reference and written from a "
                      "worker-thread lambda without atomics, a lock, or "
                      "per-cell subscripting; synchronize it or annotate "
                      "why the sharing is safe");
              break;
            }
            default:
              break;  // by-value copies are private to the worker
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: charge-path
// ---------------------------------------------------------------------------
// Every serve-path function that claims latency or wire bytes (writes a
// latencyMicros / wireBytes result) must reach the billing funnel —
// sim::Node::charge, NetworkModel::transfer, or the rpc::Channel call
// surface (which charges internally) — through the call graph. A tier
// call that computes a latency but never bills the CPU/wire behind it is
// exactly the bug class the one-sided read and handoff paths hand-audited.

[[nodiscard]] bool inChargePathScope(const std::string& relPath) {
  return relPath.rfind("src/cache/", 0) == 0 ||
         relPath.rfind("src/rpc/", 0) == 0 ||
         relPath.rfind("src/storage/", 0) == 0 ||
         relPath.rfind("src/consistency/", 0) == 0 ||
         relPath == "src/core/deployment.cpp" ||
         relPath == "src/core/membership.cpp";
}

void ruleChargePath(const LintInput& in, const Index& index,
                    std::vector<Finding>& out) {
  // The billing primitives plus every public rpc::Channel entry point.
  static const std::set<std::string> kFunnel = {
      "charge",         "transfer",   "onBytesMoved", "call",
      "callWithPolicy", "callHedged", "oneSidedRead", "oneWay"};

  for (const FunctionDecl& fn : index.functions) {
    const SourceFile& f = in.files[fn.fileIndex];
    if (!inChargePathScope(f.relPath)) continue;

    // Does the body write a latency/wire-byte result?
    const Tokens& t = f.tokens;
    int writeLine = 0;
    std::string writeName;
    for (std::size_t i = fn.bodyBegin; i < fn.bodyEnd && i + 1 < t.size();
         ++i) {
      if (t[i].kind != TokenKind::kIdentifier) continue;
      if (t[i].text != "latencyMicros" && t[i].text != "wireBytes") continue;
      if (isPunct(t[i + 1], "=") || isPunct(t[i + 1], "+=")) {
        writeLine = t[i].line;
        writeName = t[i].text;
        break;
      }
    }
    if (writeLine == 0) continue;

    // Direct or transitive reach into the funnel?
    bool reaches = false;
    for (const std::string& callee : fn.callees) {
      if (kFunnel.count(callee)) {
        reaches = true;
        break;
      }
    }
    if (!reaches) reaches = index.reaches(fn.name, kFunnel);
    if (reaches) continue;

    add(out, "charge-path", f.relPath, writeLine,
        "'" + (fn.className.empty() ? fn.name
                                    : fn.className + "::" + fn.name) +
            "' writes " + writeName +
            " but cannot reach the charge funnel (sim::Node::charge, "
            "NetworkModel::transfer or the rpc::Channel call surface) — "
            "this latency/wire cost is never billed");
  }
}

// ---------------------------------------------------------------------------
// Rule: guard-pairing
// ---------------------------------------------------------------------------
// Two shapes. (1) RAII discards: a guard object constructed as a bare
// temporary (`sim::SpanGuard("x", tier);`) is destroyed at the semicolon
// and guards nothing. (2) Protocol halves: an `open` call whose `close`
// must follow on every path — background-QoS windows, trace-sink
// installs, manual span opens, ring drain/rejoin. The close may live in
// the same body, or (RAII / paired-API classes) anywhere in the same
// class; an early `return` between open and close in one body is flagged
// because the straight-line pairing does not cover that path.

struct Protocol {
  std::string_view open;   // identifier called to open
  std::string_view close;  // identifier called to close
  /// Argument that distinguishes open from close when both halves go
  /// through one function name ("" = any argument).
  std::string_view openArg;
  std::string_view closeArg;
};

[[nodiscard]] bool callMatches(const Tokens& t, const Matcher& m,
                               std::size_t i, std::string_view name,
                               std::string_view arg) {
  if (!isId(t[i], name) || i + 1 >= t.size() || !isPunct(t[i + 1], "(")) {
    return false;
  }
  if (arg.empty()) return true;
  const std::size_t close = m.match[i + 1];
  if (close == kNpos) return false;
  // Exact single-token argument match (true / false / nullptr).
  return close == i + 3 && t[i + 2].kind == TokenKind::kIdentifier &&
         t[i + 2].text == arg;
}

/// `setTraceSink(<anything but nullptr/0>)` — the install half.
[[nodiscard]] bool isSinkInstall(const Tokens& t, const Matcher& m,
                                 std::size_t i) {
  if (!isId(t[i], "setTraceSink") || i + 1 >= t.size() ||
      !isPunct(t[i + 1], "(")) {
    return false;
  }
  const std::size_t close = m.match[i + 1];
  if (close == kNpos || close <= i + 2) return false;
  if (close == i + 3 &&
      (isId(t[i + 2], "nullptr") ||
       (t[i + 2].kind == TokenKind::kNumber && t[i + 2].text == "0"))) {
    return false;
  }
  return true;
}
[[nodiscard]] bool isSinkClear(const Tokens& t, const Matcher& m,
                               std::size_t i) {
  if (!isId(t[i], "setTraceSink") || i + 1 >= t.size() ||
      !isPunct(t[i + 1], "(")) {
    return false;
  }
  const std::size_t close = m.match[i + 1];
  return close == i + 3 &&
         (isId(t[i + 2], "nullptr") ||
          (t[i + 2].kind == TokenKind::kNumber && t[i + 2].text == "0"));
}

void ruleGuardPairing(const LintInput& in, const Index& index,
                      std::vector<Finding>& out) {
  static constexpr std::array<std::string_view, 7> kGuardTypes = {
      "SpanGuard",   "lock_guard",          "unique_lock", "scoped_lock",
      "shared_lock", "BackgroundPumpScope", "MutexLock"};
  static constexpr std::array<Protocol, 3> kProtocols = {{
      {"setBackgroundWork", "setBackgroundWork", "true", "false"},
      {"beginSpan", "endSpan", "", ""},
      {"drainMember", "admitMember", "", ""},
  }};
  // A warm ShardedTier drain closes by rejoining (admitMember) OR by
  // retiring the node for good (retireMember / dropShard) once the transfer
  // window ends.
  static constexpr std::array<std::string_view, 2> kDrainAltClosers = {
      "retireMember", "dropShard"};

  // (1) RAII discards. Only statements inside an indexed function body
  // qualify: `Type(args);` at class scope is a constructor declaration,
  // and `class Type { ... };` is the definition itself — neither guards
  // anything, and neither is a discard.
  for (std::size_t fi = 0; fi < in.files.size(); ++fi) {
    const SourceFile& f = in.files[fi];
    const Tokens& t = f.tokens;
    const Matcher m(t);
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokenKind::kIdentifier) continue;
      if (std::find(kGuardTypes.begin(), kGuardTypes.end(), t[i].text) ==
          kGuardTypes.end()) {
        continue;
      }
      if (index.enclosingFunctionAt(fi, i) == kNpos) continue;
      std::size_t j = i + 1;
      if (isPunct(t[j], "<")) {
        // Skip the template argument list (single-char angles).
        int depth = 0;
        while (j < t.size()) {
          if (isPunct(t[j], "<")) ++depth;
          else if (isPunct(t[j], ">") && --depth == 0) {
            ++j;
            break;
          }
          ++j;
        }
      }
      if (j >= t.size() || (!isPunct(t[j], "(") && !isPunct(t[j], "{"))) {
        continue;
      }
      const std::size_t close = m.match[j];
      if (close == kNpos || close + 1 >= t.size()) continue;
      if (!isPunct(t[close + 1], ";")) continue;  // named var / arg / decl
      add(out, "guard-pairing", f.relPath, t[i].line,
          t[i].text +
              " constructed as a bare temporary is destroyed at the "
              "semicolon and guards nothing; bind it to a named local "
              "(e.g. `" +
              t[i].text + " guard(...);`)");
    }
  }

  // (2) Protocol halves, per function body with class-level credit.
  const auto classHasCall = [&](const std::string& className,
                                std::string_view callee) {
    if (className.empty()) return false;
    for (const FunctionDecl& fn : index.functions) {
      if (fn.className != className) continue;
      for (const std::string& c : fn.callees) {
        if (c == callee) return true;
      }
    }
    return false;
  };

  for (const FunctionDecl& fn : index.functions) {
    const SourceFile& f = in.files[fn.fileIndex];
    const Tokens& t = f.tokens;
    const Matcher m(t);

    for (const Protocol& proto : kProtocols) {
      std::size_t firstOpen = kNpos, firstCloseAfterOpen = kNpos;
      int openLine = 0;
      for (std::size_t i = fn.bodyBegin; i < fn.bodyEnd && i < t.size();
           ++i) {
        const bool opens =
            proto.open == "setTraceSink"
                ? isSinkInstall(t, m, i)
                : callMatches(t, m, i, proto.open, proto.openArg);
        bool closes =
            proto.close == "setTraceSink"
                ? isSinkClear(t, m, i)
                : callMatches(t, m, i, proto.close, proto.closeArg);
        if (!closes && proto.open == "drainMember") {
          for (const std::string_view alt : kDrainAltClosers) {
            if (callMatches(t, m, i, alt, "")) {
              closes = true;
              break;
            }
          }
        }
        if (opens && firstOpen == kNpos) {
          firstOpen = i;
          openLine = t[i].line;
        } else if (closes && firstOpen != kNpos &&
                   firstCloseAfterOpen == kNpos) {
          firstCloseAfterOpen = i;
        }
      }
      if (firstOpen == kNpos) continue;

      if (firstCloseAfterOpen == kNpos) {
        // No close in this body: credit RAII/paired-API classes where the
        // closing half lives in another member (destructor, the paired
        // method) of the same class.
        if (classHasCall(fn.className, proto.close)) continue;
        if (proto.open == "drainMember" &&
            (classHasCall(fn.className, kDrainAltClosers[0]) ||
             classHasCall(fn.className, kDrainAltClosers[1]))) {
          continue;
        }
        add(out, "guard-pairing", f.relPath, openLine,
            std::string(proto.open) + "(" + std::string(proto.openArg) +
                ") opened here is never closed with " +
                std::string(proto.close) + "(" +
                std::string(proto.closeArg) +
                ") in this function or its class; every path must restore "
                "the protocol state");
        continue;
      }

      // Both halves present: an early return between them skips the close
      // (returns inside nested lambda bodies belong to the lambda).
      for (std::size_t i = firstOpen; i < firstCloseAfterOpen; ++i) {
        if (!isId(t[i], "return")) continue;
        bool inLambda = false;
        for (const LambdaDecl& lambda : index.lambdas) {
          if (lambda.fileIndex == fn.fileIndex &&
              lambda.bodyBegin < i && i < lambda.bodyEnd &&
              lambda.bodyBegin > firstOpen) {
            inLambda = true;
            break;
          }
        }
        if (inLambda) continue;
        add(out, "guard-pairing", f.relPath, t[i].line,
            "early return between " + std::string(proto.open) + "(" +
                std::string(proto.openArg) + ") and " +
                std::string(proto.close) + "(" +
                std::string(proto.closeArg) +
                ") skips the closing half; close before returning or use "
                "an RAII scope");
        break;  // one finding per (function, protocol)
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry points (driven from runLint in rules.cpp)
// ---------------------------------------------------------------------------

void runFlowRules(const LintInput& in, const Index& index,
                  std::vector<Finding>& out) {
  ruleUnits(in, index, out);
  ruleRaceCapture(in, index, out);
  ruleChargePath(in, index, out);
  ruleGuardPairing(in, index, out);
}

}  // namespace dcache::lint
