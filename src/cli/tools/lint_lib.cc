#include "cli/tools/lint_lib.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>

namespace freshsel::lint {
namespace {

namespace fs = std::filesystem;

// The engine's own sources mention the marker and macro spellings inside
// string literals; the needles are spelled split so a self-scan never
// mistakes the parser for a marker site.
const std::string kAllowMarker = std::string("FRESHSEL_LINT") + "_ALLOW(";
const std::string kFailpointMacro = std::string("FRESHSEL_") + "FAILPOINT";
const std::string kObsMacroPrefix = std::string("FRESHSEL_") + "OBS_";

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  lines.push_back(current);
  return lines;
}

/// True when `line` calls `name` as a function: the identifier appears with
/// a word boundary on the left and is followed (modulo spaces) by '('.
bool CallsFunction(const std::string& line, std::string_view name) {
  std::size_t pos = 0;
  while ((pos = line.find(name, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    std::size_t after = pos + name.size();
    while (after < line.size() &&
           std::isspace(static_cast<unsigned char>(line[after])) != 0) {
      ++after;
    }
    if (left_ok && after < line.size() && line[after] == '(') return true;
    pos += name.size();
  }
  return false;
}

/// True when `line` uses `name` as a complete token (word boundaries on
/// both sides; ':' counts as part of a qualified name on the left so
/// "mystd::numeric_limits" never matches "std::numeric_limits").
bool UsesToken(const std::string& line, std::string_view name) {
  std::size_t pos = 0;
  while ((pos = line.find(name, pos)) != std::string::npos) {
    const bool left_ok =
        pos == 0 || (!IsIdentChar(line[pos - 1]) && line[pos - 1] != ':');
    const std::size_t after = pos + name.size();
    const bool right_ok = after >= line.size() || !IsIdentChar(line[after]);
    if (left_ok && right_ok) return true;
    pos += name.size();
  }
  return false;
}

/// True when `line` mentions the identifier `name`, qualified or not
/// (word-bounded, but a ':' on the left is accepted).
bool MentionsIdentifier(const std::string& line, std::string_view name) {
  std::size_t pos = 0;
  while ((pos = line.find(name, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    const std::size_t after = pos + name.size();
    const bool right_ok = after >= line.size() || !IsIdentChar(line[after]);
    if (left_ok && right_ok) return true;
    pos += name.size();
  }
  return false;
}

/// True when the file has a direct `#include <header>` line.
bool HasDirectInclude(const std::vector<std::string>& lines,
                      std::string_view header) {
  std::string needle;
  needle.reserve(header.size() + 2);
  needle.push_back('<');
  needle.append(header);
  needle.push_back('>');
  for (const std::string& line : lines) {
    const std::size_t hash = line.find_first_not_of(" \t");
    if (hash == std::string::npos || line[hash] != '#') continue;
    std::size_t directive = hash + 1;
    while (directive < line.size() &&
           std::isspace(static_cast<unsigned char>(line[directive])) != 0) {
      ++directive;
    }
    if (line.compare(directive, 7, "include") != 0) continue;
    if (line.find(needle, directive) != std::string::npos) return true;
  }
  return false;
}

bool IsHeader(const fs::path& path) { return path.extension() == ".h"; }

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

std::string FirstToken(const std::string& line, std::size_t from) {
  std::size_t start = from;
  while (start < line.size() &&
         std::isspace(static_cast<unsigned char>(line[start])) != 0) {
    ++start;
  }
  std::size_t end = start;
  while (end < line.size() && IsIdentChar(line[end])) ++end;
  return line.substr(start, end - start);
}

/// Comment/string blanking with independent switches, so each consumer can
/// see exactly the text class it needs (pattern rules: neither; suppression
/// parsing: comments only; failpoint-name: strings only).
std::string StripImpl(const std::string& src, bool blank_comments,
                      bool blank_strings) {
  std::string out = src;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          if (blank_comments) out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          if (blank_comments) out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else if (blank_comments) {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          if (blank_comments) {
            out[i] = ' ';
            out[i + 1] = ' ';
          }
          ++i;
          state = State::kCode;
        } else if (c != '\n' && blank_comments) {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\') {
          if (blank_strings) {
            out[i] = ' ';
            if (i + 1 < src.size() && next != '\n') out[i + 1] = ' ';
          }
          ++i;
        } else if (c == quote) {
          state = State::kCode;
        } else if (c != '\n' && blank_strings) {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

/// Everything the per-rule checks need about one file, computed once.
struct FileCtx {
  std::string file;                  ///< Path string for findings.
  fs::path relative;                 ///< Relative to the scan root.
  std::string subtree;               ///< First relative component ("io"...).
  bool header = false;
  const LintOptions* options = nullptr;
  std::vector<std::string> raw;      ///< Verbatim lines.
  std::vector<std::string> code;     ///< Comments and strings blanked.
  std::vector<std::string> with_strings;  ///< Comments blanked only.
};

bool RuleEnabled(const FileCtx& ctx, const char* id) {
  return ctx.options->disabled_rules.count(id) == 0;
}

// ---------------------------------------------------------------------------
// Pattern rules (line-oriented, over comment/string-blanked text).

void CheckNoRand(const FileCtx& ctx, std::vector<Finding>* findings) {
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    if (CallsFunction(line, "rand") || CallsFunction(line, "srand") ||
        CallsFunction(line, "std::rand") ||
        CallsFunction(line, "std::srand")) {
      findings->push_back(
          {ctx.file, i + 1, "no-rand",
           "rand()/srand() are banned; use freshsel::Rng for reproducible "
           "randomness"});
    }
  }
}

void CheckNoBareAssert(const FileCtx& ctx, std::vector<Finding>* findings) {
  if (!ctx.options->assert_rule) return;
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (CallsFunction(ctx.code[i], "assert")) {
      findings->push_back(
          {ctx.file, i + 1, "no-bare-assert",
           "bare assert() is banned in library code; use FRESHSEL_CHECK / "
           "FRESHSEL_DCHECK (common/check.h)"});
    }
  }
}

void CheckObsClock(const FileCtx& ctx, std::vector<Finding>* findings) {
  if (!ctx.options->obs_clock_rule) return;
  // The obs subtree owns the process clock (obs/clock.h); everything else
  // must time through it.
  if (ctx.subtree == "obs") return;
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (MentionsIdentifier(ctx.code[i], "steady_clock")) {
      findings->push_back(
          {ctx.file, i + 1, "obs-clock",
           "std::chrono::steady_clock outside obs/; time through the obs "
           "layer instead (obs::NowNs, obs::WallTimer, or the "
           "FRESHSEL_OBS_* macros) so timings are recordable"});
    }
  }
}

void CheckNoUsingNamespace(const FileCtx& ctx,
                           std::vector<Finding>* findings) {
  if (!ctx.header) return;
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (ctx.code[i].find("using namespace") != std::string::npos) {
      findings->push_back(
          {ctx.file, i + 1, "no-using-namespace",
           "'using namespace' in a header leaks into every includer"});
    }
  }
}

/// Spot include-what-you-use rule for the two headers most often pulled in
/// transitively and silently lost in refactors: <limits> (for
/// std::numeric_limits) and <cstdint> (for the std::[u]intN_t aliases).
/// Flags the first use per header when the direct #include is missing.
void CheckIwyuSpot(const FileCtx& ctx, std::vector<Finding>* findings) {
  struct SpotHeader {
    const char* header;
    std::vector<std::string_view> tokens;
  };
  static const std::vector<SpotHeader>& kSpots = *new std::vector<SpotHeader>{
      {"limits", {"std::numeric_limits"}},
      {"cstdint",
       {"std::int8_t", "std::int16_t", "std::int32_t", "std::int64_t",
        "std::uint8_t", "std::uint16_t", "std::uint32_t",
        "std::uint64_t"}},
  };
  for (const SpotHeader& spot : kSpots) {
    if (HasDirectInclude(ctx.code, spot.header)) continue;
    for (std::size_t i = 0; i < ctx.code.size(); ++i) {
      std::string_view used;
      for (std::string_view token : spot.tokens) {
        if (UsesToken(ctx.code[i], token)) {
          used = token;
          break;
        }
      }
      if (used.empty()) continue;
      findings->push_back(
          {ctx.file, i + 1, "iwyu-spot",
           std::string(used) + " used without a direct #include <" +
               spot.header + ">"});
      break;  // One finding per missing header is enough.
    }
  }
}

void CheckIncludeGuard(const FileCtx& ctx, std::vector<Finding>* findings) {
  if (!ctx.header) return;
  const std::string expected =
      ExpectedGuard(ctx.relative, ctx.options->guard_prefix);
  std::size_t ifndef_line = 0;
  std::string seen_guard;
  for (std::size_t i = 0; i < ctx.raw.size(); ++i) {
    const std::string& line = ctx.raw[i];
    const std::size_t hash = line.find_first_not_of(" \t");
    if (hash == std::string::npos) continue;
    if (line[hash] != '#') continue;
    const std::string directive = FirstToken(line, hash + 1);
    if (directive == "pragma" &&
        line.find("once", hash) != std::string::npos) {
      return;  // #pragma once is acceptable hygiene.
    }
    if (directive == "ifndef" && seen_guard.empty()) {
      seen_guard = FirstToken(line, line.find("ifndef", hash) + 6);
      ifndef_line = i + 1;
      continue;
    }
    if (directive == "define" && !seen_guard.empty()) {
      const std::string defined = FirstToken(line, line.find("define") + 6);
      if (defined != seen_guard) {
        findings->push_back(
            {ctx.file, i + 1, "include-guard",
             "#define '" + defined + "' does not match #ifndef '" +
                 seen_guard + "'"});
      } else if (seen_guard != expected) {
        findings->push_back(
            {ctx.file, ifndef_line, "include-guard",
             "guard '" + seen_guard + "' should be '" + expected + "'"});
      }
      return;
    }
    // Any other directive before the #ifndef/#define pair means the guard
    // does not wrap the whole header.
    break;
  }
  findings->push_back({ctx.file, 1, "include-guard",
                       "header lacks an include guard (expected '" +
                           expected + "' or #pragma once)"});
}

// ---------------------------------------------------------------------------
// nondeterminism: wall-clock seeds, OS entropy, and unordered iteration in
// output paths - the mechanisms that break byte-identity guarantees.

/// Subtrees whose output must be byte-stable (serialized files, reports,
/// selection results printed by the CLI and harness).
bool InOutputSubtree(const FileCtx& ctx) {
  return ctx.subtree == "io" || ctx.subtree == "cli" ||
         ctx.subtree == "harness" || ctx.subtree == "obs";
}

void CheckNondeterminism(const FileCtx& ctx, std::vector<Finding>* findings) {
  const bool output_path = InOutputSubtree(ctx);
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    if (CallsFunction(line, "time") || CallsFunction(line, "std::time")) {
      findings->push_back(
          {ctx.file, i + 1, "nondeterminism",
           "time(nullptr)-style wall-clock reads are nondeterministic; "
           "thread an explicit seed / TimePoint instead"});
    }
    if (MentionsIdentifier(line, "random_device")) {
      findings->push_back(
          {ctx.file, i + 1, "nondeterminism",
           "std::random_device draws OS entropy, breaking reproducible "
           "runs; construct a seeded freshsel::Rng instead"});
    }
    // Raw <random> engines bypass the seeded, forkable common/random.h
    // streams (the stochastic-greedy sampler contract): their draw
    // sequences are not covered by the Rng stability tests. srand()/rand()
    // are the no-rand rule's job.
    if (MentionsIdentifier(line, "mt19937") ||
        MentionsIdentifier(line, "mt19937_64") ||
        MentionsIdentifier(line, "minstd_rand")) {
      findings->push_back(
          {ctx.file, i + 1, "nondeterminism",
           "raw std::random engines bypass the seeded freshsel::Rng "
           "streams; draw from a forked Rng so sequences stay covered by "
           "the reproducibility tests"});
    }
    if (output_path && (line.find("unordered_map") != std::string::npos ||
                        line.find("unordered_set") != std::string::npos)) {
      findings->push_back(
          {ctx.file, i + 1, "nondeterminism",
           "unordered containers have platform-dependent iteration order; "
           "serialization/report/output paths must use std::map/std::set "
           "or sort before emitting (byte-identity guarantee)"});
    }
  }
}

// ---------------------------------------------------------------------------
// raw-mutex: concurrency primitives outside src/common/ bypass the
// annotated freshsel::Mutex wrapper and with it the thread-safety analysis.

void CheckRawMutex(const FileCtx& ctx, std::vector<Finding>* findings) {
  if (ctx.subtree == "common") return;
  static const std::vector<std::string_view>& kBanned =
      *new std::vector<std::string_view>{
          "std::mutex",          "std::recursive_mutex",
          "std::timed_mutex",    "std::shared_mutex",
          "std::lock_guard",     "std::unique_lock",
          "std::scoped_lock",    "std::shared_lock",
          "std::condition_variable", "std::condition_variable_any",
      };
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    for (std::string_view token : kBanned) {
      if (UsesToken(line, token)) {
        findings->push_back(
            {ctx.file, i + 1, "raw-mutex",
             std::string(token) +
                 " outside src/common/; use the annotated freshsel::Mutex "
                 "/ MutexLock / CondVar (common/mutex.h) so the "
                 "thread-safety analysis sees the lock"});
        break;  // One finding per line is enough.
      }
    }
    if (line.find("#include") != std::string::npos &&
        (line.find("<mutex>") != std::string::npos ||
         line.find("<condition_variable>") != std::string::npos ||
         line.find("<shared_mutex>") != std::string::npos)) {
      findings->push_back(
          {ctx.file, i + 1, "raw-mutex",
           "direct mutex header include outside src/common/; include "
           "\"common/mutex.h\" instead"});
    }
  }
}

// ---------------------------------------------------------------------------
// failpoint-name: FRESHSEL_FAILPOINT ids follow `subsystem.site` so specs,
// reports and docs can group injection sites by layer.

bool IsValidFailpointName(std::string_view name) {
  bool saw_dot = false;
  bool segment_empty = true;
  for (char c : name) {
    if (c == '.') {
      if (segment_empty) return false;
      saw_dot = true;
      segment_empty = true;
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
               c == '_') {
      segment_empty = false;
    } else {
      return false;
    }
  }
  return saw_dot && !segment_empty;
}

/// Finds the string literal opening the macro's first argument, scanning
/// from just past the macro's '(' across line breaks. Returns false when
/// the first argument is not a string literal (e.g. the macro definition).
bool FindFailpointLiteral(const std::vector<std::string>& lines,
                          std::size_t line_index, std::size_t column,
                          std::string* literal) {
  std::size_t i = line_index;
  std::size_t pos = column;
  for (; i < lines.size() && i < line_index + 3; ++i) {
    const std::string& line = lines[i];
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos])) != 0) {
      ++pos;
    }
    if (pos < line.size()) {
      if (line[pos] != '"') return false;
      const std::size_t close = line.find('"', pos + 1);
      if (close == std::string::npos) return false;
      *literal = line.substr(pos + 1, close - pos - 1);
      return true;
    }
    pos = 0;
  }
  return false;
}

void CheckFailpointName(const FileCtx& ctx, std::vector<Finding>* findings) {
  for (std::size_t i = 0; i < ctx.with_strings.size(); ++i) {
    const std::string& line = ctx.with_strings[i];
    std::size_t pos = 0;
    while ((pos = line.find(kFailpointMacro, pos)) != std::string::npos) {
      const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
      std::size_t after = pos + kFailpointMacro.size();
      // Accept the _RETURN variant.
      if (line.compare(after, 7, "_RETURN") == 0) after += 7;
      if (!left_ok || after >= line.size() || line[after] != '(') {
        pos += kFailpointMacro.size();
        continue;
      }
      std::string literal;
      if (FindFailpointLiteral(ctx.with_strings, i, after + 1, &literal) &&
          !IsValidFailpointName(literal)) {
        findings->push_back(
            {ctx.file, i + 1, "failpoint-name",
             "failpoint id '" + literal +
                 "' must follow subsystem.site naming "
                 "([a-z0-9_]+(.[a-z0-9_]+)+, e.g. \"io.read\")"});
      }
      pos = after;
    }
  }
}

// ---------------------------------------------------------------------------
// obs-counter-name: FRESHSEL_OBS metric ids follow `subsystem.noun.verb`
// (three or more lowercase dot-separated segments) so dashboards, the
// report diff tool, and the OpenMetrics exposition can group series by
// layer and entity without a hand-maintained mapping.

bool IsValidMetricName(std::string_view name) {
  std::size_t segments = 0;
  bool segment_empty = true;
  for (char c : name) {
    if (c == '.') {
      if (segment_empty) return false;
      ++segments;
      segment_empty = true;
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
               c == '_') {
      segment_empty = false;
    } else {
      return false;
    }
  }
  if (segment_empty) return false;
  ++segments;
  return segments >= 3;
}

void CheckObsCounterName(const FileCtx& ctx,
                         std::vector<Finding>* findings) {
  // Macros whose first argument is a metric id. The definitions themselves
  // (first argument a parameter name, not a string literal) are skipped by
  // the literal scan, as are call-through wrappers.
  static const std::vector<std::string_view>& kMetricMacros =
      *new std::vector<std::string_view>{
          "COUNT", "GAUGE_SET", "HISTOGRAM_RECORD", "SCOPED_LATENCY"};
  for (std::size_t i = 0; i < ctx.with_strings.size(); ++i) {
    const std::string& line = ctx.with_strings[i];
    std::size_t pos = 0;
    while ((pos = line.find(kObsMacroPrefix, pos)) != std::string::npos) {
      const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
      std::size_t after = pos + kObsMacroPrefix.size();
      pos = after;
      if (!left_ok) continue;
      bool known = false;
      for (std::string_view suffix : kMetricMacros) {
        if (line.compare(after, suffix.size(), suffix) == 0 &&
            after + suffix.size() < line.size() &&
            line[after + suffix.size()] == '(') {
          after += suffix.size();
          known = true;
          break;
        }
      }
      if (!known) continue;
      std::string literal;
      if (FindFailpointLiteral(ctx.with_strings, i, after + 1, &literal) &&
          !IsValidMetricName(literal)) {
        findings->push_back(
            {ctx.file, i + 1, "obs-counter-name",
             "metric id '" + literal +
                 "' must follow subsystem.noun.verb naming "
                 "([a-z0-9_]+(.[a-z0-9_]+){2,}, e.g. "
                 "\"selection.oracle.calls\")"});
      }
      pos = after;
    }
  }
}

// ---------------------------------------------------------------------------
// Suppressions.

void ApplySuppressions(std::vector<Suppression>& suppressions,
                       const std::string& file,
                       std::vector<Finding>* findings) {
  std::vector<Finding> kept;
  kept.reserve(findings->size());
  for (Finding& finding : *findings) {
    bool suppressed = false;
    for (Suppression& suppression : suppressions) {
      if (suppression.rule != finding.rule) continue;
      if (suppression.line != finding.line &&
          suppression.line + 1 != finding.line) {
        continue;
      }
      suppression.used = true;
      suppressed = true;
      break;
    }
    if (!suppressed) kept.push_back(std::move(finding));
  }
  *findings = std::move(kept);
  for (const Suppression& suppression : suppressions) {
    if (!IsKnownRule(suppression.rule)) {
      findings->push_back(
          {file, suppression.line, "lint-allow",
           "suppression names unknown rule '" + suppression.rule + "'"});
      continue;
    }
    if (!suppression.has_reason) {
      findings->push_back(
          {file, suppression.line, "lint-allow",
           "suppression of '" + suppression.rule +
               "' lacks a reason; write FRESHSEL_LINT" +
               "_ALLOW(rule): why this site is intentional"});
    }
    if (!suppression.used) {
      findings->push_back(
          {file, suppression.line, "lint-allow",
           "suppression of '" + suppression.rule +
               "' matches no finding; remove the stale marker"});
    }
  }
}

// ---------------------------------------------------------------------------
// JSON helpers (the lint library stays dependency-free of obs/).

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

const std::vector<RuleInfo>& RuleCatalog() {
  static const std::vector<RuleInfo>& catalog = *new std::vector<RuleInfo>{
      {"failpoint-name",
       "FRESHSEL_FAILPOINT ids follow subsystem.site naming", true},
      {"include-guard",
       "headers carry the canonical FRESHSEL_<PATH>_H_ include guard",
       false},
      {"io", "file or directory could not be read", false},
      {"iwyu-spot",
       "spot include-what-you-use: <limits> and <cstdint> must be direct",
       true},
      {"lint-allow",
       "suppression hygiene: markers need a reason and must match a finding",
       false},
      {"no-bare-assert",
       "library code uses FRESHSEL_CHECK/DCHECK instead of assert()", false},
      {"no-rand", "rand()/srand() banned in favor of seeded freshsel::Rng",
       false},
      {"no-using-namespace", "'using namespace' banned in headers", false},
      {"nondeterminism",
       "wall-clock reads, OS entropy, and unordered iteration in output "
       "paths break byte-identity",
       false},
      {"obs-clock",
       "steady_clock outside obs/; time through the obs layer", false},
      {"obs-counter-name",
       "FRESHSEL_OBS metric ids follow subsystem.noun.verb naming", false},
      {"raw-mutex",
       "std::mutex family outside src/common/; use annotated "
       "freshsel::Mutex",
       false},
  };
  return catalog;
}

bool IsKnownRule(const std::string& id) {
  const std::vector<RuleInfo>& catalog = RuleCatalog();
  return std::any_of(catalog.begin(), catalog.end(),
                     [&](const RuleInfo& rule) { return rule.id == id; });
}

std::string StripCommentsAndStrings(const std::string& src) {
  return StripImpl(src, /*blank_comments=*/true, /*blank_strings=*/true);
}

std::string ExpectedGuard(const fs::path& relative,
                          const std::string& prefix) {
  std::string guard = prefix;
  for (const fs::path& part : relative) {
    for (char c : part.string()) {
      if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
        guard.push_back(static_cast<char>(
            std::toupper(static_cast<unsigned char>(c))));
      } else {
        guard.push_back('_');
      }
    }
    guard.push_back('_');
  }
  // ".../NAME_H_" is already complete: the extension's dot became '_'.
  return guard;
}

std::vector<Suppression> ParseSuppressions(const std::string& raw) {
  // Strings are blanked first so a marker quoted in test fixture text (or
  // in this very file) is not a live suppression; markers live in comments.
  const std::vector<std::string> lines =
      SplitLines(StripImpl(raw, /*blank_comments=*/false,
                           /*blank_strings=*/true));
  std::vector<Suppression> suppressions;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    std::size_t pos = 0;
    while ((pos = line.find(kAllowMarker, pos)) != std::string::npos) {
      const std::size_t open = pos + kAllowMarker.size();
      const std::size_t close = line.find(')', open);
      pos = open;
      if (close == std::string::npos) continue;
      const std::string rule = line.substr(open, close - open);
      // Placeholder spellings like <rule-id> are documentation, not
      // markers; a real rule id is lowercase kebab/underscore.
      const bool id_like =
          !rule.empty() &&
          std::all_of(rule.begin(), rule.end(), [](char c) {
            return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                   c == '-' || c == '_';
          });
      if (!id_like) continue;
      Suppression suppression;
      suppression.line = i + 1;
      suppression.rule = rule;
      std::size_t tail = close + 1;
      while (tail < line.size() &&
             std::isspace(static_cast<unsigned char>(line[tail])) != 0) {
        ++tail;
      }
      suppression.has_reason =
          tail < line.size() && line[tail] == ':' &&
          line.find_first_not_of(" \t", tail + 1) != std::string::npos;
      suppressions.push_back(std::move(suppression));
    }
  }
  return suppressions;
}

void LintFile(const fs::path& file, const fs::path& relative,
              const LintOptions& options, std::vector<Finding>* findings) {
  std::ifstream in(file);
  if (!in) {
    findings->push_back({file.string(), 0, "io", "cannot open file"});
    return;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string raw = buffer.str();

  FileCtx ctx;
  ctx.file = file.string();
  ctx.relative = relative;
  ctx.subtree = relative.begin() != relative.end()
                    ? relative.begin()->string()
                    : std::string();
  ctx.header = IsHeader(file);
  ctx.options = &options;
  ctx.raw = SplitLines(raw);
  ctx.code = SplitLines(StripCommentsAndStrings(raw));
  ctx.with_strings = SplitLines(
      StripImpl(raw, /*blank_comments=*/true, /*blank_strings=*/false));

  std::vector<Finding> file_findings;
  if (RuleEnabled(ctx, "no-rand")) CheckNoRand(ctx, &file_findings);
  if (RuleEnabled(ctx, "no-bare-assert")) {
    CheckNoBareAssert(ctx, &file_findings);
  }
  if (RuleEnabled(ctx, "obs-clock")) CheckObsClock(ctx, &file_findings);
  if (RuleEnabled(ctx, "no-using-namespace")) {
    CheckNoUsingNamespace(ctx, &file_findings);
  }
  if (RuleEnabled(ctx, "iwyu-spot")) CheckIwyuSpot(ctx, &file_findings);
  if (RuleEnabled(ctx, "nondeterminism")) {
    CheckNondeterminism(ctx, &file_findings);
  }
  if (RuleEnabled(ctx, "raw-mutex")) CheckRawMutex(ctx, &file_findings);
  if (RuleEnabled(ctx, "failpoint-name")) {
    CheckFailpointName(ctx, &file_findings);
  }
  if (RuleEnabled(ctx, "obs-counter-name")) {
    CheckObsCounterName(ctx, &file_findings);
  }
  if (RuleEnabled(ctx, "include-guard")) {
    CheckIncludeGuard(ctx, &file_findings);
  }

  // Stable order: by line, then rule, so multi-rule lines render
  // deterministically regardless of check order.
  std::stable_sort(file_findings.begin(), file_findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  std::vector<Suppression> suppressions = ParseSuppressions(raw);
  ApplySuppressions(suppressions, ctx.file, &file_findings);
  findings->insert(findings->end(),
                   std::make_move_iterator(file_findings.begin()),
                   std::make_move_iterator(file_findings.end()));
}

std::vector<Finding> LintPaths(const std::vector<std::string>& paths,
                               const LintOptions& options,
                               std::size_t* files_scanned) {
  std::vector<std::pair<fs::path, fs::path>> files;  // (file, relative)
  std::vector<Finding> findings;
  for (const std::string& arg : paths) {
    const fs::path root(arg);
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      std::vector<fs::path> dir_files;
      for (const auto& entry : fs::recursive_directory_iterator(root)) {
        if (entry.is_regular_file() && IsSourceFile(entry.path())) {
          dir_files.push_back(entry.path());
        }
      }
      std::sort(dir_files.begin(), dir_files.end());
      for (const fs::path& file : dir_files) {
        files.emplace_back(file, fs::relative(file, root));
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.emplace_back(root, root.filename());
    } else {
      findings.push_back({arg, 0, "io", "no such file or directory"});
    }
  }

  for (const auto& [file, relative] : files) {
    LintFile(file, relative, options, &findings);
  }
  if (files_scanned != nullptr) *files_scanned = files.size();
  return findings;
}

std::string FindingsToText(const std::vector<Finding>& findings,
                           std::size_t files_scanned) {
  std::string out;
  for (const Finding& finding : findings) {
    out += finding.file + ":" + std::to_string(finding.line) + ": [" +
           finding.rule + "] " + finding.message + "\n";
  }
  out += "freshsel_lint: " + std::to_string(files_scanned) + " file(s), " +
         std::to_string(findings.size()) + " finding(s)\n";
  return out;
}

std::string FindingsToJson(const std::vector<Finding>& findings,
                           std::size_t files_scanned) {
  std::string out = "{\n  \"files_scanned\": " +
                    std::to_string(files_scanned) + ",\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& finding = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"file\": \"" + JsonEscape(finding.file) +
           "\", \"line\": " + std::to_string(finding.line) +
           ", \"rule\": \"" + JsonEscape(finding.rule) +
           "\", \"message\": \"" + JsonEscape(finding.message) + "\"}";
  }
  out += findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string FindingsToSarif(const std::vector<Finding>& findings) {
  const std::vector<RuleInfo>& catalog = RuleCatalog();
  std::map<std::string, std::size_t> rule_index;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    rule_index[catalog[i].id] = i;
  }
  std::string out;
  out +=
      "{\n"
      "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
      "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"freshsel_lint\",\n"
      "          \"informationUri\": "
      "\"https://github.com/freshsel/freshsel\",\n"
      "          \"rules\": [";
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "            {\"id\": \"" + JsonEscape(catalog[i].id) +
           "\", \"shortDescription\": {\"text\": \"" +
           JsonEscape(catalog[i].summary) + "\"}}";
  }
  out +=
      "\n          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& finding = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "        {\"ruleId\": \"" + JsonEscape(finding.rule) + "\"";
    auto it = rule_index.find(finding.rule);
    if (it != rule_index.end()) {
      out += ", \"ruleIndex\": " + std::to_string(it->second);
    }
    out += ", \"level\": \"error\", \"message\": {\"text\": \"" +
           JsonEscape(finding.message) +
           "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"" +
           JsonEscape(finding.file) +
           "\"}, \"region\": {\"startLine\": " +
           std::to_string(finding.line == 0 ? 1 : finding.line) + "}}}]}";
  }
  out += findings.empty() ? "]\n" : "\n      ]\n";
  out +=
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

namespace {

/// Loads `file` into lines (keeping no trailing-newline bookkeeping simple:
/// files are rewritten with a trailing newline, which the tree style
/// mandates anyway).
bool ReadLines(const std::string& file, std::vector<std::string>* lines) {
  std::ifstream in(file);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *lines = SplitLines(buffer.str());
  if (!lines->empty() && lines->back().empty()) lines->pop_back();
  return true;
}

bool WriteLines(const std::string& file,
                const std::vector<std::string>& lines) {
  std::ofstream out(file);
  if (!out) return false;
  for (const std::string& line : lines) out << line << "\n";
  return static_cast<bool>(out);
}

/// The header name ("limits", "cstdint") an iwyu-spot message names.
std::string IwyuHeaderFromMessage(const std::string& message) {
  const std::size_t open = message.rfind('<');
  const std::size_t close = message.rfind('>');
  if (open == std::string::npos || close == std::string::npos ||
      close <= open) {
    return std::string();
  }
  return message.substr(open + 1, close - open - 1);
}

/// Inserts `#include <header>` into the (sorted) system-include block, or
/// after the last include, or after the include-guard prologue. Returns
/// the 1-based insertion line.
std::size_t InsertSystemInclude(std::vector<std::string>* lines,
                                const std::string& header) {
  const std::string include_line = "#include <" + header + ">";
  std::size_t block_begin = static_cast<std::size_t>(-1);
  std::size_t block_end = 0;
  std::size_t last_include = static_cast<std::size_t>(-1);
  std::size_t guard_define = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < lines->size(); ++i) {
    const std::string& line = (*lines)[i];
    if (line.rfind("#include <", 0) == 0) {
      if (block_begin == static_cast<std::size_t>(-1)) block_begin = i;
      block_end = i;
      last_include = i;
    } else if (line.rfind("#include", 0) == 0) {
      last_include = i;
    } else if (guard_define == static_cast<std::size_t>(-1) &&
               line.rfind("#define", 0) == 0) {
      guard_define = i;
    }
  }
  std::size_t insert_at;
  if (block_begin != static_cast<std::size_t>(-1)) {
    insert_at = block_end + 1;  // Default: after the block.
    for (std::size_t i = block_begin; i <= block_end; ++i) {
      if ((*lines)[i].rfind("#include <", 0) == 0 &&
          include_line < (*lines)[i]) {
        insert_at = i;
        break;
      }
    }
  } else if (last_include != static_cast<std::size_t>(-1)) {
    insert_at = last_include + 1;
  } else if (guard_define != static_cast<std::size_t>(-1)) {
    insert_at = guard_define + 1;
    // Keep the conventional blank line after the guard prologue.
    if (insert_at < lines->size() && (*lines)[insert_at].empty()) {
      ++insert_at;
    }
  } else {
    insert_at = 0;
  }
  lines->insert(lines->begin() + static_cast<std::ptrdiff_t>(insert_at),
                include_line);
  return insert_at + 1;
}

/// Mechanical failpoint-name repair: lowercase, squash invalid characters
/// to '_', and prefix a best-guess subsystem (the file's directory name)
/// when no '.' separates subsystem from site.
std::string CanonicalFailpointName(const std::string& literal,
                                   const std::string& file) {
  std::string fixed;
  fixed.reserve(literal.size());
  for (char c : literal) {
    const char lower = static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
    if ((lower >= 'a' && lower <= 'z') || (lower >= '0' && lower <= '9') ||
        lower == '_' || lower == '.') {
      fixed.push_back(lower);
    } else {
      fixed.push_back('_');
    }
  }
  // Collapse degenerate dot runs and trim dot ends.
  std::string clean;
  for (char c : fixed) {
    if (c == '.' && (clean.empty() || clean.back() == '.')) continue;
    clean.push_back(c);
  }
  while (!clean.empty() && clean.back() == '.') clean.pop_back();
  if (clean.find('.') == std::string::npos) {
    const fs::path parent = fs::path(file).parent_path().filename();
    std::string subsystem = parent.string();
    if (subsystem.empty()) subsystem = "app";
    clean = subsystem + "." + (clean.empty() ? "site" : clean);
  }
  return clean;
}

}  // namespace

std::vector<FixEdit> ApplyFixes(const std::vector<Finding>& findings,
                                bool apply) {
  // Group fixable findings per file, applying top-to-bottom so later line
  // numbers stay valid (insertions only shift lines below them; we
  // re-derive offsets by applying edits bottom-up).
  std::map<std::string, std::vector<const Finding*>> by_file;
  for (const Finding& finding : findings) {
    if (finding.rule == "iwyu-spot" || finding.rule == "failpoint-name") {
      by_file[finding.file].push_back(&finding);
    }
  }
  std::vector<FixEdit> edits;
  for (auto& [file, file_findings] : by_file) {
    std::vector<std::string> lines;
    if (!ReadLines(file, &lines)) continue;
    bool changed = false;
    // failpoint-name first (in-place rewrites keep line numbers stable),
    // then iwyu insertions bottom-up.
    for (const Finding* finding : file_findings) {
      if (finding->rule != "failpoint-name") continue;
      const std::size_t open = finding->message.find('\'');
      const std::size_t close =
          open == std::string::npos
              ? std::string::npos
              : finding->message.find('\'', open + 1);
      if (close == std::string::npos || finding->line == 0 ||
          finding->line > lines.size()) {
        continue;
      }
      const std::string literal =
          finding->message.substr(open + 1, close - open - 1);
      const std::string fixed = CanonicalFailpointName(literal, file);
      // The literal may sit on the macro line or on the next (wrapped
      // argument); rewrite the first occurrence found.
      for (std::size_t i = finding->line - 1;
           i < std::min(finding->line + 2, lines.size()); ++i) {
        const std::string quoted = "\"" + literal + "\"";
        const std::size_t at = lines[i].find(quoted);
        if (at == std::string::npos) continue;
        FixEdit edit;
        edit.file = file;
        edit.line = i + 1;
        edit.rule = "failpoint-name";
        edit.before = lines[i];
        lines[i].replace(at, quoted.size(), "\"" + fixed + "\"");
        edit.after = lines[i];
        edits.push_back(std::move(edit));
        changed = true;
        break;
      }
    }
    for (const Finding* finding : file_findings) {
      if (finding->rule != "iwyu-spot") continue;
      const std::string header = IwyuHeaderFromMessage(finding->message);
      if (header.empty()) continue;
      FixEdit edit;
      edit.file = file;
      edit.rule = "iwyu-spot";
      edit.after = "#include <" + header + ">";
      edit.line = InsertSystemInclude(&lines, header);
      edits.push_back(std::move(edit));
      changed = true;
    }
    if (apply && changed) WriteLines(file, lines);
  }
  std::sort(edits.begin(), edits.end(),
            [](const FixEdit& a, const FixEdit& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.line < b.line;
            });
  return edits;
}

std::string EditsToDiff(const std::vector<FixEdit>& edits) {
  std::string out;
  std::string current_file;
  for (const FixEdit& edit : edits) {
    if (edit.file != current_file) {
      current_file = edit.file;
      out += "--- " + edit.file + "\n+++ " + edit.file + "\n";
    }
    out += "@@ line " + std::to_string(edit.line) + " [" + edit.rule +
           "] @@\n";
    if (!edit.before.empty()) out += "-" + edit.before + "\n";
    out += "+" + edit.after + "\n";
  }
  return out;
}

}  // namespace freshsel::lint
