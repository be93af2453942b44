#include "cli/tools/lint_lib.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

namespace freshsel::lint {
namespace {

namespace fs = std::filesystem;

// The engine's own sources mention the marker spelling inside string
// literals; the needle is spelled split so a self-scan never mistakes the
// parser for a marker site.
const std::string kAllowMarker = std::string("FRESHSEL_LINT") + "_ALLOW(";

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

/// Blanks string/char literal contents, and comments too when
/// `blank_comments` is set: pattern rules see neither, suppression parsing
/// keeps the comments its markers live in.
std::string StripImpl(const std::string& src, bool blank_comments) {
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
          out[i] = ' ';
          if (i + 1 < src.size() && next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == quote) {
          state = State::kCode;
        } else if (c != '\n') {
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
  std::string subtree;               ///< First relative component ("io"...).
  bool header = false;
  const LintOptions* options = nullptr;
  std::vector<std::string> code;     ///< Comments and strings blanked.
};

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

}  // namespace

const std::vector<RuleInfo>& RuleCatalog() {
  static const std::vector<RuleInfo>& catalog = *new std::vector<RuleInfo>{
      {"io", "file or directory could not be read"},
      {"iwyu-spot",
       "spot include-what-you-use: <limits> and <cstdint> must be direct"},
      {"lint-allow",
       "suppression hygiene: markers need a reason and must match a finding"},
      {"no-bare-assert",
       "library code uses FRESHSEL_CHECK/DCHECK instead of assert()"},
      {"no-rand", "rand()/srand() banned in favor of seeded freshsel::Rng"},
      {"no-using-namespace", "'using namespace' banned in headers"},
      {"nondeterminism",
       "wall-clock reads, OS entropy, and unordered iteration in output "
       "paths break byte-identity"},
      {"obs-clock", "steady_clock outside obs/; time through the obs layer"},
      {"raw-mutex",
       "std::mutex family outside src/common/; use annotated "
       "freshsel::Mutex"},
  };
  return catalog;
}

bool IsKnownRule(const std::string& id) {
  const std::vector<RuleInfo>& catalog = RuleCatalog();
  return std::any_of(catalog.begin(), catalog.end(),
                     [&](const RuleInfo& rule) { return rule.id == id; });
}

std::string StripCommentsAndStrings(const std::string& src) {
  return StripImpl(src, /*blank_comments=*/true);
}

std::vector<Suppression> ParseSuppressions(const std::string& raw) {
  // Strings are blanked first so a marker quoted in test fixture text (or
  // in this very file) is not a live suppression; markers live in comments.
  const std::vector<std::string> lines =
      SplitLines(StripImpl(raw, /*blank_comments=*/false));
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
  ctx.subtree = relative.begin() != relative.end()
                    ? relative.begin()->string()
                    : std::string();
  ctx.header = IsHeader(file);
  ctx.options = &options;
  ctx.code = SplitLines(StripCommentsAndStrings(raw));

  std::vector<Finding> file_findings;
  CheckNoRand(ctx, &file_findings);
  CheckNoBareAssert(ctx, &file_findings);
  CheckObsClock(ctx, &file_findings);
  CheckNoUsingNamespace(ctx, &file_findings);
  CheckIwyuSpot(ctx, &file_findings);
  CheckNondeterminism(ctx, &file_findings);
  CheckRawMutex(ctx, &file_findings);

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

}  // namespace freshsel::lint
