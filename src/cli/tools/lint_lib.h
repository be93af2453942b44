#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

/// Core of the `freshsel_lint` tool: a repo-specific rule engine for what
/// only a text scan can check, enforced as ctests (see DESIGN.md §12).
/// Split from the CLI main so the rules are unit-testable on fixture files.
/// Metric and failpoint names and #pragma once are checked by the compiler
/// instead (obs/macros.h, fault/failpoint.h, the root CMakeLists.txt).
///
/// Every check is a registered rule with a stable kebab-case id
/// (`RuleCatalog`). Findings can be suppressed inline, one site at a time,
/// with a reason:
///
///   ignorable_call();  // FRESHSEL_LINT_ALLOW(<rule-id>): why it is fine
///
/// The marker suppresses the named rule on its own line and on the line
/// directly below (so it can sit above a long statement). A marker without
/// a `: reason` tail, naming an unknown rule, or matching no finding is
/// itself reported (rule `lint-allow`), keeping the suppression inventory
/// honest.
namespace freshsel::lint {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;     ///< Rule id, e.g. "no-rand", "raw-mutex".
  std::string message;
};

struct RuleInfo {
  std::string id;
  std::string summary;
};

/// Every registered rule, deterministically ordered by id. The catalog is
/// what `--list-rules` prints.
const std::vector<RuleInfo>& RuleCatalog();

/// True when `id` names a registered rule (including the engine's own
/// "io" and "lint-allow" reporting pseudo-rules).
bool IsKnownRule(const std::string& id);

struct LintOptions {
  /// Enforce the no-bare-assert rule (off for test trees, where gtest
  /// helpers legitimately assert).
  bool assert_rule = true;
};

/// Replaces comments and string/char literal contents with spaces so pattern
/// rules never fire on prose or quoted text; newlines are preserved.
std::string StripCommentsAndStrings(const std::string& src);

/// One parsed FRESHSEL_LINT_ALLOW marker.
struct Suppression {
  std::size_t line = 0;      ///< Line the marker sits on.
  std::string rule;          ///< Rule id inside the parentheses.
  bool has_reason = false;   ///< Marker carries a ": reason" tail.
  bool used = false;         ///< Set by the engine when it eats a finding.
};

/// Extracts FRESHSEL_LINT_ALLOW(<rule-id>)[: reason] markers from raw file
/// text. String literals are ignored (markers live in comments), and a
/// parenthesized id that is not lowercase kebab/underscore - like the
/// literal placeholder above - is documentation, not a marker.
std::vector<Suppression> ParseSuppressions(const std::string& raw);

/// Lints one file; the first component of `relative` (to the scan root)
/// names the subtree that path-scoped rules key on. Appends unsuppressed
/// findings.
void LintFile(const std::filesystem::path& file,
              const std::filesystem::path& relative, const LintOptions& options,
              std::vector<Finding>* findings);

/// Scans files/directories (recursively; .h/.cc/.cpp). Returns all
/// findings, deterministically ordered. Unreadable paths produce an "io"
/// finding.
std::vector<Finding> LintPaths(const std::vector<std::string>& paths,
                               const LintOptions& options,
                               std::size_t* files_scanned);

}  // namespace freshsel::lint
