// freshsel_lint: the repo-specific static-analysis rule engine for the
// freshsel tree (see DESIGN.md §12 and cli/tools/lint_lib.h for the rule
// catalog and the inline suppression syntax).
//
// Usage:
//   freshsel_lint [--no-assert-rule] PATH...
//   freshsel_lint --list-rules
//
// Each PATH is a file or a directory scanned recursively for .h/.cc/.cpp.
// Findings go to stderr as "file:line: [rule] message", the summary line
// to stdout.
//
// Flags:
//   --no-assert-rule   Allow bare assert() (test trees).
//   --list-rules       Print the rule catalog and exit.
//
// Exits 0 when clean, 1 when any finding is reported, 2 on usage errors.

#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "cli/tools/lint_lib.h"

namespace {

constexpr std::string_view kUsage =
    "usage: freshsel_lint [--no-assert-rule] PATH...\n"
    "       freshsel_lint --list-rules\n";

int ListRules() {
  for (const freshsel::lint::RuleInfo& rule :
       freshsel::lint::RuleCatalog()) {
    std::cout << rule.id << "\n    " << rule.summary << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  freshsel::lint::LintOptions options;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--no-assert-rule") {
      options.assert_rule = false;
    } else if (arg == "--list-rules") {
      return ListRules();
    } else if (arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.empty() && arg.front() == '-') {
      std::cerr << "freshsel_lint: unknown flag: " << arg << "\n";
      return 2;
    } else {
      paths.emplace_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  std::size_t files_scanned = 0;
  const std::vector<freshsel::lint::Finding> findings =
      freshsel::lint::LintPaths(paths, options, &files_scanned);
  for (const freshsel::lint::Finding& f : findings) {
    std::cerr << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  std::cout << "freshsel_lint: " << files_scanned << " file(s), "
            << findings.size() << " finding(s)\n";
  return findings.empty() ? 0 : 1;
}
