#include "cli/tools/lint_lib.h"

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/failpoint.h"
#include "obs/metrics.h"

namespace freshsel::lint {
namespace {

namespace fs = std::filesystem;

/// Fixture files carrying the banned patterns are generated into a fresh
/// temp directory at runtime, so the repository itself never contains them
/// (the lint_tree ctest scans the committed tree).
class FreshselLintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("freshsel_lint_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }

  void TearDown() override { fs::remove_all(root_); }

  void WriteFixture(const std::string& relative, const std::string& contents) {
    const fs::path path = root_ / relative;
    fs::create_directories(path.parent_path());
    std::ofstream out(path);
    out << contents;
  }

  std::vector<Finding> Lint(const LintOptions& options = LintOptions()) {
    return LintPaths({root_.string()}, options, nullptr);
  }

  static std::vector<std::string> Rules(const std::vector<Finding>& findings) {
    std::vector<std::string> rules;
    rules.reserve(findings.size());
    for (const Finding& f : findings) rules.push_back(f.rule);
    return rules;
  }

  static bool HasRule(const std::vector<Finding>& findings,
                      const std::string& rule) {
    return std::any_of(
        findings.begin(), findings.end(),
        [&](const Finding& f) { return f.rule == rule; });
  }

  fs::path root_;
};

TEST_F(FreshselLintTest, CleanFilePasses) {
  WriteFixture("good.cc",
               "#include \"common/check.h\"\n"
               "int Work(int x) {\n"
               "  FRESHSEL_CHECK(x >= 0);\n"
               "  return x + 1;\n"
               "}\n");
  WriteFixture("good.h",
               "#pragma once\n"
               "int Work(int x);\n");
  EXPECT_TRUE(Lint().empty()) << "unexpected: " << Rules(Lint()).size();
}

TEST_F(FreshselLintTest, FlagsRandAndSrand) {
  WriteFixture("bad_rand.cc",
               "#include <cstdlib>\n"
               "int Roll() { return rand() % 6; }\n"
               "void Seed() { srand(42); }\n"
               "int Roll2() { return std::rand() % 6; }\n");
  const std::vector<Finding> findings = Lint();
  ASSERT_EQ(findings.size(), 3u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "no-rand");
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_EQ(findings[1].line, 3u);
}

TEST_F(FreshselLintTest, DoesNotFlagRandomOrRngIdentifiers) {
  WriteFixture("ok_random.cc",
               "#include \"common/random.h\"\n"
               "double Draw(freshsel::Rng& rng) { return rng.NextDouble(); }\n"
               "int spread(int operand) { return operand; }\n");
  EXPECT_TRUE(Lint().empty());
}

TEST_F(FreshselLintTest, FlagsBareAssertButNotStaticAssert) {
  WriteFixture("bad_assert.cc",
               "#include <cassert>\n"
               "static_assert(sizeof(int) >= 4, \"int\");\n"
               "void Check(int x) { assert(x > 0); }\n");
  const std::vector<Finding> findings = Lint();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-bare-assert");
  EXPECT_EQ(findings[0].line, 3u);
}

TEST_F(FreshselLintTest, AssertRuleCanBeDisabledForTestTrees) {
  WriteFixture("test_helper.cc", "void F(int x) { assert(x); }\n");
  LintOptions options;
  options.assert_rule = false;
  EXPECT_TRUE(Lint(options).empty());
}

TEST_F(FreshselLintTest, FlagsUsingNamespaceInHeadersOnly) {
  WriteFixture("bad_using.h",
               "#pragma once\n"
               "\n"
               "using namespace std;\n");
  WriteFixture("ok_using.cc", "using namespace std;\n");
  const std::vector<Finding> findings = Lint();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-using-namespace");
  EXPECT_EQ(findings[0].line, 3u);
}

TEST_F(FreshselLintTest, IgnoresPatternsInCommentsAndStrings) {
  WriteFixture("ok_comments.cc",
               "// assert(x) and rand() in a comment are fine\n"
               "/* srand(7); using namespace std; */\n"
               "const char* kDoc = \"call rand() then assert(ok)\";\n");
  EXPECT_TRUE(Lint().empty());
}

TEST_F(FreshselLintTest, FlagsNumericLimitsWithoutDirectLimitsInclude) {
  WriteFixture("bad_limits.cc",
               "#include \"selection/algorithms.h\"\n"
               "double Worst() {\n"
               "  return -std::numeric_limits<double>::infinity();\n"
               "}\n");
  const std::vector<Finding> findings = Lint();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "iwyu-spot");
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_NE(findings[0].message.find("<limits>"), std::string::npos);
}

TEST_F(FreshselLintTest, FlagsFixedWidthIntsWithoutDirectCstdintInclude) {
  WriteFixture("bad_cstdint.cc",
               "#include <vector>\n"
               "std::uint64_t Sum(const std::vector<std::uint32_t>& v) {\n"
               "  std::uint64_t total = 0;\n"
               "  for (std::uint32_t x : v) total += x;\n"
               "  return total;\n"
               "}\n");
  const std::vector<Finding> findings = Lint();
  // One finding per missing header, at the first use, however many uses.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "iwyu-spot");
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_NE(findings[0].message.find("<cstdint>"), std::string::npos);
}

TEST_F(FreshselLintTest, AcceptsDirectIncludesAndIgnoresLookalikes) {
  WriteFixture("ok_iwyu.cc",
               "#include <cstdint>\n"
               "#include <limits>\n"
               "std::int64_t Max() {\n"
               "  return std::numeric_limits<std::int64_t>::max();\n"
               "}\n");
  WriteFixture("ok_lookalike.cc",
               "// std::numeric_limits in a comment is fine.\n"
               "struct mystd { static int numeric_limits; };\n"
               "int x = mystd::numeric_limits;\n"
               "int my_uint32_t = 0;  // Not the std alias.\n");
  EXPECT_TRUE(Lint().empty());
}

TEST_F(FreshselLintTest, FlagsSteadyClockOutsideObs) {
  WriteFixture("selection/bad_clock.cc",
               "#include <chrono>\n"
               "double Now() {\n"
               "  auto t = std::chrono::steady_clock::now();\n"
               "  return t.time_since_epoch().count();\n"
               "}\n");
  const std::vector<Finding> findings = Lint();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "obs-clock");
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_NE(findings[0].message.find("obs"), std::string::npos);
}

TEST_F(FreshselLintTest, AllowsSteadyClockInObsTree) {
  WriteFixture("obs/clock_impl.cc",
               "#include <chrono>\n"
               "long Now() {\n"
               "  return std::chrono::steady_clock::now()\n"
               "      .time_since_epoch().count();\n"
               "}\n");
  EXPECT_TRUE(Lint().empty());
}

TEST_F(FreshselLintTest, ObsClockRuleIgnoresLookalikesAndCanBeDisabled) {
  WriteFixture("ok_clock.cc",
               "// std::chrono::steady_clock::now() in a comment is fine.\n"
               "int my_steady_clock_count = 0;  // Longer identifier.\n");
  EXPECT_TRUE(Lint().empty());

  WriteFixture("tool_clock.cc",
               "#include <chrono>\n"
               "auto T() { return std::chrono::steady_clock::now(); }\n");
  EXPECT_TRUE(HasRule(Lint(), "obs-clock"));
  // A site is exempted with a reasoned suppression, not a switch.
  WriteFixture("tool_clock.cc",
               "#include <chrono>\n"
               "// FRESHSEL_LINT_ALLOW(obs-clock): tool outside the obs layer\n"
               "auto T() { return std::chrono::steady_clock::now(); }\n");
  EXPECT_TRUE(Lint().empty());
}

TEST_F(FreshselLintTest, MissingPathReportsIoFinding) {
  const std::vector<Finding> findings =
      LintPaths({(root_ / "does_not_exist").string()}, LintOptions(), nullptr);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "io");
}

// ---------------------------------------------------------------------------
// Rule catalog.

TEST_F(FreshselLintTest, RuleCatalogIsSortedUniqueAndKnown) {
  const std::vector<RuleInfo>& catalog = RuleCatalog();
  ASSERT_FALSE(catalog.empty());
  for (std::size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_LT(catalog[i - 1].id, catalog[i].id) << "catalog not sorted";
  }
  for (const RuleInfo& rule : catalog) {
    EXPECT_TRUE(IsKnownRule(rule.id));
    EXPECT_FALSE(rule.summary.empty());
  }
  EXPECT_FALSE(IsKnownRule("no-such-rule"));
  // Names and #pragma once are compile errors now (obs/macros.h,
  // fault/failpoint.h, the root CMakeLists.txt), not lint rules.
  EXPECT_FALSE(IsKnownRule("failpoint-name"));
  EXPECT_FALSE(IsKnownRule("include-guard"));
  EXPECT_FALSE(IsKnownRule("obs-counter-name"));
}

TEST_F(FreshselLintTest, DisabledRulesAreSkipped) {
  // no-bare-assert is the only rule a scan can switch off; every other
  // rule still fires on the same file.
  WriteFixture("bad_rand.cc",
               "void F(int x) { assert(x); }\n"
               "int Roll() { return rand() % 6; }\n");
  LintOptions options;
  options.assert_rule = false;
  const std::vector<Finding> findings = Lint(options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-rand");
}

// ---------------------------------------------------------------------------
// Inline suppressions.

TEST_F(FreshselLintTest, SuppressionWithReasonEatsFindingSameLine) {
  WriteFixture("ok_rand.cc",
               "int Roll() { return rand() % 6; }"
               "  // FRESHSEL_LINT_ALLOW(no-rand): fixture needs libc rand\n");
  EXPECT_TRUE(Lint().empty());
}

TEST_F(FreshselLintTest, SuppressionOnLineAboveEatsFinding) {
  WriteFixture("ok_rand2.cc",
               "// FRESHSEL_LINT_ALLOW(no-rand): seeding comparison baseline\n"
               "int Roll() { return rand() % 6; }\n");
  EXPECT_TRUE(Lint().empty());
}

TEST_F(FreshselLintTest, SuppressionWithoutReasonIsReported) {
  WriteFixture("noreason.cc",
               "// FRESHSEL_LINT_ALLOW(no-rand)\n"
               "int Roll() { return rand() % 6; }\n");
  const std::vector<Finding> findings = Lint();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lint-allow");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_NE(findings[0].message.find("reason"), std::string::npos);
}

TEST_F(FreshselLintTest, SuppressionOfUnknownRuleIsReported) {
  WriteFixture("unknown.cc",
               "// FRESHSEL_LINT_ALLOW(no-such-rule): oops\n"
               "int F() { return 0; }\n");
  const std::vector<Finding> findings = Lint();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lint-allow");
  EXPECT_NE(findings[0].message.find("unknown rule"), std::string::npos);
}

TEST_F(FreshselLintTest, StaleSuppressionIsReported) {
  WriteFixture("stale.cc",
               "// FRESHSEL_LINT_ALLOW(no-rand): nothing to suppress here\n"
               "int F() { return 0; }\n");
  const std::vector<Finding> findings = Lint();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lint-allow");
  EXPECT_NE(findings[0].message.find("matches no finding"), std::string::npos);
}

TEST_F(FreshselLintTest, ParseSuppressionsUnits) {
  const std::vector<Suppression> parsed = ParseSuppressions(
      "// FRESHSEL_LINT_ALLOW(no-rand): baseline\n"
      "// FRESHSEL_LINT_ALLOW(raw-mutex)\n"
      "const char* s = \"FRESHSEL_LINT_ALLOW(no-rand): in a string\";\n"
      "// FRESHSEL_LINT_ALLOW(<rule-id>): placeholder, not a marker\n");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].line, 1u);
  EXPECT_EQ(parsed[0].rule, "no-rand");
  EXPECT_TRUE(parsed[0].has_reason);
  EXPECT_EQ(parsed[1].line, 2u);
  EXPECT_EQ(parsed[1].rule, "raw-mutex");
  EXPECT_FALSE(parsed[1].has_reason);
}

// ---------------------------------------------------------------------------
// nondeterminism.

TEST_F(FreshselLintTest, FlagsWallClockTimeAndRandomDevice) {
  WriteFixture("bad_seed.cc",
               "#include <ctime>\n"
               "long Seed() { return time(nullptr); }\n"
               "long Seed2() { return std::time(nullptr); }\n"
               "unsigned Seed3() { return std::random_device{}(); }\n");
  const std::vector<Finding> findings = Lint();
  ASSERT_EQ(findings.size(), 3u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "nondeterminism");
}

TEST_F(FreshselLintTest, FlagsRawRandomEngines) {
  // The stochastic-greedy sampler contract: candidate sampling draws from
  // seeded common/random.h streams, never from raw std engines (draw
  // sequences outside the Rng stability tests). srand()/rand() stay the
  // no-rand rule's territory, so no double-flagging here.
  WriteFixture("selection/sampler.cc",
               "#include <random>\n"
               "std::mt19937 gen(42);\n"
               "std::mt19937_64 gen64(42);\n"
               "minstd_rand quick;\n");
  const std::vector<Finding> findings = Lint();
  ASSERT_EQ(findings.size(), 3u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "nondeterminism");
}

TEST_F(FreshselLintTest, SeededRngStreamsPassClean) {
  // The sanctioned pattern - a seeded Rng, forked per consumer - must not
  // trip the engine rule (nor "minstd_rand" lookalikes inside words).
  WriteFixture("selection/ok_sampler.cc",
               "#include <cstddef>\n"
               "#include <cstdint>\n"
               "#include <vector>\n"
               "\n"
               "#include \"common/random.h\"\n"
               "std::vector<std::size_t> Sample(std::uint64_t seed) {\n"
               "  freshsel::Rng rng(seed);\n"
               "  freshsel::Rng child = rng.Fork();\n"
               "  return rng.SampleWithoutReplacement(10, 3);\n"
               "}\n"
               "int mt19937ish_name_in_comment = 0;  // mentions mt19937\n");
  const std::vector<Finding> findings = Lint();
  // The identifier matcher is word-boundary based: the declaration line
  // uses mt19937 only as a substring of a longer identifier, and comment
  // text is stripped before matching.
  EXPECT_TRUE(findings.empty());
}

TEST_F(FreshselLintTest, FlagsUnorderedContainersOnlyInOutputPaths) {
  WriteFixture("io/writer.cc",
               "#include <unordered_map>\n"
               "std::unordered_map<int, int> index;\n");
  WriteFixture("selection/solver.cc",
               "#include <unordered_set>\n"
               "std::unordered_set<int> seen;\n");
  const std::vector<Finding> findings = Lint();
  ASSERT_EQ(findings.size(), 2u);  // Include line + use line, io/ only.
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "nondeterminism");
    EXPECT_NE(f.file.find("writer"), std::string::npos);
  }
}

TEST_F(FreshselLintTest, NondeterminismIgnoresTimeLookalikes) {
  WriteFixture("ok_time.cc",
               "int timeout(int t) { return t; }\n"
               "struct T { double eval_time; };\n"
               "double RunTime(const T& t) { return t.eval_time; }\n");
  EXPECT_TRUE(Lint().empty());
}

// ---------------------------------------------------------------------------
// raw-mutex.

TEST_F(FreshselLintTest, FlagsRawMutexOutsideCommon) {
  WriteFixture("selection/locking.cc",
               "#include <mutex>\n"
               "std::mutex mu;\n"
               "void F() { std::lock_guard<std::mutex> lock(mu); }\n");
  const std::vector<Finding> findings = Lint();
  ASSERT_EQ(findings.size(), 3u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "raw-mutex");
}

TEST_F(FreshselLintTest, AllowsRawMutexInCommon) {
  WriteFixture("common/mutex_impl.cc",
               "#include <mutex>\n"
               "std::mutex mu;\n"
               "void F() { std::unique_lock<std::mutex> lock(mu); }\n");
  EXPECT_TRUE(Lint().empty());
}

// ---------------------------------------------------------------------------
// Instrumentation names. The FRESHSEL_OBS_* and FRESHSEL_FAILPOINT* macros
// check their literal against obs::IsValidMetricName and
// fault::IsValidFailpointName at compile time, so a malformed name never
// reaches a scan: the text scan reports nothing on these fixtures, and the
// predicates the compiler uses flag exactly the names a scan used to.

TEST_F(FreshselLintTest, FlagsMalformedObsMetricNames) {
  WriteFixture("obs/site.cc",
               "void F() {\n"
               "  FRESHSEL_OBS_COUNT(\"io.retries\", 1);\n"
               "  FRESHSEL_OBS_GAUGE_SET(\"Selection.pool.size\", 3.0);\n"
               "  FRESHSEL_OBS_COUNT(\"io.retry.attempts\", 1);\n"
               "  FRESHSEL_OBS_SCOPED_LATENCY(\"stage.select.seconds\");\n"
               "}\n");
  EXPECT_TRUE(Lint().empty());
  EXPECT_FALSE(obs::IsValidMetricName("io.retries"));  // Two segments only.
  EXPECT_FALSE(obs::IsValidMetricName("Selection.pool.size"));  // Uppercase.
  EXPECT_TRUE(obs::IsValidMetricName("io.retry.attempts"));
  EXPECT_TRUE(obs::IsValidMetricName("stage.select.seconds"));
}

TEST_F(FreshselLintTest, MalformedServeLayerNamesAreFlagged) {
  WriteFixture("serve/bad.cc",
               "void F() {\n"
               "  FRESHSEL_FAILPOINT(\"serve.Query\");\n"
               "  FRESHSEL_OBS_COUNT(\"serve.queries\", 1);\n"
               "}\n");
  EXPECT_TRUE(Lint().empty());
  EXPECT_FALSE(fault::IsValidFailpointName("serve.Query"));
  EXPECT_FALSE(obs::IsValidMetricName("serve.queries"));
  // The serve layer's real spellings of the same two sites.
  EXPECT_TRUE(fault::IsValidFailpointName("serve.query"));
  EXPECT_TRUE(obs::IsValidMetricName("serve.queries.executed"));
}

TEST_F(FreshselLintTest, RealLibraryTreeIsClean) {
  const char* source_root = FRESHSEL_SOURCE_ROOT;
  const fs::path src = fs::path(source_root) / "src";
  ASSERT_TRUE(fs::is_directory(src));
  std::size_t scanned = 0;
  const std::vector<Finding> findings =
      LintPaths({src.string()}, LintOptions(), &scanned);
  EXPECT_GT(scanned, 50u);
  for (const Finding& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message;
  }
}

}  // namespace
}  // namespace freshsel::lint
