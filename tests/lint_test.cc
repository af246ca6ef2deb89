#include "lint/lint.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace coachlm {
namespace lint {
namespace {

/// Absolute path of one fixture snippet. COACHLM_LINT_FIXTURE_DIR is baked
/// in by tests/CMakeLists.txt so the test runs from any working directory.
std::string FixturePath(const std::string& name) {
  return std::string(COACHLM_LINT_FIXTURE_DIR) + "/" + name;
}

/// Lints one fixture with an empty base registry; the snippet's own
/// declarations are harvested by LintFile, mirroring the tree driver.
std::vector<Finding> LintFixture(const std::string& name) {
  auto findings = LintFile(FixturePath(name), SymbolRegistry{});
  EXPECT_TRUE(findings.ok()) << findings.status().message();
  if (!findings.ok()) return {};
  return std::move(findings).ValueOrDie();
}

/// The stable `file:line: [rule]` prefix lint_test pins for every case.
std::string Expected(const std::string& fixture, size_t line,
                     const std::string& rule) {
  return FixturePath(fixture) + ":" + std::to_string(line) + ": [" + rule +
         "]";
}

/// Asserts the finding renders with exactly the expected
/// `file:line: [rule]` prefix followed by a non-empty message.
void ExpectFormatted(const Finding& finding, const std::string& fixture,
                     size_t line, const std::string& rule) {
  const std::string formatted = FormatFinding(finding);
  const std::string prefix = Expected(fixture, line, rule) + " ";
  ASSERT_GE(formatted.size(), prefix.size()) << formatted;
  EXPECT_EQ(formatted.substr(0, prefix.size()), prefix);
  EXPECT_GT(formatted.size(), prefix.size()) << "message must be non-empty";
}

TEST(FormatFindingTest, RendersFileLineRuleMessage) {
  EXPECT_EQ(FormatFinding({"src/a.cc", 7, "some-rule", "the message"}),
            "src/a.cc:7: [some-rule] the message");
}

TEST(LintFixtureTest, BannedSymbolPositive) {
  const std::vector<Finding> findings =
      LintFixture("bad_banned_symbol.cc.snippet");
  ASSERT_EQ(findings.size(), 2u);
  // std::random_device and an unseeded std::mt19937.
  ExpectFormatted(findings[0], "bad_banned_symbol.cc.snippet", 4,
                  kRuleBannedSymbol);
  ExpectFormatted(findings[1], "bad_banned_symbol.cc.snippet", 5,
                  kRuleBannedSymbol);
}

TEST(LintFixtureTest, BannedSymbolNegative) {
  EXPECT_TRUE(LintFixture("good_banned_symbol.cc.snippet").empty());
}

TEST(LintFixtureTest, RawClockPositive) {
  const std::vector<Finding> findings = LintFixture("bad_raw_clock.cc.snippet");
  ASSERT_EQ(findings.size(), 1u);
  ExpectFormatted(findings[0], "bad_raw_clock.cc.snippet", 4, kRuleRawClock);
}

TEST(LintFixtureTest, RawClockNegative) {
  EXPECT_TRUE(LintFixture("good_raw_clock.cc.snippet").empty());
}

TEST(LintFixtureTest, UnorderedSerializationPositive) {
  const std::vector<Finding> findings =
      LintFixture("bad_unordered_serialization.cc.snippet");
  ASSERT_EQ(findings.size(), 1u);
  // The range-for over the unordered_map whose body appends to a string.
  ExpectFormatted(findings[0], "bad_unordered_serialization.cc.snippet", 7,
                  kRuleUnorderedSerialization);
}

TEST(LintFixtureTest, UnorderedSerializationNegative) {
  // Same data, but copied into a std::map before serialization.
  EXPECT_TRUE(LintFixture("good_unordered_serialization.cc.snippet").empty());
}

TEST(LintFixtureTest, DiscardedStatusPositive) {
  const std::vector<Finding> findings =
      LintFixture("bad_discarded_status.cc.snippet");
  ASSERT_EQ(findings.size(), 2u);
  // A bare call statement, and a (void) cast with no explaining comment.
  ExpectFormatted(findings[0], "bad_discarded_status.cc.snippet", 10,
                  kRuleDiscardedStatus);
  ExpectFormatted(findings[1], "bad_discarded_status.cc.snippet", 14,
                  kRuleDiscardedStatus);
}

TEST(LintFixtureTest, DiscardedStatusNegative) {
  // Handled status, plus a commented (void) drop.
  EXPECT_TRUE(LintFixture("good_discarded_status.cc.snippet").empty());
}

TEST(LintFixtureTest, UnsafeFnPositive) {
  const std::vector<Finding> findings = LintFixture("bad_unsafe_fn.cc.snippet");
  ASSERT_EQ(findings.size(), 1u);
  ExpectFormatted(findings[0], "bad_unsafe_fn.cc.snippet", 4, kRuleUnsafeFn);
}

TEST(LintFixtureTest, UnsafeFnNegative) {
  EXPECT_TRUE(LintFixture("good_unsafe_fn.cc.snippet").empty());
}

TEST(LintFixtureTest, LocaleCtypePositive) {
  const std::vector<Finding> findings =
      LintFixture("src/bad_locale_ctype.cc.snippet");
  ASSERT_EQ(findings.size(), 2u);
  // std::isalpha and an unqualified tolower; the comment, the string
  // literal and ascii-style IsSpace never fire.
  ExpectFormatted(findings[0], "src/bad_locale_ctype.cc.snippet", 5,
                  kRuleLocaleCtype);
  ExpectFormatted(findings[1], "src/bad_locale_ctype.cc.snippet", 8,
                  kRuleLocaleCtype);
}

TEST(LintFixtureTest, LocaleCtypeNegativeAsciiTable) {
  EXPECT_TRUE(LintFixture("src/good_locale_ctype.cc.snippet").empty());
}

TEST(LintFixtureTest, LocaleCtypeIsScopedToSrc) {
  // The same calls outside src/ (tests, tools, benches) are allowed.
  EXPECT_TRUE(LintFixture("locale_ctype_outside_src.cc.snippet").empty());
}

TEST(LintFixtureTest, IncludeHygienePositive) {
  const std::vector<Finding> findings = LintFixture("bad_guard.h.snippet");
  ASSERT_EQ(findings.size(), 3u);
  // Missing guard, duplicate include, raw C header — sorted by line.
  ExpectFormatted(findings[0], "bad_guard.h.snippet", 1, kRuleIncludeHygiene);
  ExpectFormatted(findings[1], "bad_guard.h.snippet", 2, kRuleIncludeHygiene);
  ExpectFormatted(findings[2], "bad_guard.h.snippet", 3, kRuleIncludeHygiene);
}

TEST(LintFixtureTest, IncludeHygieneNegative) {
  EXPECT_TRUE(LintFixture("good_guard.h.snippet").empty());
}

TEST(LintFixtureTest, SuppressionWithJustificationIsHonored) {
  // The raw-clock hit is covered by a COACHLM_LINT_ALLOW with a reason.
  EXPECT_TRUE(LintFixture("suppressed.cc.snippet").empty());
}

TEST(LintFixtureTest, SuppressionWithoutJustificationIsRejected) {
  const std::vector<Finding> findings =
      LintFixture("bad_suppression.cc.snippet");
  ASSERT_EQ(findings.size(), 1u);
  // The violation itself is swallowed; what surfaces is the bare ALLOW,
  // reported at the suppression comment's own line.
  ExpectFormatted(findings[0], "bad_suppression.cc.snippet", 4,
                  kRuleSuppressionJustification);
}

TEST(LintFixtureTest, GuardedFieldPositive) {
  const std::vector<Finding> findings =
      LintFixture("bad_guarded_field.h.snippet");
  ASSERT_EQ(findings.size(), 1u);
  // The un-locked items_.size() read; the locked Add() and the declaration
  // itself stay silent.
  ExpectFormatted(findings[0], "bad_guarded_field.h.snippet", 14,
                  kRuleGuardedField);
}

TEST(LintFixtureTest, GuardedFieldNegativeAnnotatedClean) {
  // lock_guard scopes, a COACHLM_REQUIRES method, and a constructor
  // member-init all count as covered.
  EXPECT_TRUE(LintFixture("good_guarded_field.h.snippet").empty());
}

TEST(LintFixtureTest, GuardedFieldSuppressed) {
  auto report = LintTree({FixturePath("suppressed_guarded_field.h.snippet")});
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->findings.empty());
  EXPECT_EQ(report->suppressions_used, 1u);
}

TEST(LintFixtureTest, CancelLoopPositive) {
  const std::vector<Finding> findings =
      LintFixture("bad_cancel_loop.cc.snippet");
  ASSERT_EQ(findings.size(), 1u);
  // The for loop calling the snippet's own Status-returning ProcessRecord
  // without ever naming the token.
  ExpectFormatted(findings[0], "bad_cancel_loop.cc.snippet", 9,
                  kRuleCancelUncheckedLoop);
}

TEST(LintFixtureTest, CancelLoopNegativeTokenConsulted) {
  EXPECT_TRUE(LintFixture("good_cancel_loop.cc.snippet").empty());
}

TEST(LintFixtureTest, CancelLoopSuppressed) {
  auto report = LintTree({FixturePath("suppressed_cancel_loop.cc.snippet")});
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->findings.empty());
  EXPECT_EQ(report->suppressions_used, 1u);
}

/// The three registry-drift roots: fixture catalogs whose logical paths end
/// in common/metrics.cc / common/fault.cc (the suffix the harvester keys
/// on), plus one call-site file.
std::vector<std::string> RegistryRoots(const std::string& call_site) {
  return {FixturePath("registry/common/metrics.cc.snippet"),
          FixturePath("registry/common/fault.cc.snippet"),
          FixturePath(call_site)};
}

TEST(LintTreeTest, RegistryDriftIsReportedInBothDirections) {
  auto report = LintTree(RegistryRoots("bad_metric_name.cc.snippet"));
  ASSERT_TRUE(report.ok()) << report.status().message();
  // Forward drift: typo'd call-site literals are findings.
  ASSERT_EQ(report->findings.size(), 2u);
  ExpectFormatted(report->findings[0], "bad_metric_name.cc.snippet", 8,
                  kRuleRegistryUnknownName);
  ExpectFormatted(report->findings[1], "bad_metric_name.cc.snippet", 10,
                  kRuleRegistryUnknownName);
  // Reverse drift: registered-but-never-referenced names are warnings,
  // reported at their declaration line in the registry source.
  ASSERT_EQ(report->warnings.size(), 2u);
  ExpectFormatted(report->warnings[0], "registry/common/fault.cc.snippet", 5,
                  kRuleRegistryUnusedName);
  ExpectFormatted(report->warnings[1], "registry/common/metrics.cc.snippet",
                  8, kRuleRegistryUnusedName);
}

TEST(LintTreeTest, RegistryCleanViaLiteralPrefixAndEnumUse) {
  // "tune." + suffix covers tune.never_used; FaultSite::kChaosNever covers
  // chaos.never without its string ever appearing.
  auto report = LintTree(RegistryRoots("good_metric_name.cc.snippet"));
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->findings.empty());
  EXPECT_TRUE(report->warnings.empty());
}

TEST(LintTreeTest, FixtureDirectoryIsInvisibleToTheTreeWalk) {
  // The deliberately-broken snippets must never count against the repo:
  // the walk skips lint_fixtures/ directories, and the .snippet extension
  // keeps the files un-lintable even via other roots.
  auto report = LintTree({std::string(COACHLM_LINT_FIXTURE_DIR)});
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->files_scanned, 0u);
  EXPECT_TRUE(report->findings.empty());
}

TEST(LintTreeTest, ExplicitSnippetRootIsLinted) {
  // Naming a file directly bypasses the extension filter — that is how
  // this test (and developers) lint a fixture on purpose.
  auto report =
      LintTree({FixturePath("bad_raw_clock.cc.snippet")});
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->files_scanned, 1u);
  ASSERT_EQ(report->findings.size(), 1u);
  EXPECT_EQ(report->findings[0].rule, kRuleRawClock);
}

TEST(HarvestDeclarationsTest, GlobalPassDropsLocalVariables) {
  // A local `words` declared unordered in one file must not poison the
  // lint of an unrelated file that reuses the name for a vector.
  SymbolRegistry cross_file;
  const std::string content =
      "void F() { std::unordered_set<std::string> words; }\n"
      "std::unordered_map<int, int> LoadIndex();\n"
      "class C { std::unordered_set<int> seen_; };\n";
  HarvestDeclarations(content, &cross_file, /*include_locals=*/false);
  EXPECT_EQ(cross_file.unordered_symbols.count("words"), 0u);
  EXPECT_EQ(cross_file.unordered_symbols.count("LoadIndex"), 1u);
  EXPECT_EQ(cross_file.unordered_symbols.count("seen_"), 1u);

  SymbolRegistry own_file;
  HarvestDeclarations(content, &own_file, /*include_locals=*/true);
  EXPECT_EQ(own_file.unordered_symbols.count("words"), 1u);
}

}  // namespace
}  // namespace lint
}  // namespace coachlm
