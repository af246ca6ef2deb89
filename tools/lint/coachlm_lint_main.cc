// coachlm_lint: the repo-native invariant checker.
//
// Usage: coachlm_lint [--max-allows N] <path>...
//
// Walks the given files/directories, harvests Status/Result declarations,
// COACHLM_GUARDED_BY annotations, and the canonical metric/fault-site name
// registries, then enforces the determinism, error-discipline, concurrency,
// registry-drift, and cancellation rules documented in docs/LINT.md.
// Prints findings as `file:line: [rule] message` and exits 1 when any
// unsuppressed finding remains (or the suppression budget is exceeded),
// 2 on usage or I/O errors, 0 on a clean tree — so CI can gate merges on
// it exactly like a compiler warning. Advisory warnings (registry names
// never referenced) are printed to stderr and never affect the exit code.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--max-allows N] <path>...\n"
               "  Lints .cc/.h/.cpp/.hpp files under the given paths.\n"
               "  Rules:\n"
               "    %s\n    %s\n    %s (src/ only)\n    %s\n    %s\n    %s\n"
               "    %s\n    %s\n    %s\n    %s (warning)\n    %s\n"
               "  Suppress one finding with\n"
               "    // COACHLM_LINT_ALLOW(rule): <justification>\n"
               "  on the offending line or the line above.\n"
               "  --max-allows N  fail when more than N suppressions are in\n"
               "                  effect across the tree (ratchets the\n"
               "                  escape-hatch budget).\n",
               argv0, coachlm::lint::kRuleBannedSymbol,
               coachlm::lint::kRuleRawClock,
               coachlm::lint::kRuleLocaleCtype,
               coachlm::lint::kRuleUnorderedSerialization,
               coachlm::lint::kRuleDiscardedStatus,
               coachlm::lint::kRuleUnsafeFn,
               coachlm::lint::kRuleIncludeHygiene,
               coachlm::lint::kRuleGuardedField,
               coachlm::lint::kRuleRegistryUnknownName,
               coachlm::lint::kRuleRegistryUnusedName,
               coachlm::lint::kRuleCancelUncheckedLoop);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  long max_allows = -1;  // -1 = unlimited
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return Usage(argv[0]);
    if (arg == "--max-allows") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "coachlm_lint: --max-allows needs a value\n");
        return Usage(argv[0]);
      }
      char* parse_end = nullptr;
      max_allows = std::strtol(argv[++i], &parse_end, 10);
      if (parse_end == nullptr || *parse_end != '\0' || max_allows < 0) {
        std::fprintf(stderr,
                     "coachlm_lint: --max-allows needs a non-negative "
                     "integer, got '%s'\n",
                     argv[i]);
        return Usage(argv[0]);
      }
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "coachlm_lint: unknown flag '%s'\n", arg.c_str());
      return Usage(argv[0]);
    }
    roots.push_back(arg);
  }
  if (roots.empty()) return Usage(argv[0]);

  const auto report = coachlm::lint::LintTree(roots);
  if (!report.ok()) {
    std::fprintf(stderr, "coachlm_lint: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  for (const coachlm::lint::Finding& finding : report->findings) {
    std::printf("%s\n", coachlm::lint::FormatFinding(finding).c_str());
  }
  for (const coachlm::lint::Finding& warning : report->warnings) {
    std::fprintf(stderr, "warning: %s\n",
                 coachlm::lint::FormatFinding(warning).c_str());
  }
  std::fprintf(stderr,
               "coachlm_lint: %zu finding(s), %zu warning(s), %zu "
               "suppression(s) in %zu file(s)\n",
               report->findings.size(), report->warnings.size(),
               report->suppressions_used, report->files_scanned);
  bool failed = !report->findings.empty();
  if (max_allows >= 0 &&
      report->suppressions_used > static_cast<size_t>(max_allows)) {
    std::fprintf(stderr,
                 "coachlm_lint: suppression budget exceeded: %zu "
                 "COACHLM_LINT_ALLOW in effect, --max-allows %ld\n",
                 report->suppressions_used, max_allows);
    failed = true;
  }
  return failed ? 1 : 0;
}
