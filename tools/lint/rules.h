#ifndef COACHLM_TOOLS_LINT_RULES_H_
#define COACHLM_TOOLS_LINT_RULES_H_

#include <set>
#include <string>
#include <vector>

#include "lint/lexer.h"
#include "lint/registry.h"

namespace coachlm {
namespace lint {

/// \name Rule identifiers.
///
/// The repo's machine-checked contracts — byte-identical determinism under
/// any thread count / fault plan / resume, typed-Status error propagation,
/// lock discipline over annotated shared state, canonical metric/fault-site
/// names, and cancellation propagation — are enforced by these rules; the
/// remaining ones keep the tree free of the C footguns and include drift
/// that erode them over time.
/// @{
inline constexpr char kRuleBannedSymbol[] = "determinism-banned-symbol";
inline constexpr char kRuleRawClock[] = "determinism-raw-clock";
inline constexpr char kRuleLocaleCtype[] = "determinism-locale-ctype";
inline constexpr char kRuleUnorderedSerialization[] =
    "determinism-unordered-serialization";
inline constexpr char kRuleDiscardedStatus[] = "error-discarded-status";
inline constexpr char kRuleUnsafeFn[] = "banned-unsafe-fn";
inline constexpr char kRuleIncludeHygiene[] = "include-hygiene";
inline constexpr char kRuleSuppressionJustification[] =
    "suppression-missing-justification";
inline constexpr char kRuleGuardedField[] = "concurrency-guarded-field";
inline constexpr char kRuleRegistryUnknownName[] = "registry-unknown-name";
inline constexpr char kRuleRegistryUnusedName[] = "registry-unused-name";
inline constexpr char kRuleCancelUncheckedLoop[] = "cancel-unchecked-loop";
/// @}

/// \brief One lint hit: a rule violated at a specific source location.
struct Finding {
  std::string file;
  size_t line = 0;  ///< 1-based.
  std::string rule;
  std::string message;

  bool operator==(const Finding& other) const {
    return file == other.file && line == other.line && rule == other.rule &&
           message == other.message;
  }
  bool operator<(const Finding& other) const {
    if (file != other.file) return file < other.file;
    if (line != other.line) return line < other.line;
    if (rule != other.rule) return rule < other.rule;
    return message < other.message;
  }
};

/// \name Rule passes.
///
/// Each pass appends findings for one rule family. \p code is the
/// comment/string-stripped, preprocessor-blanked source; \p raw_lines the
/// original lines (for suppressions, comments, and includes); \p lines
/// maps offsets in \p code back to 1-based line numbers.
/// @{
void CheckBannedSymbols(const std::string& path, const std::string& code,
                        const LineIndex& lines,
                        std::vector<Finding>* findings);

void CheckRawClock(const std::string& path, const std::string& code,
                   const LineIndex& lines, std::vector<Finding>* findings);

/// `<cctype>` classification and case mapping (isspace, tolower, ...)
/// consults LC_CTYPE and is an out-of-line library call per byte; program
/// code classifies bytes through text/ascii.h instead. The driver runs
/// this pass on files under src/ only.
void CheckLocaleCtype(const std::string& path, const std::string& code,
                      const LineIndex& lines, std::vector<Finding>* findings);

void CheckUnorderedSerialization(const std::string& path,
                                 const std::string& code,
                                 const LineIndex& lines,
                                 const SymbolRegistry& registry,
                                 std::vector<Finding>* findings);

void CheckUnsafeFunctions(const std::string& path, const std::string& code,
                          const LineIndex& lines,
                          std::vector<Finding>* findings);

void CheckDiscardedStatus(const std::string& path, const std::string& code,
                          const std::vector<std::string>& raw_lines,
                          const LineIndex& lines,
                          const SymbolRegistry& registry,
                          std::vector<Finding>* findings);

void CheckIncludeHygiene(const std::string& path,
                         const std::vector<std::string>& raw_lines,
                         bool treat_as_header,
                         std::vector<Finding>* findings);

/// Lock discipline over COACHLM_GUARDED_BY fields: every read/write of an
/// annotated field must sit inside a lexical lock scope of its mutex — a
/// lock_guard / unique_lock / scoped_lock constructed on the mutex earlier
/// in the same brace scope — or inside a function annotated
/// COACHLM_REQUIRES(mutex). Only fields declared in \p logical_path or its
/// header/source partner are checked (guarded fields are private members).
void CheckGuardedFields(const std::string& path,
                        const std::string& logical_path,
                        const std::string& code, const LineIndex& lines,
                        const SymbolRegistry& registry,
                        std::vector<Finding>* findings);

/// Registry drift, forward direction: a string literal passed to a
/// metric/fault-site call (CountMetric, ObserveMetric, FindCounter,
/// FaultSiteFromString, ...) that is absent from the canonical registry is
/// a finding — at runtime it would degrade to a silent no-op.
/// \p code_with_strings is comment-stripped but keeps literals.
void CheckRegistryNames(const std::string& path,
                        const std::string& code_with_strings,
                        const LineIndex& lines,
                        const SymbolRegistry& registry,
                        std::vector<Finding>* findings);

/// Cancellation propagation: a function that accepts a CancelToken /
/// Deadline parameter and contains a loop doing runtime work (a
/// Status-returning call or a ParallelFor/RetryWithBackoff-style
/// primitive) must consult or forward the token inside the loop.
void CheckCancellationPropagation(const std::string& path,
                                  const std::string& code,
                                  const LineIndex& lines,
                                  const SymbolRegistry& registry,
                                  std::vector<Finding>* findings);
/// @}

/// \brief Outcome of applying `// COACHLM_LINT_ALLOW(rule): why`
/// suppressions to a file's raw findings.
struct SuppressionOutcome {
  std::vector<Finding> findings;  ///< Survivors (plus bare-ALLOW findings).
  size_t suppressions_used = 0;   ///< Findings waived by a justified ALLOW.
};

/// Drops findings whose line (or the line above) carries a justified
/// ALLOW for their rule; an ALLOW with an empty justification becomes a
/// suppression-missing-justification finding instead.
SuppressionOutcome ApplySuppressions(std::vector<Finding> findings,
                                     const std::vector<std::string>& raw_lines);

}  // namespace lint
}  // namespace coachlm

#endif  // COACHLM_TOOLS_LINT_RULES_H_
