#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "json/jsonl.h"
#include "lint/lexer.h"
#include "text/string_util.h"

namespace coachlm {
namespace lint {
namespace {

bool IsSourceExtension(const std::string& path) {
  return strings::EndsWith(path, ".cc") || strings::EndsWith(path, ".cpp") ||
         strings::EndsWith(path, ".h") || strings::EndsWith(path, ".hpp");
}

// Fixture snippets keep their real extension in front of ".snippet"
// (e.g. bad_guard.h.snippet), so header-ness and the clock exemption
// survive the rename that hides them from the tree walk.
std::string LogicalPath(const std::string& path) {
  if (strings::EndsWith(path, ".snippet")) {
    return path.substr(0, path.size() - 8);
  }
  return path;
}

bool IsHeaderPath(const std::string& path) {
  return strings::EndsWith(path, ".h") || strings::EndsWith(path, ".hpp");
}

bool IsClockExempt(const std::string& path) {
  return strings::EndsWith(path, "common/clock.h") ||
         strings::EndsWith(path, "common/clock.cc");
}

/// True when \p path lies in the program's src/ tree: of the repo's
/// top-level source directories, the innermost one named in the path is
/// src/ (so tests/lint_fixtures/src/x.cc counts, and a checkout that
/// itself sits under some .../src/ does not pull tests/ in). Program
/// output must not depend on the C locale; tools, tests and benches may.
bool IsProgramSource(const std::string& path) {
  static const std::set<std::string> kTopLevel = {
      "src", "tests", "tools", "bench", "examples", "perfbench"};
  std::string innermost;
  for (const std::string& part : strings::Split(path, '/')) {
    if (kTopLevel.count(part) > 0) innermost = part;
  }
  return innermost == "src";
}

/// The canonical registry sources define every name once, so their own
/// literals are declarations, not call sites to cross-check.
bool IsRegistrySource(const std::string& path) {
  return strings::EndsWith(path, "common/metrics.cc") ||
         strings::EndsWith(path, "common/fault.cc");
}

bool SkippedDirectory(const std::string& name) {
  return strings::StartsWith(name, "build") || name == ".git" ||
         name == "lint_fixtures" || name == "third_party";
}

LintOptions MakeOptions(const std::string& path,
                        const SymbolRegistry& registry) {
  LintOptions options;
  options.registry = registry;
  options.logical_path = LogicalPath(path);
  options.treat_as_header = IsHeaderPath(options.logical_path);
  options.clock_exempt = IsClockExempt(options.logical_path);
  return options;
}

/// "serve.accept" -> "kServeAccept": the FaultSite enum-constant spelling
/// of a canonical site name, so a site referenced only through the enum
/// (the common case — string names are for CLI specs and metric labels)
/// still counts as used.
std::string FaultSiteEnumIdent(const std::string& name) {
  std::string ident = "k";
  bool upper = true;
  for (const char c : name) {
    if (c == '.' || c == '_' || c == '-') {
      upper = true;
      continue;
    }
    ident += upper ? static_cast<char>(std::toupper(
                         static_cast<unsigned char>(c)))
                   : c;
    upper = false;
  }
  return ident;
}

bool ContainsWord(const std::string& code, const std::string& word) {
  for (size_t pos = code.find(word); pos != std::string::npos;
       pos = code.find(word, pos + 1)) {
    if (IsWordAt(code, pos, word)) return true;
  }
  return false;
}

/// Reverse registry drift: names registered in the canonical source that no
/// scanned file references. A name counts as used when a literal matches
/// it exactly, or when a dot-terminated literal is a prefix of it — the
/// `"runtime.quarantined." + FaultSiteToString(site)` construction pattern.
void AppendUnusedNameWarnings(
    const std::map<std::string, RegisteredName>& names,
    const std::string& registry_path, const char* kind,
    const char* fix_hint, const std::set<std::string>& used_literals,
    const std::vector<std::string>& used_prefixes,
    std::vector<Finding>* warnings) {
  for (const auto& [name, registered] : names) {
    if (used_literals.count(name) > 0) continue;
    bool prefixed = false;
    for (const std::string& prefix : used_prefixes) {
      if (name.size() > prefix.size() &&
          name.compare(0, prefix.size(), prefix) == 0) {
        prefixed = true;
        break;
      }
    }
    if (prefixed) continue;
    warnings->push_back({registry_path, registered.line,
                         kRuleRegistryUnusedName,
                         std::string(kind) + " \"" + name +
                             "\" is registered but never referenced from "
                             "the scanned tree; " + fix_hint});
  }
}

}  // namespace

std::string FormatFinding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

FileReport LintContentReport(const std::string& path,
                             const std::string& content,
                             const LintOptions& options) {
  const std::vector<std::string> raw_lines = SplitRawLines(content);
  const std::string code =
      BlankPreprocessor(StripCommentsAndStrings(content));
  const LineIndex lines(code);
  std::vector<Finding> findings;
  CheckBannedSymbols(path, code, lines, &findings);
  if (!options.clock_exempt) {
    CheckRawClock(path, code, lines, &findings);
  }
  if (IsProgramSource(options.logical_path)) {
    CheckLocaleCtype(path, code, lines, &findings);
  }
  CheckUnorderedSerialization(path, code, lines, options.registry, &findings);
  CheckUnsafeFunctions(path, code, lines, &findings);
  CheckDiscardedStatus(path, code, raw_lines, lines, options.registry,
                       &findings);
  CheckIncludeHygiene(path, raw_lines, options.treat_as_header, &findings);
  CheckGuardedFields(path, options.logical_path, code, lines,
                     options.registry, &findings);
  CheckCancellationPropagation(path, code, lines, options.registry,
                               &findings);
  if (!IsRegistrySource(options.logical_path)) {
    // The registry pass reads literals, which the other passes never see.
    const std::string code_with_strings = StripComments(content);
    const LineIndex string_lines(code_with_strings);
    CheckRegistryNames(path, code_with_strings, string_lines,
                       options.registry, &findings);
  }
  SuppressionOutcome outcome =
      ApplySuppressions(std::move(findings), raw_lines);
  FileReport report;
  report.findings = std::move(outcome.findings);
  report.suppressions_used = outcome.suppressions_used;
  std::sort(report.findings.begin(), report.findings.end());
  report.findings.erase(
      std::unique(report.findings.begin(), report.findings.end()),
      report.findings.end());
  return report;
}

std::vector<Finding> LintContent(const std::string& path,
                                 const std::string& content,
                                 const LintOptions& options) {
  return LintContentReport(path, content, options).findings;
}

Result<std::vector<Finding>> LintFile(const std::string& path,
                                      const SymbolRegistry& registry) {
  auto content = json::ReadFile(path);
  if (!content.ok()) return content.status();
  LintOptions options = MakeOptions(path, registry);
  HarvestDeclarations(*content, &options.registry, /*include_locals=*/true,
                      options.logical_path);
  return LintContent(path, *content, options);
}

Result<TreeReport> LintTree(const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code ec;
  for (const std::string& root : roots) {
    const fs::file_status status = fs::status(root, ec);
    if (ec || !fs::exists(status)) {
      return Status::NotFound("lint root not found: " + root);
    }
    if (fs::is_regular_file(status)) {
      files.push_back(root);
      continue;
    }
    fs::recursive_directory_iterator it(root, ec), end;
    if (ec) {
      return Status::IoError("cannot walk " + root + ": " + ec.message());
    }
    for (; it != end; it.increment(ec)) {
      if (ec) {
        return Status::IoError("cannot walk " + root + ": " + ec.message());
      }
      const fs::directory_entry& entry = *it;
      if (entry.is_directory() &&
          SkippedDirectory(entry.path().filename().string())) {
        it.disable_recursion_pending();
        continue;
      }
      if (!entry.is_regular_file()) continue;
      const std::string path = entry.path().generic_string();
      if (IsSourceExtension(path)) files.push_back(path);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Pass 1: harvest every file so cross-file calls resolve (a .cc calling
  // a Status API declared in another header), guarded-field annotations
  // bind to their declaring file, and the canonical name registries load.
  SymbolRegistry registry;
  std::map<std::string, std::string> contents;
  std::string metric_registry_path, fault_registry_path;
  for (const std::string& file : files) {
    auto content = json::ReadFile(file);
    if (!content.ok()) return content.status();
    const std::string logical = LogicalPath(file);
    HarvestDeclarations(*content, &registry, /*include_locals=*/false,
                        logical);
    HarvestNameRegistries(logical, *content, &registry);
    if (strings::EndsWith(logical, "common/metrics.cc")) {
      metric_registry_path = file;
    } else if (strings::EndsWith(logical, "common/fault.cc")) {
      fault_registry_path = file;
    }
    contents.emplace(file, std::move(*content));
  }
  // Pass 2: lint, with each file's own locals layered on the shared
  // registry; collect the literal pool for the reverse-drift warnings.
  TreeReport report;
  report.files_scanned = files.size();
  std::set<std::string> used_literals;
  std::vector<std::string> used_prefixes;
  std::set<std::string> enum_used_fault_sites;
  for (const std::string& file : files) {
    LintOptions options = MakeOptions(file, registry);
    HarvestDeclarations(contents[file], &options.registry,
                        /*include_locals=*/true, options.logical_path);
    const FileReport file_report =
        LintContentReport(file, contents[file], options);
    report.findings.insert(report.findings.end(),
                           file_report.findings.begin(),
                           file_report.findings.end());
    report.suppressions_used += file_report.suppressions_used;
    if (!IsRegistrySource(options.logical_path)) {
      const std::string with_strings = StripComments(contents[file]);
      for (const StringLiteral& literal :
           ExtractStringLiterals(with_strings)) {
        used_literals.insert(literal.value);
        if (!literal.value.empty() && literal.value.back() == '.') {
          used_prefixes.push_back(literal.value);
        }
      }
      // Fault sites are mostly referenced via FaultSite::kFoo enum
      // constants, not strings. Count those as uses — except inside the
      // enum's own declaring header, which names every constant by
      // definition.
      if (!strings::EndsWith(options.logical_path, "common/fault.h")) {
        for (const auto& [name, registered] : registry.fault_sites) {
          if (enum_used_fault_sites.count(name) > 0) continue;
          if (ContainsWord(with_strings, FaultSiteEnumIdent(name))) {
            enum_used_fault_sites.insert(name);
          }
        }
      }
    }
  }
  if (registry.metric_registry_loaded && !metric_registry_path.empty()) {
    AppendUnusedNameWarnings(
        registry.metric_names, metric_registry_path, "metric",
        "remove the MetricCatalog row or wire up the instrument",
        used_literals, used_prefixes, &report.warnings);
  }
  if (registry.fault_registry_loaded && !fault_registry_path.empty()) {
    std::set<std::string> fault_used = used_literals;
    fault_used.insert(enum_used_fault_sites.begin(),
                      enum_used_fault_sites.end());
    AppendUnusedNameWarnings(
        registry.fault_sites, fault_registry_path, "fault-site name",
        "remove the kSiteNames entry or reference the site (string or "
        "FaultSite:: enum use both count)",
        fault_used, used_prefixes, &report.warnings);
  }
  std::sort(report.findings.begin(), report.findings.end());
  std::sort(report.warnings.begin(), report.warnings.end());
  return report;
}

}  // namespace lint
}  // namespace coachlm
