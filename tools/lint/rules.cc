#include "lint/rules.h"

#include <algorithm>
#include <map>

#include "text/string_util.h"

namespace coachlm {
namespace lint {
namespace {

/// If \p stmt (already trimmed) is a pure call-expression statement —
/// `a::b->c.Name(...)` spanning the whole statement — returns `Name`;
/// otherwise returns "".
std::string CalledName(const std::string& stmt) {
  if (stmt.empty() || !strings::EndsWith(stmt, ")")) return "";
  size_t pos = 0;
  std::string last;
  while (true) {
    pos = SkipSpaces(stmt, pos);
    size_t end = 0;
    const std::string ident = ReadIdent(stmt, pos, &end);
    if (ident.empty()) return "";
    last = ident;
    pos = SkipSpaces(stmt, end);
    if (pos >= stmt.size()) return "";
    if (stmt[pos] == '<') {
      // Template arguments before the call, e.g. Get<int>(...).
      const size_t after = SkipAngles(stmt, pos);
      if (after == std::string::npos) return "";
      pos = SkipSpaces(stmt, after);
      if (pos >= stmt.size()) return "";
    }
    if (stmt[pos] == '(') {
      const size_t after = SkipBalanced(stmt, pos, '(', ')');
      if (after == std::string::npos) return "";
      // The call must cover the rest of the statement; anything trailing
      // (operators, member chains) means the value is consumed.
      return SkipSpaces(stmt, after) >= stmt.size() ? last : "";
    }
    if (stmt.compare(pos, 2, "::") == 0 || stmt.compare(pos, 2, "->") == 0) {
      pos += 2;
    } else if (stmt[pos] == '.') {
      pos += 1;
    } else {
      return "";
    }
  }
}

/// True when the raw source line carries a non-empty // comment (the
/// justification requirement for (void)-discarded Status values).
bool HasExplainingComment(const std::vector<std::string>& raw_lines,
                          size_t line /*1-based*/) {
  auto line_has = [&](size_t idx) {
    if (idx == 0 || idx > raw_lines.size()) return false;
    const std::string& text = raw_lines[idx - 1];
    const size_t pos = text.find("//");
    if (pos == std::string::npos) return false;
    return !strings::Trim(text.substr(pos + 2)).empty();
  };
  return line_has(line) || (line > 1 && line_has(line - 1));
}

struct Suppression {
  std::set<std::string> rules;
  bool has_justification = false;
};

/// Parses `COACHLM_LINT_ALLOW(rule[,rule...]): justification` out of a raw
/// source line, if present.
bool ParseSuppression(const std::string& raw_line, Suppression* out) {
  static const std::string kMarker = "COACHLM_LINT_ALLOW(";
  const size_t pos = raw_line.find(kMarker);
  if (pos == std::string::npos) return false;
  const size_t open = pos + kMarker.size() - 1;
  const size_t close = raw_line.find(')', open);
  if (close == std::string::npos) return false;
  out->rules.clear();
  for (const std::string& rule :
       strings::Split(raw_line.substr(open + 1, close - open - 1), ',')) {
    const std::string trimmed = strings::Trim(rule);
    if (!trimmed.empty()) out->rules.insert(trimmed);
  }
  out->has_justification = false;
  const size_t after = SkipSpaces(raw_line, close + 1);
  if (after < raw_line.size() && raw_line[after] == ':') {
    out->has_justification =
        !strings::Trim(raw_line.substr(after + 1)).empty();
  }
  return !out->rules.empty();
}

/// Path without its final extension: "src/common/checkpoint.cc" ->
/// "src/common/checkpoint", so a header and its source pair to one stem.
std::string PathStem(const std::string& path) {
  const size_t dot = path.rfind('.');
  const size_t slash = path.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path;
  }
  return path.substr(0, dot);
}

/// True when \p word occurs in \p text with identifier boundaries.
bool ContainsWord(const std::string& text, const std::string& word) {
  for (size_t pos = text.find(word); pos != std::string::npos;
       pos = text.find(word, pos + 1)) {
    if (IsWordAt(text, pos, word)) return true;
  }
  return false;
}

/// \brief A byte range of \p code within which \p keys are held.
///
/// Lock scopes are lexical: a lock_guard/unique_lock/scoped_lock
/// declaration covers from its statement to the end of the enclosing brace
/// scope, and a COACHLM_REQUIRES(mu) annotation covers the whole function
/// body. unique_lock::unlock() is invisible to this approximation — the
/// clang -Wthread-safety build is the precise backstop.
struct LockRegion {
  size_t begin = 0;
  size_t end = 0;
  std::set<std::string> keys;
};

/// Finds lock_guard/unique_lock/scoped_lock/shared_lock declarations and
/// COACHLM_REQUIRES annotations in \p code.
std::vector<LockRegion> BuildLockRegions(const std::string& code) {
  std::vector<LockRegion> regions;
  static const char* kLockTypes[] = {"lock_guard", "unique_lock",
                                     "scoped_lock", "shared_lock"};
  for (const char* type : kLockTypes) {
    const std::string word = type;
    for (size_t pos = code.find(word); pos != std::string::npos;
         pos = code.find(word, pos + 1)) {
      if (!IsWordAt(code, pos, word)) continue;
      size_t cursor = SkipSpaces(code, pos + word.size());
      if (cursor < code.size() && code[cursor] == '<') {
        const size_t after = SkipAngles(code, cursor);
        if (after == std::string::npos) continue;
        cursor = SkipSpaces(code, after);
      }
      size_t end = 0;
      const std::string name = ReadIdent(code, cursor, &end);
      if (name.empty()) continue;  // a type mention, not a declaration
      cursor = SkipSpaces(code, end);
      if (cursor >= code.size() ||
          (code[cursor] != '(' && code[cursor] != '{')) {
        continue;
      }
      const char open = code[cursor];
      const char close = open == '(' ? ')' : '}';
      const size_t args_end = SkipBalanced(code, cursor, open, close);
      if (args_end == std::string::npos) continue;
      LockRegion region;
      region.begin = args_end;
      region.end = EnclosingScopeEnd(code, pos);
      region.keys =
          IdentifierWords(code.substr(cursor + 1, args_end - cursor - 2));
      if (!region.keys.empty()) regions.push_back(std::move(region));
    }
  }
  static const std::string kRequires = "COACHLM_REQUIRES";
  for (size_t pos = code.find(kRequires); pos != std::string::npos;
       pos = code.find(kRequires, pos + 1)) {
    if (!IsWordAt(code, pos, kRequires)) continue;
    const size_t open = SkipSpaces(code, pos + kRequires.size());
    if (open >= code.size() || code[open] != '(') continue;
    const size_t args_end = SkipBalanced(code, open, '(', ')');
    if (args_end == std::string::npos) continue;
    // Walk forward past trailing qualifiers to the function body; a ';'
    // means this is a declaration with no body here.
    size_t cursor = args_end;
    size_t body_open = std::string::npos;
    for (int steps = 0; steps < 16 && cursor < code.size(); ++steps) {
      cursor = SkipSpaces(code, cursor);
      if (cursor >= code.size()) break;
      const char c = code[cursor];
      if (c == '{') {
        body_open = cursor;
        break;
      }
      if (c == ';') break;
      if (IsIdentChar(c)) {
        size_t end = 0;
        ReadIdent(code, cursor, &end);
        cursor = end > cursor ? end : cursor + 1;
      } else if (c == '(') {
        const size_t after = SkipBalanced(code, cursor, '(', ')');
        if (after == std::string::npos) break;
        cursor = after;
      } else {
        ++cursor;
      }
    }
    if (body_open == std::string::npos) continue;
    const size_t body_close = SkipBalanced(code, body_open, '{', '}');
    LockRegion region;
    region.begin = body_open;
    region.end = body_close == std::string::npos ? code.size() : body_close;
    region.keys =
        IdentifierWords(code.substr(open + 1, args_end - open - 2));
    if (!region.keys.empty()) regions.push_back(std::move(region));
  }
  return regions;
}

/// Runtime primitives whose presence makes a loop "work" for the
/// cancel-unchecked-loop rule, beyond any Status/Result-returning call.
const std::set<std::string>& CancelWorkPrimitives() {
  static const std::set<std::string> kSet = {
      "ParallelFor",          "ParallelForStatus",
      "ParallelMap",          "ParallelMapStatus",
      "ParallelReduce",       "RetryWithBackoff",
      "RunItemLoop",          "Inject",
  };
  return kSet;
}

}  // namespace

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

void CheckBannedSymbols(const std::string& path, const std::string& code,
                        const LineIndex& lines,
                        std::vector<Finding>* findings) {
  struct Banned {
    const char* word;
    bool call_only;  // require a following '('
    const char* message;
  };
  static const Banned kBanned[] = {
      {"random_device", false,
       "std::random_device is nondeterministic; derive streams from the run "
       "seed via DeriveRng (common/rng.h)"},
      {"rand", true,
       "rand() is nondeterministic across platforms; use the seeded Rng "
       "streams from common/rng.h"},
      {"srand", true,
       "srand() seeds hidden global state; use per-item DeriveRng streams "
       "instead"},
      {"time", true,
       "time() reads the wall clock; inject a Clock (common/clock.h) so the "
       "call is fake-clock-testable"},
  };
  for (const Banned& banned : kBanned) {
    const std::string word = banned.word;
    for (size_t pos = code.find(word); pos != std::string::npos;
         pos = code.find(word, pos + 1)) {
      if (!IsWordAt(code, pos, word)) continue;
      if (banned.call_only) {
        const size_t next = SkipSpaces(code, pos + word.size());
        if (next >= code.size() || code[next] != '(') continue;
      }
      findings->push_back({path, lines.LineAt(pos), kRuleBannedSymbol,
                           banned.message});
    }
  }
  // Unseeded std::mt19937: a declaration with no constructor argument
  // falls back to the default seed on every platform differently enough
  // to matter — and hides the stream from the replay machinery.
  for (const std::string& engine : {std::string("mt19937"),
                                    std::string("mt19937_64")}) {
    for (size_t pos = code.find(engine); pos != std::string::npos;
         pos = code.find(engine, pos + 1)) {
      if (!IsWordAt(code, pos, engine)) continue;
      size_t cursor = SkipSpaces(code, pos + engine.size());
      if (cursor < code.size() &&
          (code[cursor] == '>' || code[cursor] == '*' || code[cursor] == '&' ||
           code[cursor] == ',' || code[cursor] == ')' ||
           code[cursor] == ':')) {
        continue;  // template argument, pointer/ref type, or qualifier use
      }
      size_t end = 0;
      const std::string name = ReadIdent(code, cursor, &end);
      if (!name.empty()) cursor = SkipSpaces(code, end);
      bool unseeded = false;
      if (cursor < code.size() && code[cursor] == ';') {
        unseeded = !name.empty();
      } else if (cursor < code.size() &&
                 (code[cursor] == '(' || code[cursor] == '{')) {
        const char open = code[cursor];
        const char close = open == '(' ? ')' : '}';
        const size_t inner = SkipSpaces(code, cursor + 1);
        unseeded = inner < code.size() && code[inner] == close;
      }
      if (unseeded) {
        findings->push_back(
            {path, lines.LineAt(pos), kRuleBannedSymbol,
             "unseeded std::" + engine +
                 " uses the default seed; seed it from a DeriveRng stream"});
      }
    }
  }
}

void CheckRawClock(const std::string& path, const std::string& code,
                   const LineIndex& lines, std::vector<Finding>* findings) {
  static const char* kClocks[] = {"steady_clock", "system_clock",
                                  "high_resolution_clock"};
  for (const char* clock : kClocks) {
    const std::string word = clock;
    for (size_t pos = code.find(word); pos != std::string::npos;
         pos = code.find(word, pos + 1)) {
      if (!IsWordAt(code, pos, word)) continue;
      size_t cursor = SkipSpaces(code, pos + word.size());
      if (code.compare(cursor, 2, "::") != 0) continue;
      cursor = SkipSpaces(code, cursor + 2);
      if (!IsWordAt(code, cursor, "now")) continue;
      cursor = SkipSpaces(code, cursor + 3);
      if (cursor >= code.size() || code[cursor] != '(') continue;
      findings->push_back(
          {path, lines.LineAt(pos), kRuleRawClock,
           std::string(clock) +
               "::now() bypasses the injectable Clock; call "
               "Clock::System()->NowMicros() (common/clock.h) so tests can "
               "substitute a FakeClock"});
    }
  }
}

void CheckLocaleCtype(const std::string& path, const std::string& code,
                      const LineIndex& lines, std::vector<Finding>* findings) {
  static const char* kCtype[] = {"isspace", "isalpha", "isdigit",
                                 "ispunct", "isalnum", "isupper",
                                 "islower", "tolower", "toupper"};
  for (const char* fn : kCtype) {
    const std::string word = fn;
    for (size_t pos = code.find(word); pos != std::string::npos;
         pos = code.find(word, pos + 1)) {
      if (!IsWordAt(code, pos, word)) continue;
      const size_t next = SkipSpaces(code, pos + word.size());
      if (next >= code.size() || code[next] != '(') continue;
      findings->push_back({path, lines.LineAt(pos), kRuleLocaleCtype,
                           word +
                               "() depends on LC_CTYPE and is a library "
                               "call per byte; use the ascii:: byte classes "
                               "(text/ascii.h)"});
    }
  }
}

void CheckUnorderedSerialization(const std::string& path,
                                 const std::string& code,
                                 const LineIndex& lines,
                                 const SymbolRegistry& registry,
                                 std::vector<Finding>* findings) {
  static const char* kSinks[] = {"<<",           ".append(", "push_back(",
                                 "emplace_back(", "+=",       "WriteFile",
                                 "SaveJsonl",     "Serialize", "ToJson"};
  for (size_t pos = code.find("for"); pos != std::string::npos;
       pos = code.find("for", pos + 1)) {
    if (!IsWordAt(code, pos, "for")) continue;
    const size_t open = SkipSpaces(code, pos + 3);
    if (open >= code.size() || code[open] != '(') continue;
    const size_t after = SkipBalanced(code, open, '(', ')');
    if (after == std::string::npos) continue;
    const std::string header = code.substr(open + 1, after - open - 2);
    // Locate the range-for ':' at top level (':' but not '::').
    size_t colon = std::string::npos;
    int depth = 0;
    for (size_t i = 0; i < header.size(); ++i) {
      const char c = header[i];
      if (c == '(' || c == '<' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == '>' || c == ']' || c == '}') --depth;
      if (c == ':' && depth == 0) {
        const bool double_colon =
            (i + 1 < header.size() && header[i + 1] == ':') ||
            (i > 0 && header[i - 1] == ':');
        if (!double_colon) {
          colon = i;
          break;
        }
      }
    }
    if (colon == std::string::npos) continue;
    const std::string range = header.substr(colon + 1);
    bool unordered = range.find("unordered_") != std::string::npos;
    for (const std::string& symbol : registry.unordered_symbols) {
      if (unordered) break;
      if (ContainsWord(range, symbol)) unordered = true;
    }
    if (!unordered) continue;
    // Body extent: a braced block or a single statement.
    size_t body_begin = SkipSpaces(code, after);
    size_t body_end;
    if (body_begin < code.size() && code[body_begin] == '{') {
      body_end = SkipBalanced(code, body_begin, '{', '}');
      if (body_end == std::string::npos) continue;
    } else {
      body_end = code.find(';', body_begin);
      if (body_end == std::string::npos) continue;
    }
    const std::string body = code.substr(body_begin, body_end - body_begin);
    for (const char* sink : kSinks) {
      if (body.find(sink) != std::string::npos) {
        findings->push_back(
            {path, lines.LineAt(pos), kRuleUnorderedSerialization,
             "iteration order of an unordered container reaches an "
             "order-sensitive sink ('" + std::string(sink) +
                 "'); copy to a sorted container first or justify with "
                 "COACHLM_LINT_ALLOW"});
        break;
      }
    }
  }
}

void CheckUnsafeFunctions(const std::string& path, const std::string& code,
                          const LineIndex& lines,
                          std::vector<Finding>* findings) {
  struct Unsafe {
    const char* name;
    const char* replacement;
  };
  static const Unsafe kUnsafe[] = {
      {"strcpy", "std::string assignment"},
      {"sprintf", "std::snprintf or std::string formatting"},
      {"atoi", "ParseInt with a typed Status (flags.cc idiom)"},
      {"gets", "std::getline"},
  };
  for (const Unsafe& fn : kUnsafe) {
    const std::string word = fn.name;
    for (size_t pos = code.find(word); pos != std::string::npos;
         pos = code.find(word, pos + 1)) {
      if (!IsWordAt(code, pos, word)) continue;
      const size_t next = SkipSpaces(code, pos + word.size());
      if (next >= code.size() || code[next] != '(') continue;
      findings->push_back({path, lines.LineAt(pos), kRuleUnsafeFn,
                           word + "() is unbounded/untyped; use " +
                               fn.replacement});
    }
  }
}

void CheckDiscardedStatus(const std::string& path, const std::string& code,
                          const std::vector<std::string>& raw_lines,
                          const LineIndex& lines,
                          const SymbolRegistry& registry,
                          std::vector<Finding>* findings) {
  int paren = 0;
  size_t stmt_start = std::string::npos;
  auto process = [&](size_t begin, size_t end) {
    const std::string stmt = strings::Trim(code.substr(begin, end - begin));
    if (stmt.empty()) return;
    size_t ident_end = 0;
    const std::string first = ReadIdent(stmt, 0, &ident_end);
    if (!first.empty() && StatementKeywords().count(first) > 0) return;
    std::string rest = stmt;
    bool voided = false;
    if (stmt[0] == '(') {
      // A leading (void) cast marks an intentional drop — but only with an
      // adjacent comment saying why.
      const size_t cast_end = SkipBalanced(stmt, 0, '(', ')');
      if (cast_end == std::string::npos) return;
      if (strings::Trim(stmt.substr(1, cast_end - 2)) != "void") return;
      voided = true;
      rest = strings::Trim(stmt.substr(cast_end));
    }
    const std::string called = CalledName(rest);
    if (called.empty() || registry.status_functions.count(called) == 0) {
      return;
    }
    // A name also declared with a void return somewhere is ambiguous under
    // name-keyed matching (e.g. StallWatchdog::Start vs
    // WorkerSupervisor::Start); skip it — [[nodiscard]] Status + -Werror
    // still catches genuine drops of the Status overload at compile time.
    if (registry.void_functions.count(called) > 0) return;
    const size_t line = lines.LineAt(begin);
    if (!voided) {
      findings->push_back(
          {path, line, kRuleDiscardedStatus,
           "return value of '" + called +
               "' (Status/Result) is silently discarded; handle it, "
               "COACHLM_RETURN_NOT_OK it, or cast to (void) with a comment "
               "explaining why the drop is safe"});
    } else if (!HasExplainingComment(raw_lines, line)) {
      findings->push_back(
          {path, line, kRuleDiscardedStatus,
           "(void)-discarded Status/Result of '" + called +
               "' needs an adjacent comment explaining why the drop is "
               "safe"});
    }
  };
  for (size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (IsSpaceChar(c)) continue;
    if (stmt_start == std::string::npos && paren == 0 && c != ';' &&
        c != '{' && c != '}') {
      stmt_start = i;
    }
    if (c == '(' || c == '[') ++paren;
    if ((c == ')' || c == ']') && paren > 0) --paren;
    if (paren == 0 && (c == ';' || c == '{' || c == '}')) {
      if (c == ';' && stmt_start != std::string::npos) {
        process(stmt_start, i);
      }
      stmt_start = std::string::npos;
    }
  }
}

void CheckIncludeHygiene(const std::string& path,
                         const std::vector<std::string>& raw_lines,
                         bool treat_as_header,
                         std::vector<Finding>* findings) {
  // C headers with C++ replacements; <cstdio> et al. keep symbols in std::.
  static const std::map<std::string, std::string> kCHeaders = {
      {"assert.h", "cassert"}, {"ctype.h", "cctype"},
      {"errno.h", "cerrno"},   {"float.h", "cfloat"},
      {"limits.h", "climits"}, {"math.h", "cmath"},
      {"signal.h", "csignal"}, {"stdarg.h", "cstdarg"},
      {"stddef.h", "cstddef"}, {"stdint.h", "cstdint"},
      {"stdio.h", "cstdio"},   {"stdlib.h", "cstdlib"},
      {"string.h", "cstring"}, {"time.h", "ctime"},
  };
  std::map<std::string, size_t> seen_includes;
  std::string guard;
  size_t guard_line = 0;
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    const std::string line = strings::Trim(raw_lines[i]);
    if (guard.empty() && strings::StartsWith(line, "#ifndef ")) {
      guard = strings::Trim(line.substr(8));
      guard_line = i + 1;
    }
    if (!strings::StartsWith(line, "#include")) continue;
    const std::string target = strings::Trim(line.substr(8));
    if (target.empty()) continue;
    auto duplicate = seen_includes.find(target);
    if (duplicate != seen_includes.end()) {
      findings->push_back({path, i + 1, kRuleIncludeHygiene,
                           "duplicate #include of " + target +
                               " (first at line " +
                               std::to_string(duplicate->second) + ")"});
    } else {
      seen_includes.emplace(target, i + 1);
    }
    if (target.size() > 2 && target.front() == '<') {
      const std::string name = target.substr(1, target.find('>') - 1);
      auto c_header = kCHeaders.find(name);
      if (c_header != kCHeaders.end()) {
        findings->push_back({path, i + 1, kRuleIncludeHygiene,
                             "C header <" + name + "> pollutes the global "
                             "namespace; include <" + c_header->second +
                                 "> instead"});
      }
    }
  }
  if (treat_as_header) {
    if (guard.empty()) {
      findings->push_back({path, 1, kRuleIncludeHygiene,
                           "header is missing a COACHLM_*_H_ include "
                           "guard"});
    } else if (!strings::StartsWith(guard, "COACHLM_") ||
               !strings::EndsWith(guard, "_H_")) {
      findings->push_back({path, guard_line, kRuleIncludeHygiene,
                           "include guard '" + guard +
                               "' must match COACHLM_<PATH>_H_"});
    }
  }
}

void CheckGuardedFields(const std::string& path,
                        const std::string& logical_path,
                        const std::string& code, const LineIndex& lines,
                        const SymbolRegistry& registry,
                        std::vector<Finding>* findings) {
  if (registry.guarded_fields.empty()) return;
  const std::string stem = PathStem(logical_path);
  std::vector<LockRegion> regions;
  bool regions_built = false;
  for (const auto& [field, guarded] : registry.guarded_fields) {
    // Guarded fields are private members: only the declaring file and its
    // header/source partner can legally name them, so other files are
    // skipped rather than risking a name-collision false positive.
    if (PathStem(guarded.declared_in) != stem) continue;
    if (!regions_built) {
      regions = BuildLockRegions(code);
      regions_built = true;
    }
    for (size_t pos = code.find(field); pos != std::string::npos;
         pos = code.find(field, pos + 1)) {
      if (!IsWordAt(code, pos, field)) continue;
      const size_t after = SkipSpaces(code, pos + field.size());
      // The declaration site itself: `type field COACHLM_GUARDED_BY(mu);`.
      if (IsWordAt(code, after, "COACHLM_GUARDED_BY")) continue;
      // Constructor member-init list: `: field_(...)` / `, field_{...}` —
      // construction precedes sharing, so no lock is required yet.
      size_t before = pos;
      while (before > 0 && IsSpaceChar(code[before - 1])) --before;
      const char prev = before > 0 ? code[before - 1] : '\0';
      const char next = after < code.size() ? code[after] : '\0';
      if ((prev == ':' || prev == ',') && (next == '(' || next == '{') &&
          !(before > 1 && code[before - 2] == ':')) {
        continue;
      }
      bool covered = false;
      for (const LockRegion& region : regions) {
        if (region.begin <= pos && pos < region.end &&
            region.keys.count(guarded.mutex_key) > 0) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        findings->push_back(
            {path, lines.LineAt(pos), kRuleGuardedField,
             "field '" + field + "' is COACHLM_GUARDED_BY(" +
                 guarded.mutex_key +
                 ") but is accessed outside a lexical lock scope; hold a "
                 "lock_guard/unique_lock on '" + guarded.mutex_key +
                 "' in this scope or annotate the function COACHLM_REQUIRES(" +
                 guarded.mutex_key + ")"});
      }
    }
  }
}

void CheckRegistryNames(const std::string& path,
                        const std::string& code_with_strings,
                        const LineIndex& lines,
                        const SymbolRegistry& registry,
                        std::vector<Finding>* findings) {
  struct CallFamily {
    const char* fn;
    bool metric;  // false = fault site
  };
  static const CallFamily kFamilies[] = {
      {"CountMetric", true},        {"SetGaugeMetric", true},
      {"ObserveMetric", true},      {"FindCounter", true},
      {"FindGauge", true},          {"FindHistogram", true},
      {"FaultSiteFromString", false},
  };
  for (const CallFamily& family : kFamilies) {
    const bool loaded = family.metric ? registry.metric_registry_loaded
                                      : registry.fault_registry_loaded;
    if (!loaded) continue;
    const std::string word = family.fn;
    for (size_t pos = code_with_strings.find(word); pos != std::string::npos;
         pos = code_with_strings.find(word, pos + 1)) {
      if (!IsWordAt(code_with_strings, pos, word)) continue;
      const size_t open = SkipSpaces(code_with_strings, pos + word.size());
      if (open >= code_with_strings.size() ||
          code_with_strings[open] != '(') {
        continue;
      }
      const size_t after = SkipBalanced(code_with_strings, open, '(', ')');
      if (after == std::string::npos) continue;
      const std::string args =
          code_with_strings.substr(open + 1, after - open - 2);
      const std::vector<StringLiteral> literals = ExtractStringLiterals(args);
      if (literals.empty()) continue;  // dynamically-built name
      const std::string& name = literals.front().value;
      const size_t offset = open + 1 + literals.front().offset;
      if (family.metric) {
        if (!name.empty() && name.back() == '.') {
          // A dot-terminated literal is a prefix build:
          // CountMetric("runtime.quarantined." + FaultSiteToString(site)).
          // It is fine as long as some catalog name starts with the prefix;
          // the per-suffix coverage is the runtime debug warning's job.
          bool any_match = false;
          for (const auto& entry : registry.metric_names) {
            if (entry.first.compare(0, name.size(), name) == 0) {
              any_match = true;
              break;
            }
          }
          if (!any_match) {
            findings->push_back(
                {path, lines.LineAt(offset), kRuleRegistryUnknownName,
                 "no metric in the MetricCatalog (src/common/metrics.cc) "
                 "starts with prefix \"" +
                     name + "\"; every lookup it builds will be a no-op"});
          }
        } else if (registry.metric_names.count(name) == 0) {
          findings->push_back(
              {path, lines.LineAt(offset), kRuleRegistryUnknownName,
               "metric name \"" + name +
                   "\" is not registered in the MetricCatalog "
                   "(src/common/metrics.cc); the lookup degrades to a "
                   "silent no-op at runtime"});
        }
      } else if (registry.fault_sites.count(name) == 0) {
        findings->push_back(
            {path, lines.LineAt(offset), kRuleRegistryUnknownName,
             "fault-site name \"" + name +
                 "\" is not in kSiteNames (src/common/fault.cc); "
                 "FaultSiteFromString will reject it at runtime"});
      }
    }
  }
}

void CheckCancellationPropagation(const std::string& path,
                                  const std::string& code,
                                  const LineIndex& lines,
                                  const SymbolRegistry& registry,
                                  std::vector<Finding>* findings) {
  auto loop_does_work = [&](const std::set<std::string>& words) {
    for (const std::string& word : words) {
      if (CancelWorkPrimitives().count(word) > 0) return true;
      if (registry.status_functions.count(word) > 0) return true;
    }
    return false;
  };
  for (const std::string& type : {std::string("CancelToken"),
                                  std::string("Deadline")}) {
    for (size_t pos = code.find(type); pos != std::string::npos;
         pos = code.find(type, pos + 1)) {
      if (!IsWordAt(code, pos, type)) continue;
      // Parameter name: the identifier after the type (and any * / &).
      size_t cursor = pos + type.size();
      while (cursor < code.size() &&
             (IsSpaceChar(code[cursor]) || code[cursor] == '*' ||
              code[cursor] == '&')) {
        ++cursor;
      }
      size_t name_end = 0;
      const std::string param = ReadIdent(code, cursor, &name_end);
      if (param.empty() || StatementKeywords().count(param) > 0) continue;
      // The type must sit inside a parameter list: walk back to an
      // unmatched '(' without crossing a statement boundary.
      size_t open = std::string::npos;
      int depth = 0;
      for (size_t i = pos; i > 0;) {
        --i;
        const char c = code[i];
        if (c == ')') {
          ++depth;
        } else if (c == '(') {
          if (depth == 0) {
            open = i;
            break;
          }
          --depth;
        } else if (depth == 0 &&
                   (c == ';' || c == '{' || c == '}')) {
          break;
        }
      }
      if (open == std::string::npos) continue;
      const size_t params_end = SkipBalanced(code, open, '(', ')');
      if (params_end == std::string::npos) continue;
      // A definition follows its parameter list with a body (possibly past
      // qualifiers, annotations, or a constructor init list); a plain
      // declaration ends in ';'.
      size_t scan = params_end;
      size_t body_open = std::string::npos;
      for (int steps = 0; steps < 64 && scan < code.size(); ++steps) {
        scan = SkipSpaces(code, scan);
        if (scan >= code.size()) break;
        const char c = code[scan];
        if (c == '{') {
          body_open = scan;
          break;
        }
        if (c == ';') break;
        if (IsIdentChar(c)) {
          size_t end = 0;
          ReadIdent(code, scan, &end);
          scan = end > scan ? end : scan + 1;
        } else if (c == '(') {
          const size_t after = SkipBalanced(code, scan, '(', ')');
          if (after == std::string::npos) break;
          scan = after;
        } else if (c == ':' || c == ',' || c == '-' || c == '>' ||
                   c == '&') {
          ++scan;
        } else {
          break;
        }
      }
      if (body_open == std::string::npos) continue;
      const size_t body_close = SkipBalanced(code, body_open, '{', '}');
      if (body_close == std::string::npos) continue;
      // Loops inside the body that do runtime work must see the token.
      for (const std::string& kw : {std::string("for"),
                                    std::string("while")}) {
        for (size_t loop = code.find(kw, body_open);
             loop != std::string::npos && loop < body_close;
             loop = code.find(kw, loop + 1)) {
          if (!IsWordAt(code, loop, kw)) continue;
          const size_t lopen = SkipSpaces(code, loop + kw.size());
          if (lopen >= code.size() || code[lopen] != '(') continue;
          const size_t lafter = SkipBalanced(code, lopen, '(', ')');
          if (lafter == std::string::npos) continue;
          size_t lbody = SkipSpaces(code, lafter);
          size_t lend;
          if (lbody < code.size() && code[lbody] == '{') {
            lend = SkipBalanced(code, lbody, '{', '}');
            if (lend == std::string::npos) continue;
          } else {
            lend = code.find(';', lbody);
            if (lend == std::string::npos) continue;
          }
          const std::set<std::string> words =
              IdentifierWords(code.substr(lopen, lend - lopen));
          if (words.count(param) > 0) continue;  // consulted or forwarded
          if (!loop_does_work(words)) continue;
          findings->push_back(
              {path, lines.LineAt(loop), kRuleCancelUncheckedLoop,
               "loop performs runtime work but never consults the " + type +
                   " parameter '" + param +
                   "'; check it each iteration or forward it into the "
                   "call"});
        }
      }
    }
  }
}

SuppressionOutcome ApplySuppressions(
    std::vector<Finding> findings, const std::vector<std::string>& raw_lines) {
  SuppressionOutcome outcome;
  for (Finding& finding : findings) {
    bool handled = false;
    for (size_t line = finding.line;
         line + 1 >= finding.line && line >= 1 && !handled; --line) {
      if (line > raw_lines.size()) continue;
      Suppression suppression;
      if (!ParseSuppression(raw_lines[line - 1], &suppression)) continue;
      if (suppression.rules.count(finding.rule) == 0) continue;
      if (suppression.has_justification) {
        handled = true;  // suppressed
        ++outcome.suppressions_used;
      } else {
        outcome.findings.push_back(
            {finding.file, line, kRuleSuppressionJustification,
             "COACHLM_LINT_ALLOW(" + finding.rule +
                 ") requires ': <justification>' stating why the "
                 "violation is safe"});
        handled = true;
      }
    }
    if (!handled) outcome.findings.push_back(std::move(finding));
  }
  return outcome;
}

}  // namespace lint
}  // namespace coachlm
