#include "synth/arith.h"

#include "text/ascii.h"

namespace coachlm {
namespace synth {
namespace {

/// Parses a non-negative integer at position \p i, advancing it.
std::optional<int64_t> ParseInt(const std::string& text, size_t* i) {
  size_t j = *i;
  int64_t value = 0;
  bool any = false;
  while (j < text.size() && ascii::IsDigit(text[j])) {
    value = value * 10 + (text[j] - '0');
    any = true;
    ++j;
    if (value > 1000000000LL) return std::nullopt;  // implausible in corpus
  }
  if (!any) return std::nullopt;
  *i = j;
  return value;
}

size_t SkipSpaces(const std::string& text, size_t i) {
  while (i < text.size() && text[i] == ' ') ++i;
  return i;
}

}  // namespace

int64_t ArithProblem::Answer() const {
  switch (op) {
    case '+':
      return lhs + rhs;
    case '-':
      return lhs - rhs;
    case '*':
      return lhs * rhs;
    default:
      return 0;
  }
}

std::string ArithProblem::Expression() const {
  return std::to_string(lhs) + " " + op + " " + std::to_string(rhs);
}

std::optional<ArithProblem> ParseArithProblem(const std::string& text) {
  for (size_t i = 0; i < text.size(); ++i) {
    if (!ascii::IsDigit(text[i])) continue;
    if (i > 0 && !ascii::IsSpace(text[i - 1]) && text[i - 1] != '(') {
      continue;  // avoid matching digits inside identifiers like "covid19"
    }
    size_t j = i;
    auto lhs = ParseInt(text, &j);
    if (!lhs) continue;
    size_t k = SkipSpaces(text, j);
    if (k >= text.size()) return std::nullopt;
    char op = text[k];
    if (op == 'x' || op == 'X') op = '*';
    if (op != '+' && op != '-' && op != '*') continue;
    size_t l = SkipSpaces(text, k + 1);
    auto rhs = ParseInt(text, &l);
    if (!rhs) continue;
    ArithProblem problem;
    problem.lhs = *lhs;
    problem.rhs = *rhs;
    problem.op = op;
    return problem;
  }
  return std::nullopt;
}

std::optional<int64_t> ParseStatedResult(const std::string& text) {
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '=') continue;
    size_t j = SkipSpaces(text, i + 1);
    bool negative = false;
    if (j < text.size() && text[j] == '-') {
      negative = true;
      ++j;
    }
    auto value = ParseInt(text, &j);
    if (value) return negative ? -*value : *value;
  }
  return std::nullopt;
}

}  // namespace synth
}  // namespace coachlm
