#include "text/lexicons.h"

namespace coachlm {
namespace lexicons {

const WordSet& Stopwords() {
  static const WordSet kSet = {
      "a",    "an",   "the",  "and",  "or",   "but",  "of",    "to",
      "in",   "on",   "at",   "by",   "for",  "with", "about", "as",
      "is",   "are",  "was",  "were", "be",   "been", "being", "it",
      "its",  "this", "that", "these", "those", "i",   "you",  "he",
      "she",  "we",   "they", "them",  "his",  "her",  "their", "my",
      "your", "our",  "from", "into",  "over", "under", "not",  "no",
      "do",   "does", "did",  "will",  "would", "can",  "could", "should",
      "have", "has",  "had",  "there", "here",  "what", "which", "who",
      "when", "where", "why",  "how",  "all",  "each", "more",  "most",
      "some", "such", "only", "own",  "so",   "than", "too",   "very",
  };
  return kSet;
}

const std::vector<std::string>& PolitenessMarkers() {
  static const std::vector<std::string> kList = {
      "happy to help",   "glad you asked",  "feel free",
      "hope this helps", "great question",  "of course",
      "certainly",       "you might enjoy", "let me know",
      "I'd be glad",     "thanks for",      "wonderful",
  };
  return kList;
}

const std::unordered_set<std::string>& HedgeWords() {
  static const std::unordered_set<std::string> kSet = {
      "thing",  "things", "stuff",   "whatever", "something",
      "someone", "somehow", "maybe",  "possibly", "sorta",
      "kinda",  "etc",    "anything", "somewhere",
  };
  return kSet;
}

const std::vector<std::string>& UnsafeTerms() {
  static const std::vector<std::string> kList = {
      "how to hurt", "steal the password", "without their consent",
      "evade the police", "untraceable poison", "fake prescription",
      "guaranteed stock tip", "insider information",
  };
  return kList;
}

const std::vector<std::string>& ExplanationMarkers() {
  static const std::vector<std::string> kList = {
      "because",      "therefore",  "for example", "for instance",
      "in other words", "as a result", "this means", "specifically",
      "step",         "first",      "second",      "finally",
      "in summary",   "the reason", "consequently", "note that",
  };
  return kList;
}

const std::unordered_map<std::string, std::string>& SpellingCorruptions() {
  // Corruptions are realistic keyboard/phonetic slips. The injector applies
  // correct -> corrupted; experts repair with the inverse.
  static const std::unordered_map<std::string, std::string> kMap = {
      {"the", "teh"},         {"receive", "recieve"},
      {"their", "thier"},     {"separate", "seperate"},
      {"definitely", "definately"}, {"environment", "enviroment"},
      {"government", "goverment"},  {"necessary", "neccessary"},
      {"which", "wich"},      {"because", "becuase"},
      {"beginning", "begining"},    {"occurred", "occured"},
      {"address", "adress"},  {"business", "buisness"},
      {"different", "diffrent"},    {"important", "importent"},
      {"language", "langauge"},     {"probably", "probaly"},
      {"sentence", "sentance"},     {"weather", "wether"},
      {"information", "infomation"}, {"development", "developement"},
      {"experience", "experiance"},  {"knowledge", "knowlege"},
      {"technology", "technolgy"},
  };
  return kMap;
}

const std::unordered_map<std::string, std::string>& SpellingRepairs() {
  static const std::unordered_map<std::string, std::string> kInverse = [] {
    std::unordered_map<std::string, std::string> inv;
    for (const auto& [good, bad] : SpellingCorruptions()) inv[bad] = good;
    return inv;
  }();
  return kInverse;
}

const std::vector<std::string>& AmbiguityFillers() {
  static const std::vector<std::string> kList = {
      "the thing", "that stuff", "it somehow", "something relevant",
      "whatever fits", "some items",
  };
  return kList;
}

const std::vector<std::string>& MechanicalOpeners() {
  static const std::vector<std::string> kList = {
      "As an AI language model,",
      "I am a machine and",
      "Processing request.",
      "OUTPUT:",
  };
  return kList;
}

}  // namespace lexicons
}  // namespace coachlm
