#include "data/pair_codec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "data/corpus_io.h"
#include "data/revision_io.h"
#include "json/jsonl.h"
#include "synth/generator.h"

namespace coachlm {
namespace {

using json::LineFailureMode;
using json::ParseLimits;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// -- Oracles: the DOM path every codec result must equal ------------------

std::string DomRevisionLine(const InstructionPair& original,
                            const InstructionPair& revised) {
  json::Object object;
  object["original"] = original.ToJson();
  object["revised"] = revised.ToJson();
  return json::Value(std::move(object)).Dump();
}

/// A reader's result: its pairs (revision records flatten to original,
/// revised, ...), or its Status.
struct Outcome {
  Status status;
  std::vector<InstructionPair> pairs;
};

/// json::ParseLines (or ParseLinesRecoverable) then FromJson per value: the
/// corpus reader before the codec.
Outcome ReferencePairLines(const std::string& text, const ParseLimits& limits,
                           LineFailureMode mode) {
  json::ParseLinesInfo info;
  Result<std::vector<json::Value>> values =
      mode == LineFailureMode::kRecoverTornTail
          ? json::ParseLinesRecoverable(text, limits, &info)
          : json::ParseLines(text, limits,
                             mode == LineFailureMode::kSkipInvalid);
  if (!values.ok()) return {values.status(), {}};
  Outcome out;
  for (const json::Value& value : *values) {
    Result<InstructionPair> pair = InstructionPair::FromJson(value);
    if (!pair.ok()) return {pair.status(), {}};
    out.pairs.push_back(*pair);
  }
  return out;
}

/// json::ParseLines then FromJson of "original" and "revised": LoadRevisions
/// before the codec.
Outcome ReferenceRevisionLines(const std::string& text,
                               const ParseLimits& limits) {
  Result<std::vector<json::Value>> values = json::ParseLines(text, limits);
  if (!values.ok()) return {values.status(), {}};
  Outcome out;
  for (const json::Value& value : *values) {
    for (const char* side : {"original", "revised"}) {
      Result<InstructionPair> pair = InstructionPair::FromJson(value.At(side));
      if (!pair.ok()) return {pair.status(), {}};
      out.pairs.push_back(*pair);
    }
  }
  return out;
}

Outcome FromResult(Result<std::vector<InstructionPair>> result) {
  if (!result.ok()) return {result.status(), {}};
  return {Status::OK(), std::move(result).ValueOrDie()};
}

Outcome FromResult(Result<RevisionDataset> result) {
  if (!result.ok()) return {result.status(), {}};
  Outcome out;
  for (const RevisionRecord& record : *result) {
    out.pairs.push_back(record.original);
    out.pairs.push_back(record.revised);
  }
  return out;
}

/// Compares a codec outcome with the oracle's; returns 1 on a mismatch.
int Mismatch(const Outcome& got, const Outcome& want, const std::string& what) {
  EXPECT_EQ(got.status.code(), want.status.code()) << what;
  EXPECT_EQ(got.status.message(), want.status.message()) << what;
  EXPECT_EQ(got.pairs, want.pairs) << what;
  return got.status.code() != want.status.code() ||
         got.status.message() != want.status.message() ||
         got.pairs != want.pairs;
}

constexpr LineFailureMode kModes[] = {LineFailureMode::kStrict,
                                      LineFailureMode::kSkipInvalid,
                                      LineFailureMode::kRecoverTornTail};

/// Reads \p text as a corpus in every mode, and as a revision file, through
/// the codec and through the oracle.
int DocumentMismatches(const std::string& text, const ParseLimits& limits,
                       const std::string& what) {
  int mismatches = 0;
  for (const LineFailureMode mode : kModes) {
    mismatches +=
        Mismatch(FromResult(ReadPairLines(text, limits, mode)),
                 ReferencePairLines(text, limits, mode),
                 what + " (pairs, mode " +
                     std::to_string(static_cast<int>(mode)) + ")");
  }
  mismatches += Mismatch(FromResult(ReadRevisionLines(text, limits)),
                         ReferenceRevisionLines(text, limits),
                         what + " (revisions)");
  return mismatches;
}

/// Places \p line alone, between two good lines, and as an unterminated
/// final line.
int LineMismatches(const std::string& line, const std::string& good,
                   const ParseLimits& limits, const std::string& what) {
  return DocumentMismatches(line + "\n", limits, what + " alone") +
         DocumentMismatches(good + "\n" + line + "\n" + good + "\n", limits,
                            what + " between good lines") +
         DocumentMismatches(good + "\n" + line, limits, what + " torn tail");
}

// -- Inputs ---------------------------------------------------------------

std::vector<InstructionPair> SeededPairs() {
  synth::CorpusConfig config;
  config.size = 300;
  config.seed = 17;
  return synth::SynthCorpusGenerator(config).Generate().dataset.pairs();
}

InstructionPair Pair(uint64_t id, std::string instruction, std::string input,
                     std::string output,
                     Category category = Category::kGeneralQa) {
  InstructionPair pair;
  pair.id = id;
  pair.instruction = std::move(instruction);
  pair.input = std::move(input);
  pair.output = std::move(output);
  pair.category = category;
  return pair;
}

std::vector<InstructionPair> EdgePairs() {
  std::vector<InstructionPair> pairs;
  for (const Category category : AllCategories()) {
    pairs.push_back(Pair(static_cast<uint64_t>(category) + 1, "Do it.",
                         "now", "Done.", category));
  }
  const uint64_t two53 = 1ull << 53;
  for (const uint64_t id :
       {uint64_t{0}, uint64_t{999999999999999}, uint64_t{1000000000000000},
        uint64_t{1000000000000001}, two53 - 1, two53, two53 + 1,
        uint64_t{1} << 63, ~uint64_t{0}, ~uint64_t{0} - 4,
        0 - uint64_t{999999999999999}, 0 - uint64_t{1000000000000000}}) {
    pairs.push_back(Pair(id, "Id edge.", "", "Kept."));
  }
  pairs.push_back(Pair(40, "", "", ""));
  pairs.push_back(Pair(41, "Say \"hi\" \\ twice.", "a\\b\"c", "\"\\\""));
  std::string controls;
  for (int c = 0x01; c < 0x20; ++c) controls += static_cast<char>(c);
  controls += '\x7f';
  pairs.push_back(Pair(42, controls, controls, controls));
  for (const char c : controls) {
    pairs.push_back(Pair(43, "x" + std::string(1, c) + "y", "", "z"));
  }
  pairs.push_back(Pair(44, "caf\xC3\xA9 \xE4\xB8\xAD\xE6\x96\x87",
                       "\xF0\x9F\x98\x80", "\xE2\x82\xAC 5 / 10"));
  return pairs;
}

std::string Nest(size_t depth) {
  return std::string(depth, '[') + "1" + std::string(depth, ']');
}

/// A line with the canonical layout but arbitrary member text.
std::string Line(const std::string& category, const std::string& id,
                 const std::string& input, const std::string& instruction,
                 const std::string& output) {
  return "{\"category\":" + category + ",\"id\":" + id + ",\"input\":" +
         input + ",\"instruction\":" + instruction + ",\"output\":" + output +
         "}";
}

// -- Writer ---------------------------------------------------------------

TEST(PairCodecWriterTest, SeededCorpusMatchesDomDump) {
  const std::vector<InstructionPair> pairs = SeededPairs();
  int mismatches = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    std::string line;
    AppendPairJson(pairs[i], &line);
    mismatches += line != pairs[i].ToJson().Dump();
    std::string record;
    const InstructionPair& revised = pairs[(i + 1) % pairs.size()];
    AppendRevisionJson(pairs[i], revised, &record);
    mismatches += record != DomRevisionLine(pairs[i], revised);
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(PairCodecWriterTest, EdgePairsMatchDomDump) {
  for (const InstructionPair& pair : EdgePairs()) {
    std::string line = "prefix";
    AppendPairJson(pair, &line);
    EXPECT_EQ(line, "prefix" + pair.ToJson().Dump()) << "id " << pair.id;
  }
}

TEST(PairCodecWriterTest, EscapeStringIsAppendEscaped) {
  std::string all;
  for (int c = 1; c < 256; ++c) all += static_cast<char>(c);
  std::string appended;
  json::AppendEscaped(all, &appended);
  EXPECT_EQ(json::EscapeString(all), appended);
  EXPECT_EQ(json::Value(all).Dump(), appended);
}

// -- Reader ---------------------------------------------------------------

TEST(PairCodecReaderTest, CanonicalLinesTakeTheTypedPath) {
  // Without this the differential tests below could pass with a decoder
  // that declines everything.
  const ParseLimits limits;
  for (const InstructionPair& pair : SeededPairs()) {
    InstructionPair decoded;
    ASSERT_TRUE(DecodePairJson(pair.ToJson().Dump(), limits, &decoded))
        << pair.ToJson().Dump();
    EXPECT_EQ(decoded, pair);
    InstructionPair original;
    InstructionPair revised;
    ASSERT_TRUE(DecodeRevisionJson(DomRevisionLine(pair, pair), limits,
                                   &original, &revised));
    EXPECT_EQ(original, pair);
    EXPECT_EQ(revised, pair);
  }
  InstructionPair decoded;
  const InstructionPair quoted = Pair(41, "Say \"hi\" \\ twice.", "a\\b", "");
  EXPECT_TRUE(DecodePairJson(quoted.ToJson().Dump(), limits, &decoded));
  EXPECT_EQ(decoded, quoted);
}

TEST(PairCodecReaderTest, WrittenLinesReadBackAsTheDomReadsThem) {
  std::vector<InstructionPair> pairs = SeededPairs();
  for (InstructionPair& pair : EdgePairs()) pairs.push_back(std::move(pair));
  std::string corpus;
  std::string records;
  int mismatches = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    corpus += pairs[i].ToJson().Dump() + "\n";
    records += DomRevisionLine(pairs[i], pairs[pairs.size() - 1 - i]) + "\n";
    mismatches += LineMismatches(pairs[i].ToJson().Dump(),
                                 pairs[0].ToJson().Dump(), ParseLimits(),
                                 "edge pair " + std::to_string(i));
  }
  const ParseLimits limits;
  for (const LineFailureMode mode : kModes) {
    mismatches += Mismatch(FromResult(ReadPairLines(corpus, limits, mode)),
                           ReferencePairLines(corpus, limits, mode), "corpus");
  }
  mismatches += Mismatch(FromResult(ReadRevisionLines(records, limits)),
                         ReferenceRevisionLines(records, limits), "records");
  EXPECT_EQ(mismatches, 0);
}

TEST(PairCodecReaderTest, HostileLinesMatchTheDom) {
  // Every hostile document of adversarial_input_test, as a JSONL line.
  const std::string good = Pair(1, "Fine.", "", "Yes.").ToJson().Dump();
  ParseLimits hardened;
  ParseLimits replace;
  replace.utf8_policy = json::Utf8Policy::kReplace;
  ParseLimits lenient = ParseLimits::Unlimited();
  ParseLimits small_strings;
  small_strings.max_string_bytes = 64;
  ParseLimits small_containers;
  small_containers.max_array_elements = 8;
  small_containers.max_object_members = 4;
  ParseLimits few_values;
  few_values.max_total_values = 50;
  ParseLimits small_input;
  small_input.max_input_bytes = 16;
  ParseLimits small_records;
  small_records.max_record_bytes = 128;

  std::string many = "[";
  for (int i = 0; i < 100; ++i) many += "0,";
  many += "0]";
  std::string wide = "{";
  for (int i = 0; i < 20; ++i) wide += "\"k" + std::to_string(i) + "\":0,";
  wide += "\"z\":0}";
  std::string values = "[";
  for (int i = 0; i < 30; ++i) values += "[1,2],";
  values += "[]]";

  const std::vector<std::string> hostile = {
      Nest(64),
      "[1e999]",
      "1e999",
      "\"a\\u0000b\"",
      std::string("\"a") + '\0' + "b\"",
      "{\"k\":1,\"k\":2}",
      "\"abc\xE4z\"",
      "\"\xC3\xA9 \xE4\xB8\xAD \xF0\x9F\x98\x80 \\uD83D\\uDE00\"",
      "\"\\uD800\"",
      "\"\\uDC00\"",
      "\"\xC0\x80\"",
      "\"\xED\xA0\x80\"",
      "\"" + std::string(1000, 'x') + "\"",
      many,
      wide,
      values,
      "[1,2,3,4,5,6,7,8,9]",
      "{\"k\":\"" + std::string(4096, 'x') + "\"}",
      "{\"torn\":\"" + std::string(500, 'y'),
  };
  int mismatches = 0;
  for (size_t i = 0; i < hostile.size(); ++i) {
    for (ParseLimits* limits :
         {&hardened, &replace, &lenient, &small_strings, &small_containers,
          &few_values, &small_input, &small_records}) {
      mismatches += LineMismatches(hostile[i], good, *limits,
                                   "hostile line " + std::to_string(i));
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(PairCodecReaderTest, NonCanonicalShapesMatchTheDom) {
  const std::string cat = "\"general_qa\"";
  const std::string in = "\"ctx\"";
  const std::string ins = "\"Do it.\"";
  const std::string out = "\"Done.\"";
  const std::string good = Line(cat, "7", in, ins, out);
  const std::vector<std::string> shapes = {
      good,
      "{\"id\":7,\"category\":\"general_qa\",\"input\":\"ctx\","
      "\"instruction\":\"Do it.\",\"output\":\"Done.\"}",
      "{\"category\":\"general_qa\",\"input\":\"ctx\","
      "\"instruction\":\"Do it.\",\"output\":\"Done.\"}",
      "{\"id\":7,\"input\":\"ctx\",\"instruction\":\"Do it.\","
      "\"output\":\"Done.\"}",
      "{\"category\":\"general_qa\",\"id\":7,\"instruction\":\"Do it.\","
      "\"output\":\"Done.\"}",
      "{\"category\":\"general_qa\",\"id\":7,\"input\":\"ctx\","
      "\"output\":\"Done.\"}",
      "{\"category\":\"general_qa\",\"id\":7,\"input\":\"ctx\","
      "\"instruction\":\"Do it.\"}",
      good.substr(0, good.size() - 1) + ",\"zzz\":1}",
      good.substr(0, good.size() - 1) + ",\"output\":\"Again.\"}",
      "{\"category\": \"general_qa\", \"id\": 7, \"input\": \"ctx\", "
      "\"instruction\": \"Do it.\", \"output\": \"Done.\"}",
      "  " + good,
      good + "   ",
      good + "\r",
      good + "x",
      good + " {}",
      Line(cat, "007", in, ins, out),
      Line(cat, "0", in, ins, out),
      Line(cat, "-7", in, ins, out),
      Line(cat, "-0", in, ins, out),
      Line(cat, "+7", in, ins, out),
      Line(cat, "7.0", in, ins, out),
      Line(cat, "7.5", in, ins, out),
      Line(cat, "7e2", in, ins, out),
      Line(cat, "999999999999999", in, ins, out),
      Line(cat, "1000000000000000", in, ins, out),
      Line(cat, "9007199254740993", in, ins, out),
      Line(cat, "1e999", in, ins, out),
      Line(cat, "\"7\"", in, ins, out),
      Line(cat, "null", in, ins, out),
      Line(cat, "7", "\"\\u0041\\u00e9\"", ins, out),
      Line(cat, "7", "\"\\u0000\"", ins, out),
      Line(cat, "7", "\"\\uD83D\\uDE00\"", ins, out),
      Line(cat, "7", "\"\\uD800\"", ins, out),
      Line(cat, "7", "\"a\\/b\\n\\t\\r\\b\\f\"", ins, out),
      Line(cat, "7", "\"bad \\q escape\"", ins, out),
      Line(cat, "7", "\"dangling \\", ins, out),
      Line(cat, "7", "\"torn \xE4z\"", ins, out),
      Line(cat, "7", "\"overlong \xC0\x80\"", ins, out),
      Line(cat, "7", "\"surrogate \xED\xA0\x80\"", ins, out),
      Line(cat, "7", "\"valid \xF0\x9F\x98\x80\"", ins, out),
      Line(cat, "7", std::string("\"raw\ttab\""), ins, out),
      Line(cat, "7", "\"unterminated", ins, out),
      Line(cat, "7", "7", ins, out),
      Line(cat, "7", "null", ins, out),
      Line("\"banana\"", "7", in, ins, out),
      Line("\"General_QA\"", "7", in, ins, out),
      Line("\"general\\u005fqa\"", "7", in, ins, out),
      Line("3", "7", in, ins, out),
      Line(cat, "7", in, "\"" + std::string(100, 'x') + "\"", out),
      "[" + good + "]",
      "\"just a string\"",
      "null",
      "{}",
  };
  ParseLimits small_strings;
  small_strings.max_string_bytes = 64;
  ParseLimits small_records;
  small_records.max_record_bytes = 64;
  ParseLimits replace;
  replace.utf8_policy = json::Utf8Policy::kReplace;
  int mismatches = 0;
  for (size_t i = 0; i < shapes.size(); ++i) {
    for (const ParseLimits& limits :
         {ParseLimits(), small_strings, small_records, replace,
          ParseLimits::Unlimited()}) {
      mismatches += LineMismatches(shapes[i], good, limits,
                                   "shape " + std::to_string(i));
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(PairCodecReaderTest, LimitsTooTightForTheShapeMatchTheDom) {
  // A canonical line the decoder would accept under the defaults must still
  // fail exactly as the DOM fails when a limit cannot hold its shape.
  const InstructionPair pair = Pair(12, "Instruction.", "In.", "Out.");
  const std::string line = pair.ToJson().Dump();
  const std::string record = DomRevisionLine(pair, pair);
  std::vector<ParseLimits> tight;
  for (size_t depth : {0, 1, 2}) {
    tight.emplace_back().max_depth = depth;
  }
  for (size_t members : {1, 2, 4, 5}) {
    tight.emplace_back().max_object_members = members;
  }
  for (size_t values : {5, 6, 12, 13}) {
    tight.emplace_back().max_total_values = values;
  }
  for (size_t bytes : {3, 8, 10, 11, 12}) {
    tight.emplace_back().max_string_bytes = bytes;
  }
  for (size_t bytes : {line.size() - 1, line.size(), record.size()}) {
    tight.emplace_back().max_input_bytes = bytes;
    tight.emplace_back().max_record_bytes = bytes;
  }
  int mismatches = 0;
  for (size_t i = 0; i < tight.size(); ++i) {
    mismatches += LineMismatches(line, line, tight[i],
                                 "pair, limits " + tight[i].ToString());
    mismatches += LineMismatches(record, record, tight[i],
                                 "record, limits " + tight[i].ToString());
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(PairCodecReaderTest, TornFinalLineMatchesTheDom) {
  const std::string a = Pair(1, "One.", "", "1").ToJson().Dump();
  const std::string b = Pair(2, "Two.", "", "2").ToJson().Dump();
  int mismatches = 0;
  for (size_t cut = 0; cut <= b.size(); ++cut) {
    const std::string text = a + "\n" + b.substr(0, cut);
    mismatches += DocumentMismatches(text, ParseLimits(),
                                     "cut at " + std::to_string(cut));
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(PairCodecReaderTest, SchemaErrorsWaitForEveryLineToParse) {
  // The DOM readers parse every line before converting any: a later parse
  // error wins over an earlier missing field, and the first schema error
  // wins over later ones.
  const std::string good = Pair(1, "Fine.", "", "Yes.").ToJson().Dump();
  const std::string no_output = "{\"instruction\":\"x\"}";
  const std::string bad_category = Line("\"banana\"", "3", "\"\"", "\"i\"",
                                        "\"o\"");
  int mismatches = 0;
  mismatches += DocumentMismatches(
      good + "\n" + no_output + "\n" + "not json\n", ParseLimits(), "late");
  mismatches += DocumentMismatches(
      no_output + "\n" + bad_category + "\n" + good + "\n", ParseLimits(),
      "first schema error");
  mismatches += DocumentMismatches(
      bad_category + "\n" + no_output + "\n" + good, ParseLimits(),
      "unterminated good tail");
  EXPECT_EQ(mismatches, 0);
}

TEST(PairCodecReaderTest, DomStringLimitOffsetsStayPinned) {
  // The oracle itself copies plain runs through the byte-class table; the
  // offsets below were recorded from the byte-at-a-time parser it replaced.
  ParseLimits limits;
  limits.max_string_bytes = 4;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"\"abcdefgh\"", "at offset 5"},
      {"\"ab\\ncdef\"", "at offset 6"},
      {"\"a\xC3\xA9xyz\"", "at offset 5"},
      {"{\"abcdef\":1}", "at offset 6"},
  };
  for (const auto& [doc, offset] : cases) {
    const Result<json::Value> parsed = json::Parse(doc, limits);
    ASSERT_FALSE(parsed.ok()) << doc;
    EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(parsed.status().message(),
              "string exceeds max_string_bytes=4 " + offset);
  }
  EXPECT_TRUE(json::Parse("\"abcd\"", limits).ok());
}

// -- Entry points ---------------------------------------------------------

TEST(PairCodecFileTest, CorpusReaderAndLoadRevisionsMatchTheDom) {
  // The file readers run under the process-wide limits.
  const ParseLimits& limits = ParseLimits::Default();
  const std::string good = Pair(5, "Fine.", "", "Yes.").ToJson().Dump();
  const std::vector<std::string> documents = {
      good + "\n" + Pair(6, "A \"q\"", "\xE2\x82\xAC", "\x01").ToJson().Dump() +
          "\n",
      good + "\n{\"id\":6,\"instruction\":\"i\",\"output\":\"o\"}\n",
      good + "\n{\"instruction\":\"i\"}\n",
      good + "\nnot json\n" + good + "\n",
      good + "\n" + good.substr(0, 20),
      DomRevisionLine(Pair(1, "a", "", "b"), Pair(1, "c", "", "d")) + "\n",
      "{\"revised\":" + good + ",\"original\":" + good + "}\n",
      "{\"original\":" + good + "}\n",
      "",
  };
  const std::string path = TempPath("coachlm_pair_codec_test.jsonl");
  RecordReadOptions jsonl;
  jsonl.format = CorpusFormat::kJsonl;
  RecordReadOptions recover = jsonl;
  recover.recover_torn_tail = true;
  int mismatches = 0;
  for (size_t i = 0; i < documents.size(); ++i) {
    const std::string what = "document " + std::to_string(i);
    ASSERT_TRUE(json::WriteFile(path, documents[i]).ok());
    for (const RecordReadOptions& options : {jsonl, recover}) {
      Result<InstructionDataset> loaded = LoadCorpus(path, options);
      const Outcome got =
          loaded.ok() ? Outcome{Status::OK(), loaded->pairs()}
                      : Outcome{loaded.status(), {}};
      mismatches += Mismatch(
          got,
          ReferencePairLines(documents[i], limits,
                             options.recover_torn_tail
                                 ? LineFailureMode::kRecoverTornTail
                                 : LineFailureMode::kStrict),
          what + " (LoadCorpus)");
    }
    mismatches += Mismatch(FromResult(LoadRevisions(path)),
                           ReferenceRevisionLines(documents[i], limits),
                           what + " (LoadRevisions)");
  }
  std::remove(path.c_str());
  EXPECT_EQ(mismatches, 0);
}

TEST(PairCodecFileTest, SaveRevisionsWritesTheDomBytes) {
  RevisionDataset records;
  std::string expected;
  for (const InstructionPair& pair : EdgePairs()) {
    RevisionRecord record;
    record.original = pair;
    record.revised = Pair(pair.id, pair.output, "", pair.instruction,
                          pair.category);
    expected += DomRevisionLine(record.original, record.revised) + "\n";
    records.push_back(std::move(record));
  }
  const std::string path = TempPath("coachlm_pair_codec_revisions.jsonl");
  ASSERT_TRUE(SaveRevisions(path, records).ok());
  Result<std::string> written = json::ReadFile(path);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, expected);
  // Ids of 1e15 and up lose precision through Dump()'s %.17g, so the
  // loaded records are checked against the DOM's reading, not the input.
  EXPECT_EQ(Mismatch(FromResult(LoadRevisions(path)),
                     ReferenceRevisionLines(expected, ParseLimits::Default()),
                     "edge records"),
            0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace coachlm
