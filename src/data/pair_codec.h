#ifndef COACHLM_DATA_PAIR_CODEC_H_
#define COACHLM_DATA_PAIR_CODEC_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "data/instruction_pair.h"
#include "data/revision_record.h"
#include "json/jsonl.h"

namespace coachlm {

/// \name Typed JSONL codec for instruction pairs and revision records
///
/// Corpora and revision datasets are written one compact JSON object per
/// line. These functions write and read those lines without building a
/// json::Value: the writer emits exactly the bytes of the DOM's Dump(),
/// and the decoder accepts only a line in that canonical shape, so a line
/// it declines can go through json::Parse + InstructionPair::FromJson
/// unchanged. The DOM is the only fallback; every error, offset and limit
/// therefore comes from the DOM code.
/// @{

/// Appends exactly the bytes of `pair.ToJson().Dump()`:
/// `{"category":…,"id":…,"input":…,"instruction":…,"output":…}`.
void AppendPairJson(const InstructionPair& pair, std::string* out);

/// Appends the revision-record line body `{"original":…,"revised":…}`,
/// the Dump() of the object holding both pairs' ToJson().
void AppendRevisionJson(const InstructionPair& original,
                        const InstructionPair& revised, std::string* out);

/// Decodes a line in the exact shape AppendPairJson writes (no whitespace,
/// keys in that order, an id of at most 15 digits without a leading zero,
/// string escapes other than \\u, well-formed UTF-8, a known category).
/// Returns false, leaving \p pair unspecified, for any other line and
/// whenever json::Parse under \p limits could reject it; otherwise \p pair
/// is what json::Parse + InstructionPair::FromJson would give.
bool DecodePairJson(std::string_view line, const json::ParseLimits& limits,
                    InstructionPair* pair);

/// DecodePairJson for a `{"original":<pair>,"revised":<pair>}` line.
bool DecodeRevisionJson(std::string_view line,
                        const json::ParseLimits& limits,
                        InstructionPair* original, InstructionPair* revised);

/// Reads a pair JSONL document: each line through DecodePairJson, or
/// for a line it declines, json::Parse + InstructionPair::FromJson.
/// json::ForEachLine splits the lines and applies \p mode to lines that
/// fail to parse. A FromJson failure is reported only after every line
/// has parsed, the order of the DOM readers (all lines, then all pairs).
[[nodiscard]] Result<std::vector<InstructionPair>> ReadPairLines(
    std::string_view text, const json::ParseLimits& limits,
    json::LineFailureMode mode);

/// ReadPairLines for revision records, strict mode; `original` is checked
/// before `revised`. Derived fields are left for the caller to compute.
[[nodiscard]] Result<RevisionDataset> ReadRevisionLines(
    std::string_view text, const json::ParseLimits& limits);

/// @}

}  // namespace coachlm

#endif  // COACHLM_DATA_PAIR_CODEC_H_
