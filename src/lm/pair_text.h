#ifndef COACHLM_LM_PAIR_TEXT_H_
#define COACHLM_LM_PAIR_TEXT_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "data/instruction_pair.h"

namespace coachlm {
namespace lm {

/// \brief The revision prompt of Fig. 3, verbatim from the paper.
inline constexpr char kRevisionPrompt[] =
    "Improve the following instruction, input and response pair to be more "
    "specific, detailed with more logical steps and grammarly corrected.";

/// \brief Serializes an instruction pair into the flat text form embedded
/// in coach-tuning samples ("Instruction: ...\nInput: ...\nResponse: ...").
///
/// CoachLM exchanges instruction pairs as text, exactly as the real model
/// does: the coach-tuning INSTRUCTION contains the serialized original pair
/// and the RESPONSE contains the serialized revised pair.
std::string SerializePair(const InstructionPair& pair);

/// \brief Parses a serialized pair back into its fields. Fails with
/// ParseError when the "Instruction:"/"Response:" section markers are
/// missing — the condition that triggers the post-processor's
/// replace-with-original path (Section III-B1).
Result<InstructionPair> DeserializePair(std::string_view text);

/// \brief Builds the coach-tuning sample x_c of Fig. 3 from (x, x_r).
InstructionPair MakeCoachSample(const InstructionPair& original,
                                const InstructionPair& revised);

}  // namespace lm
}  // namespace coachlm

#endif  // COACHLM_LM_PAIR_TEXT_H_
