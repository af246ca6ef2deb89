#include "lm/pair_text.h"

#include "text/string_util.h"

namespace coachlm {
namespace lm {
namespace {

constexpr char kInstructionHeader[] = "Instruction: ";
constexpr char kInputHeader[] = "Input: ";
constexpr char kResponseHeader[] = "Response: ";
/// The input and response headers as they follow a line break.
constexpr char kInputLine[] = "\nInput: ";
constexpr char kResponseLine[] = "\nResponse: ";

}  // namespace

std::string SerializePair(const InstructionPair& pair) {
  std::string out = kInstructionHeader + pair.instruction + "\n";
  out += kInputHeader + pair.input + "\n";
  out += kResponseHeader + pair.output;
  return out;
}

Result<InstructionPair> DeserializePair(std::string_view text) {
  const size_t instruction_at = text.find(kInstructionHeader);
  const size_t input_at = text.find(kInputLine);
  const size_t response_at = text.find(kResponseLine);
  if (instruction_at != 0 || input_at == std::string::npos ||
      response_at == std::string::npos || response_at < input_at) {
    return Status::ParseError("not a serialized instruction pair");
  }
  InstructionPair pair;
  const size_t instruction_begin = sizeof(kInstructionHeader) - 1;
  pair.instruction =
      text.substr(instruction_begin, input_at - instruction_begin);
  const size_t input_begin = input_at + sizeof(kInputLine) - 1;
  pair.input = text.substr(input_begin, response_at - input_begin);
  pair.output = text.substr(response_at + sizeof(kResponseLine) - 1);
  if (strings::IsBlank(pair.instruction)) {
    return Status::ParseError("serialized pair has an empty instruction");
  }
  return pair;
}

InstructionPair MakeCoachSample(const InstructionPair& original,
                                const InstructionPair& revised) {
  InstructionPair sample;
  sample.id = original.id;
  sample.category = original.category;
  sample.instruction = kRevisionPrompt;
  sample.input = SerializePair(original);
  sample.output = SerializePair(revised);
  return sample;
}

}  // namespace lm
}  // namespace coachlm
