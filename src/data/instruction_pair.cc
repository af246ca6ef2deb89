#include "data/instruction_pair.h"

#include "text/string_util.h"

namespace coachlm {

std::string InstructionPair::FullInstruction() const {
  if (input.empty()) return instruction;
  return instruction + "\n" + input;
}

size_t InstructionPair::TotalChars() const {
  return instruction.size() + input.size() + output.size();
}

bool InstructionPair::IsWellFormed() const {
  return !strings::IsBlank(instruction) && !strings::IsBlank(output);
}

json::Value InstructionPair::ToJson() const {
  json::Object obj;
  obj["id"] = json::Value(static_cast<int64_t>(id));
  obj["instruction"] = json::Value(instruction);
  obj["input"] = json::Value(input);
  obj["output"] = json::Value(output);
  obj["category"] = json::Value(CategoryName(category));
  return json::Value(std::move(obj));
}

Result<InstructionPair> InstructionPair::FromJson(const json::Value& value) {
  if (!value.is_object()) {
    return Status::ParseError("instruction pair must be a JSON object");
  }
  InstructionPair pair;
  COACHLM_ASSIGN_OR_RETURN(pair.instruction, value.GetString("instruction"));
  // `input` may be absent in minimal Alpaca files.
  if (value.At("input").is_string()) pair.input = value.At("input").AsString();
  COACHLM_ASSIGN_OR_RETURN(pair.output, value.GetString("output"));
  if (value.At("id").is_number()) {
    pair.id = static_cast<uint64_t>(value.At("id").AsInt());
  }
  if (value.At("category").is_string()) {
    COACHLM_ASSIGN_OR_RETURN(pair.category,
                             CategoryFromName(value.At("category").AsString()));
  }
  return pair;
}

}  // namespace coachlm
