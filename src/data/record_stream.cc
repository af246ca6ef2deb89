#include "data/record_stream.h"

#include "common/metrics.h"
#include "data/pair_codec.h"
#include "json/jsonl.h"

namespace coachlm {

const char* CorpusFormatName(CorpusFormat format) {
  switch (format) {
    case CorpusFormat::kAuto:
      return "auto";
    case CorpusFormat::kJson:
      return "json";
    case CorpusFormat::kJsonl:
      return "jsonl";
    case CorpusFormat::kBinary:
      return "binary";
  }
  return "auto";
}

Result<CorpusFormat> ParseCorpusFormat(const std::string& name) {
  if (name == "auto") return CorpusFormat::kAuto;
  if (name == "json") return CorpusFormat::kJson;
  if (name == "jsonl") return CorpusFormat::kJsonl;
  if (name == "binary") return CorpusFormat::kBinary;
  return Status::InvalidArgument(
      "unknown corpus format '" + name +
      "' (expected auto, json, jsonl, or binary)");
}

Result<InstructionDataset> ReadAllRecords(RecordReader* reader) {
  InstructionDataset dataset;
  if (reader->SizeHint() > 0) dataset.pairs().reserve(reader->SizeHint());
  InstructionPair pair;
  while (true) {
    COACHLM_ASSIGN_OR_RETURN(const bool more, reader->Next(&pair));
    if (!more) break;
    dataset.Add(std::move(pair));
    pair = InstructionPair();
  }
  return dataset;
}

Status WriteAllRecords(RecordWriter* writer,
                       const InstructionDataset& dataset) {
  for (const InstructionPair& pair : dataset) {
    COACHLM_RETURN_NOT_OK(writer->Write(pair));
  }
  return Status::OK();
}

Result<bool> DatasetRecordReader::Next(InstructionPair* pair) {
  if (next_ >= dataset_->size()) return false;
  *pair = (*dataset_)[next_++];
  return true;
}

Status DatasetRecordWriter::Write(const InstructionPair& pair) {
  dataset_->Add(pair);
  return Status::OK();
}

Result<std::unique_ptr<JsonArrayRecordReader>> JsonArrayRecordReader::Open(
    const std::string& path) {
  COACHLM_ASSIGN_OR_RETURN(
      std::string text,
      json::ReadFileLimited(path,
                            json::ParseLimits::Default().max_input_bytes));
  CountMetric("io.bytes_read", text.size());
  COACHLM_ASSIGN_OR_RETURN(InstructionDataset dataset,
                           InstructionDataset::FromJson(text));
  CountMetric("io.records_read", dataset.size());
  return std::unique_ptr<JsonArrayRecordReader>(
      new JsonArrayRecordReader(std::move(dataset)));
}

Result<bool> JsonArrayRecordReader::Next(InstructionPair* pair) {
  if (next_ >= dataset_.size()) return false;
  *pair = std::move(dataset_[next_++]);
  return true;
}

Result<std::unique_ptr<JsonlRecordReader>> JsonlRecordReader::Open(
    const std::string& path, const RecordReadOptions& options) {
  const json::ParseLimits& limits = json::ParseLimits::Default();
  COACHLM_ASSIGN_OR_RETURN(
      std::string text, json::ReadFileLimited(path, limits.max_input_bytes));
  CountMetric("io.bytes_read", text.size());
  COACHLM_ASSIGN_OR_RETURN(
      std::vector<InstructionPair> pairs,
      ReadPairLines(text, limits,
                    options.recover_torn_tail
                        ? json::LineFailureMode::kRecoverTornTail
                        : json::LineFailureMode::kStrict));
  InstructionDataset dataset(std::move(pairs));
  CountMetric("io.records_read", dataset.size());
  return std::unique_ptr<JsonlRecordReader>(
      new JsonlRecordReader(std::move(dataset)));
}

Result<bool> JsonlRecordReader::Next(InstructionPair* pair) {
  if (next_ >= dataset_.size()) return false;
  *pair = std::move(dataset_[next_++]);
  return true;
}

Status JsonArrayRecordWriter::Write(const InstructionPair& pair) {
  if (closed_) {
    return Status::FailedPrecondition("write to closed record writer");
  }
  buffered_.Add(pair);
  return Status::OK();
}

Status JsonArrayRecordWriter::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  const std::string text = buffered_.ToJson();
  COACHLM_RETURN_NOT_OK(json::WriteFile(path_, text));
  CountMetric("io.records_written", buffered_.size());
  CountMetric("io.bytes_written", text.size());
  return Status::OK();
}

Status JsonlRecordWriter::Write(const InstructionPair& pair) {
  if (closed_) {
    return Status::FailedPrecondition("write to closed record writer");
  }
  AppendPairJson(pair, &buffer_);
  buffer_ += '\n';
  ++records_;
  return Status::OK();
}

Status JsonlRecordWriter::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  COACHLM_RETURN_NOT_OK(json::WriteFile(path_, buffer_));
  CountMetric("io.records_written", records_);
  CountMetric("io.bytes_written", buffer_.size());
  return Status::OK();
}

}  // namespace coachlm
