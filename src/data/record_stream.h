#ifndef COACHLM_DATA_RECORD_STREAM_H_
#define COACHLM_DATA_RECORD_STREAM_H_

#include <cstddef>
#include <memory>
#include <string>

#include "common/result.h"
#include "data/dataset.h"
#include "data/instruction_pair.h"

namespace coachlm {

/// \brief On-disk corpus backend. Every stage speaks RecordReader /
/// RecordWriter; the format is a property of the file, not of the stage.
///
/// kAuto resolves by sniffing (readers: magic bytes / first JSON token;
/// writers: the output path's extension), so existing golden corpora —
/// Alpaca JSON arrays and JSONL — keep working unchanged next to the
/// binary columnar format of data/binary_corpus.h.
enum class CorpusFormat {
  kAuto = 0,
  kJson,    ///< Alpaca-format pretty-printed JSON array (the seed format).
  kJsonl,   ///< One compact JSON object per line.
  kBinary,  ///< Versioned binary columnar shards (docs/FORMAT.md).
};

/// Stable lowercase name ("auto", "json", "jsonl", "binary").
const char* CorpusFormatName(CorpusFormat format);

/// Parses a --format value; unknown names are InvalidArgument (the CLI
/// turns that into a usage error, exit 2).
[[nodiscard]] Result<CorpusFormat> ParseCorpusFormat(const std::string& name);

/// \brief Read options shared by every corpus backend.
struct RecordReadOptions {
  /// Explicit format; kAuto sniffs the file.
  CorpusFormat format = CorpusFormat::kAuto;
  /// When true, a torn final record — the signature of a writer killed
  /// mid-append, detected per backend (JSONL: unterminated last line;
  /// binary: a last block whose declared payload extends past EOF) — is
  /// discarded and reading stops at the intact prefix instead of failing.
  bool recover_torn_tail = false;
};

/// \brief Pull-based stream of instruction pairs, the narrow waist every
/// corpus producer/consumer goes through.
///
/// Contract: Next() returns true and fills \p pair until the stream is
/// exhausted, then returns false forever; errors are sticky. Readers are
/// single-threaded cursors — stages that need random access materialize
/// once via ReadAllRecords() and parallelize over the dataset.
class RecordReader {
 public:
  virtual ~RecordReader() = default;

  /// Advances to the next record. False (with OK) at end of stream.
  [[nodiscard]] virtual Result<bool> Next(InstructionPair* pair) = 0;

  /// Records the backend declares up front (manifest / loaded document);
  /// 0 when unknown. A hint for reserve(), never a contract.
  virtual size_t SizeHint() const { return 0; }
};

/// \brief Push-based sink for instruction pairs.
///
/// Close() finalizes the artifact (flushes the last block, writes the
/// array / manifest) and is required for the bytes to be complete;
/// destruction without Close() abandons the output. Close() is idempotent.
class RecordWriter {
 public:
  virtual ~RecordWriter() = default;

  [[nodiscard]] virtual Status Write(const InstructionPair& pair) = 0;
  [[nodiscard]] virtual Status Close() = 0;
};

/// \brief Drains \p reader into an in-memory dataset (the bridge for
/// stages whose algorithms need random access / parallel iteration).
[[nodiscard]] Result<InstructionDataset> ReadAllRecords(RecordReader* reader);

/// \brief Streams every pair of \p dataset into \p writer (does not
/// Close() it, so callers can append across datasets).
[[nodiscard]] Status WriteAllRecords(RecordWriter* writer,
                                     const InstructionDataset& dataset);

/// \name In-memory adapters
/// Stages use these to expose intermediate datasets as streams without
/// touching disk (and tests use them to drive stage entry points).
/// @{

/// Reads from a borrowed dataset; \p dataset must outlive the reader.
class DatasetRecordReader : public RecordReader {
 public:
  explicit DatasetRecordReader(const InstructionDataset* dataset)
      : dataset_(dataset) {}

  [[nodiscard]] Result<bool> Next(InstructionPair* pair) override;
  size_t SizeHint() const override { return dataset_->size(); }

 private:
  const InstructionDataset* dataset_;
  size_t next_ = 0;
};

/// Appends into a borrowed dataset; Close() is a no-op.
class DatasetRecordWriter : public RecordWriter {
 public:
  explicit DatasetRecordWriter(InstructionDataset* dataset)
      : dataset_(dataset) {}

  [[nodiscard]] Status Write(const InstructionPair& pair) override;
  [[nodiscard]] Status Close() override { return Status::OK(); }

 private:
  InstructionDataset* dataset_;
};

/// @}

/// \name Text backends (JSON array / JSONL)
///
/// The readers parse under the process-wide ParseLimits through the
/// hardened json/jsonl paths, so hostile corpora hit the same typed-error
/// surface as before the stream refactor. The writers reproduce the
/// pre-refactor bytes exactly: the JSON writer emits
/// InstructionDataset::ToJson() (pretty array) and the JSONL writer one
/// compact object per line — which is what keeps every golden corpus
/// byte-identical across the refactor. JSONL lines go through the typed
/// codec of data/pair_codec.h, which writes and reads those bytes without
/// a json::Value and hands any other line to json::Parse.
/// @{

class JsonArrayRecordReader : public RecordReader {
 public:
  /// Parses \p path as an Alpaca JSON array.
  [[nodiscard]] static Result<std::unique_ptr<JsonArrayRecordReader>> Open(
      const std::string& path);

  [[nodiscard]] Result<bool> Next(InstructionPair* pair) override;
  size_t SizeHint() const override { return dataset_.size(); }

 private:
  explicit JsonArrayRecordReader(InstructionDataset dataset)
      : dataset_(std::move(dataset)) {}

  InstructionDataset dataset_;
  size_t next_ = 0;
};

class JsonlRecordReader : public RecordReader {
 public:
  [[nodiscard]] static Result<std::unique_ptr<JsonlRecordReader>> Open(
      const std::string& path, const RecordReadOptions& options = {});

  [[nodiscard]] Result<bool> Next(InstructionPair* pair) override;
  size_t SizeHint() const override { return dataset_.size(); }

 private:
  explicit JsonlRecordReader(InstructionDataset dataset)
      : dataset_(std::move(dataset)) {}

  InstructionDataset dataset_;
  size_t next_ = 0;
};

class JsonArrayRecordWriter : public RecordWriter {
 public:
  explicit JsonArrayRecordWriter(std::string path) : path_(std::move(path)) {}

  [[nodiscard]] Status Write(const InstructionPair& pair) override;
  [[nodiscard]] Status Close() override;

 private:
  std::string path_;
  InstructionDataset buffered_;
  bool closed_ = false;
};

class JsonlRecordWriter : public RecordWriter {
 public:
  explicit JsonlRecordWriter(std::string path) : path_(std::move(path)) {}

  [[nodiscard]] Status Write(const InstructionPair& pair) override;
  [[nodiscard]] Status Close() override;

 private:
  std::string path_;
  std::string buffer_;
  size_t records_ = 0;
  bool closed_ = false;
};

/// @}

}  // namespace coachlm

#endif  // COACHLM_DATA_RECORD_STREAM_H_
