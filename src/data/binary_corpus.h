#ifndef COACHLM_DATA_BINARY_CORPUS_H_
#define COACHLM_DATA_BINARY_CORPUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "data/record_stream.h"

namespace coachlm {

/// \name Binary columnar corpus format (see docs/FORMAT.md)
///
/// Layout (all integers little-endian):
///   file   := header block*
///   header := magic[8]="CLMCORP1"  u32 version=1
///   block  := u32 record_count  u32 payload_bytes  u32 crc32  u32 reserved
///             payload
///   payload:= ids cats col(instruction) col(input) col(output) pool
///             — each section length-prefixed with its u32 byte size:
///     ids  := u32 size  record_count x u64 pair-id
///     cats := u32 size  record_count x u8 category
///     col  := u32 size  record_count x { u32 pool_offset, u32 byte_len }
///     pool := u32 size  deduplicated string bytes
///
/// The string pool is per-block and deduplicated: identical strings (empty
/// inputs, repeated instructions) are stored once and referenced by
/// offset. The CRC covers the whole payload, so a flipped bit anywhere in
/// a block is detected before any record is surfaced. A *final* block
/// whose declared payload extends past EOF is the binary analogue of
/// JSONL's torn final line (a writer killed mid-append): strict reads
/// fail with a typed Status carrying the byte offset, and
/// RecordReadOptions::recover_torn_tail discards the tail and returns the
/// intact prefix — mirroring ParseLinesRecoverable.
/// @{

inline constexpr char kBinaryCorpusMagic[8] = {'C', 'L', 'M', 'C',
                                               'O', 'R', 'P', '1'};
inline constexpr uint32_t kBinaryCorpusVersion = 1;
inline constexpr size_t kBinaryCorpusHeaderBytes = 12;
inline constexpr size_t kBinaryBlockHeaderBytes = 16;

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over \p data, computed by
/// slicing-by-8 (eight table lookups per eight bytes).
uint32_t Crc32(const void* data, size_t size);

/// True when \p prefix (>= 8 bytes considered) starts with the corpus
/// magic — the sniffing hook of corpus_io.
bool HasBinaryCorpusMagic(std::string_view prefix);

/// @}

/// \brief Detail channel of a binary corpus read.
struct BinaryReadInfo {
  /// Byte offset where a torn final block begins; npos when the file ends
  /// cleanly on a block boundary.
  size_t truncated_offset = static_cast<size_t>(-1);
  size_t blocks = 0;
  size_t records = 0;

  bool truncated() const {
    return truncated_offset != static_cast<size_t>(-1);
  }
};

/// \brief One record decoded without copying: the string fields view into
/// the reader's mapped block memory and are valid only until the scan
/// advances. This is the zero-copy path bench_micro_io measures and
/// streaming consumers (stats, filters) iterate.
struct RecordView {
  uint64_t id = 0;
  uint8_t category = 0;
  std::string_view instruction;
  std::string_view input;
  std::string_view output;
};

/// \brief Streaming writer for the binary columnar format.
///
/// Records accumulate into blocks of \p block_records; each full block is
/// encoded (columnar, pooled, CRC-stamped) and appended, so a killed
/// writer leaves at worst one torn final block — exactly what the torn-tail
/// recovery path discards.
class BinaryCorpusWriter : public RecordWriter {
 public:
  explicit BinaryCorpusWriter(std::string path, size_t block_records = 4096);

  [[nodiscard]] Status Write(const InstructionPair& pair) override;
  [[nodiscard]] Status Close() override;

  /// Strings deduplicated away by the block pools so far.
  uint64_t pool_dedup_hits() const { return pool_dedup_hits_; }

 private:
  [[nodiscard]] Status FlushBlock();

  std::string path_;
  size_t block_records_;
  std::vector<InstructionPair> pending_;
  std::string encoded_;  ///< header + finished blocks, appended in order.
  uint64_t pool_dedup_hits_ = 0;
  uint64_t records_ = 0;
  bool closed_ = false;
};

/// \brief Memory-mapped reader for the binary columnar format.
///
/// The file is mapped read-only (falling back to a buffered read when mmap
/// is unavailable) and every block is CRC-validated once, on first entry;
/// record strings are materialized per Next() call. Scan() is the
/// zero-copy alternative: it walks RecordViews pointing straight into the
/// mapping, never allocating per record.
class BinaryCorpusReader : public RecordReader {
 public:
  [[nodiscard]] static Result<std::unique_ptr<BinaryCorpusReader>> Open(
      const std::string& path, const RecordReadOptions& options = {});

  ~BinaryCorpusReader() override;

  [[nodiscard]] Result<bool> Next(InstructionPair* pair) override;
  size_t SizeHint() const override { return info_.records; }

  /// Zero-copy scan: invokes \p fn for every record in file order. The
  /// views die with the call; \p fn must copy what it keeps.
  template <typename Fn>
  [[nodiscard]] Status Scan(Fn&& fn) {
    RecordView view;
    while (true) {
      COACHLM_ASSIGN_OR_RETURN(const bool more, NextView(&view));
      if (!more) return Status::OK();
      fn(view);
    }
  }

  /// Scan-cursor form of Next(): false at end of stream.
  [[nodiscard]] Result<bool> NextView(RecordView* view);

  const BinaryReadInfo& info() const { return info_; }

 private:
  struct BlockCursor {
    size_t record = 0;       ///< next record within the current block.
    size_t record_count = 0;
    const char* ids = nullptr;
    const char* cats = nullptr;
    const char* cols[3] = {nullptr, nullptr, nullptr};
    const char* pool = nullptr;
    size_t pool_size = 0;
  };

  BinaryCorpusReader() = default;

  /// Decodes + CRC-checks the block at offset_; false at EOF.
  [[nodiscard]] Result<bool> EnterNextBlock();

  std::string buffer_;          ///< fallback storage when mmap failed.
  const char* data_ = nullptr;  ///< mapped (or buffered) file bytes.
  size_t size_ = 0;
  void* mapping_ = nullptr;     ///< non-null when data_ is an mmap.
  size_t offset_ = 0;           ///< next block header offset.
  BlockCursor block_;
  bool in_block_ = false;
  bool recover_torn_tail_ = false;
  BinaryReadInfo info_;
};

/// \brief Pre-scans \p path: validates every block header + CRC and
/// returns totals (and the torn-tail offset under recovery). Used by the
/// shard manifest writer and tests; O(file) but allocation-free.
[[nodiscard]] Result<BinaryReadInfo> InspectBinaryCorpus(
    const std::string& path, const RecordReadOptions& options = {});

}  // namespace coachlm

#endif  // COACHLM_DATA_BINARY_CORPUS_H_
