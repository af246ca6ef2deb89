#include "data/binary_corpus.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstring>
#include <map>
#include <utility>

#include "common/metrics.h"
#include "json/jsonl.h"

namespace coachlm {
namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

void PutU32(std::string* out, uint32_t v) {
  char bytes[4];
  bytes[0] = static_cast<char>(v & 0xFF);
  bytes[1] = static_cast<char>((v >> 8) & 0xFF);
  bytes[2] = static_cast<char>((v >> 16) & 0xFF);
  bytes[3] = static_cast<char>((v >> 24) & 0xFF);
  out->append(bytes, 4);
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

uint64_t GetU64(const char* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

/// Slicing-by-8 tables for the reflected CRC-32 polynomial: tables[0] is
/// the byte-at-a-time table, and tables[k][b] is the CRC of byte b followed
/// by k zero bytes, so eight table lookups advance the CRC by eight bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (size_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

Status TruncatedError(const char* what, size_t offset) {
  return Status::ParseError(std::string("truncated binary corpus: ") + what +
                            " at byte offset " + std::to_string(offset) +
                            " extends past end of file (torn final block; "
                            "re-read with torn-tail recovery to keep the "
                            "intact prefix)");
}

/// Parsed section table of one block payload; pointers into the mapping.
struct BlockSections {
  size_t record_count = 0;
  const char* ids = nullptr;
  const char* cats = nullptr;
  const char* cols[3] = {nullptr, nullptr, nullptr};
  const char* pool = nullptr;
  size_t pool_size = 0;
};

/// Validates internal consistency of a CRC-clean payload. Corruption that
/// survives a matching CRC is effectively impossible, but the decoder
/// still refuses to read out of bounds.
Result<BlockSections> DecodeSections(const char* payload, size_t payload_size,
                                     size_t record_count, size_t file_offset) {
  BlockSections out;
  out.record_count = record_count;
  size_t pos = 0;
  const auto take = [&](const char* what,
                        size_t expect_size) -> Result<const char*> {
    if (pos + 4 > payload_size) {
      return Status::ParseError("binary corpus block at byte offset " +
                                std::to_string(file_offset) +
                                ": missing section size for " + what);
    }
    const size_t size = GetU32(payload + pos);
    pos += 4;
    if (size > payload_size - pos) {
      return Status::ParseError("binary corpus block at byte offset " +
                                std::to_string(file_offset) + ": section " +
                                what + " overruns payload");
    }
    if (expect_size != kNpos && size != expect_size) {
      return Status::ParseError("binary corpus block at byte offset " +
                                std::to_string(file_offset) + ": section " +
                                what + " has size " + std::to_string(size) +
                                ", expected " + std::to_string(expect_size));
    }
    const char* base = payload + pos;
    pos += size;
    if (what[0] == 'p') out.pool_size = size;  // "pool" is the last section.
    return base;
  };
  COACHLM_ASSIGN_OR_RETURN(out.ids, take("ids", record_count * 8));
  COACHLM_ASSIGN_OR_RETURN(out.cats, take("categories", record_count));
  COACHLM_ASSIGN_OR_RETURN(out.cols[0], take("instruction", record_count * 8));
  COACHLM_ASSIGN_OR_RETURN(out.cols[1], take("input", record_count * 8));
  COACHLM_ASSIGN_OR_RETURN(out.cols[2], take("output", record_count * 8));
  COACHLM_ASSIGN_OR_RETURN(out.pool, take("pool", kNpos));
  if (pos != payload_size) {
    return Status::ParseError("binary corpus block at byte offset " +
                              std::to_string(file_offset) + ": " +
                              std::to_string(payload_size - pos) +
                              " trailing payload bytes");
  }
  // Every column reference must land inside the pool.
  for (const char* col : out.cols) {
    for (size_t i = 0; i < record_count; ++i) {
      const uint64_t off = GetU32(col + i * 8);
      const uint64_t len = GetU32(col + i * 8 + 4);
      if (off + len > out.pool_size) {
        return Status::ParseError("binary corpus block at byte offset " +
                                  std::to_string(file_offset) +
                                  ": string reference outside pool");
      }
    }
  }
  return out;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  const CrcTables& t = kCrcTables;
  uint32_t crc = 0xFFFFFFFFu;
  const char* p = static_cast<const char*>(data);
  for (; size >= 8; size -= 8, p += 8) {
    const uint32_t lo = GetU32(p) ^ crc;
    const uint32_t hi = GetU32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++p) {
    crc = t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

bool HasBinaryCorpusMagic(std::string_view prefix) {
  return prefix.size() >= sizeof(kBinaryCorpusMagic) &&
         std::memcmp(prefix.data(), kBinaryCorpusMagic,
                     sizeof(kBinaryCorpusMagic)) == 0;
}

BinaryCorpusWriter::BinaryCorpusWriter(std::string path, size_t block_records)
    : path_(std::move(path)),
      block_records_(block_records == 0 ? 1 : block_records) {
  encoded_.append(kBinaryCorpusMagic, sizeof(kBinaryCorpusMagic));
  PutU32(&encoded_, kBinaryCorpusVersion);
}

Status BinaryCorpusWriter::Write(const InstructionPair& pair) {
  if (closed_) {
    return Status::FailedPrecondition("write to closed record writer");
  }
  pending_.push_back(pair);
  ++records_;
  if (pending_.size() >= block_records_) return FlushBlock();
  return Status::OK();
}

Status BinaryCorpusWriter::FlushBlock() {
  if (pending_.empty()) return Status::OK();
  const size_t n = pending_.size();
  // Intern each distinct string once; std::map keeps pool layout (and thus
  // output bytes) independent of insertion hashing.
  std::string pool;
  std::map<std::string, uint32_t> interned;
  const auto intern = [&](const std::string& s) -> std::pair<uint32_t, bool> {
    auto [it, inserted] = interned.emplace(s, 0);
    if (inserted) {
      it->second = static_cast<uint32_t>(pool.size());
      pool += s;
    }
    return {it->second, !inserted};
  };

  std::string payload;
  PutU32(&payload, static_cast<uint32_t>(n * 8));
  for (const InstructionPair& p : pending_) PutU64(&payload, p.id);
  PutU32(&payload, static_cast<uint32_t>(n));
  for (const InstructionPair& p : pending_) {
    payload.push_back(static_cast<char>(static_cast<uint8_t>(p.category)));
  }
  for (int col = 0; col < 3; ++col) {
    PutU32(&payload, static_cast<uint32_t>(n * 8));
    for (const InstructionPair& p : pending_) {
      const std::string& s = col == 0   ? p.instruction
                             : col == 1 ? p.input
                                        : p.output;
      const auto [offset, was_hit] = intern(s);
      if (was_hit) ++pool_dedup_hits_;
      PutU32(&payload, offset);
      PutU32(&payload, static_cast<uint32_t>(s.size()));
    }
  }
  PutU32(&payload, static_cast<uint32_t>(pool.size()));
  payload += pool;

  PutU32(&encoded_, static_cast<uint32_t>(n));
  PutU32(&encoded_, static_cast<uint32_t>(payload.size()));
  PutU32(&encoded_, Crc32(payload.data(), payload.size()));
  PutU32(&encoded_, 0);  // reserved
  encoded_ += payload;
  pending_.clear();
  return Status::OK();
}

Status BinaryCorpusWriter::Close() {
  if (closed_) return Status::OK();
  COACHLM_RETURN_NOT_OK(FlushBlock());
  closed_ = true;
  COACHLM_RETURN_NOT_OK(json::WriteFile(path_, encoded_));
  CountMetric("io.records_written", records_);
  CountMetric("io.bytes_written", encoded_.size());
  CountMetric("io.pool_dedup_hits", pool_dedup_hits_);
  return Status::OK();
}

BinaryCorpusReader::~BinaryCorpusReader() {
  if (mapping_ != nullptr) {
    ::munmap(mapping_, size_);
  }
}

Result<std::unique_ptr<BinaryCorpusReader>> BinaryCorpusReader::Open(
    const std::string& path, const RecordReadOptions& options) {
  std::unique_ptr<BinaryCorpusReader> reader(new BinaryCorpusReader());
  reader->recover_torn_tail_ = options.recover_torn_tail;

  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd >= 0) {
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      void* map = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                         MAP_PRIVATE, fd, 0);
      if (map != MAP_FAILED) {
        reader->mapping_ = map;
        reader->data_ = static_cast<const char*>(map);
        reader->size_ = static_cast<size_t>(st.st_size);
      }
    }
    ::close(fd);
  }
  if (reader->mapping_ == nullptr) {
    // mmap unavailable (empty file, special filesystem): buffered fallback
    // with identical semantics.
    COACHLM_ASSIGN_OR_RETURN(reader->buffer_, json::ReadFile(path));
    reader->data_ = reader->buffer_.data();
    reader->size_ = reader->buffer_.size();
  }
  CountMetric("io.bytes_read", reader->size_);

  if (reader->size_ < kBinaryCorpusHeaderBytes ||
      !HasBinaryCorpusMagic(std::string_view(reader->data_, reader->size_))) {
    return Status::ParseError("'" + path + "' is not a binary corpus file");
  }
  const uint32_t version = GetU32(reader->data_ + sizeof(kBinaryCorpusMagic));
  if (version != kBinaryCorpusVersion) {
    return Status::ParseError(
        "unsupported binary corpus version " + std::to_string(version) +
        " in '" + path + "' (reader supports version " +
        std::to_string(kBinaryCorpusVersion) + ")");
  }
  reader->offset_ = kBinaryCorpusHeaderBytes;

  // Validate every block up front: Next()/NextView() never fail after a
  // successful Open, and SizeHint() is exact.
  size_t offset = reader->offset_;
  while (offset < reader->size_) {
    if (reader->size_ - offset < kBinaryBlockHeaderBytes) {
      if (options.recover_torn_tail) {
        reader->info_.truncated_offset = offset;
        break;
      }
      return TruncatedError("block header", offset);
    }
    const size_t record_count = GetU32(reader->data_ + offset);
    const size_t payload_bytes = GetU32(reader->data_ + offset + 4);
    const uint32_t crc = GetU32(reader->data_ + offset + 8);
    const size_t payload_at = offset + kBinaryBlockHeaderBytes;
    if (payload_bytes > reader->size_ - payload_at) {
      if (options.recover_torn_tail) {
        reader->info_.truncated_offset = offset;
        break;
      }
      return TruncatedError("block payload", offset);
    }
    // A bit flip inside an intact block is corruption, not a torn tail:
    // never recoverable.
    if (Crc32(reader->data_ + payload_at, payload_bytes) != crc) {
      return Status::ParseError(
          "binary corpus block at byte offset " + std::to_string(offset) +
          " failed CRC check (corrupt data) in '" + path + "'");
    }
    COACHLM_RETURN_NOT_OK(DecodeSections(reader->data_ + payload_at,
                                         payload_bytes, record_count, offset)
                              .status());
    ++reader->info_.blocks;
    reader->info_.records += record_count;
    offset = payload_at + payload_bytes;
  }
  CountMetric("io.records_read", reader->info_.records);
  return reader;
}

Result<bool> BinaryCorpusReader::EnterNextBlock() {
  while (true) {
    if (offset_ >= size_ || offset_ == info_.truncated_offset) return false;
    const size_t record_count = GetU32(data_ + offset_);
    const size_t payload_bytes = GetU32(data_ + offset_ + 4);
    const char* payload = data_ + offset_ + kBinaryBlockHeaderBytes;
    COACHLM_ASSIGN_OR_RETURN(
        BlockSections sections,
        DecodeSections(payload, payload_bytes, record_count, offset_));
    offset_ += kBinaryBlockHeaderBytes + payload_bytes;
    if (record_count == 0) continue;  // writer flushed an empty block
    block_ = BlockCursor();
    block_.record_count = sections.record_count;
    block_.ids = sections.ids;
    block_.cats = sections.cats;
    block_.cols[0] = sections.cols[0];
    block_.cols[1] = sections.cols[1];
    block_.cols[2] = sections.cols[2];
    block_.pool = sections.pool;
    block_.pool_size = sections.pool_size;
    in_block_ = true;
    return true;
  }
}

Result<bool> BinaryCorpusReader::NextView(RecordView* view) {
  if (!in_block_ || block_.record >= block_.record_count) {
    COACHLM_ASSIGN_OR_RETURN(const bool more, EnterNextBlock());
    if (!more) return false;
  }
  const size_t i = block_.record++;
  view->id = GetU64(block_.ids + i * 8);
  view->category = static_cast<uint8_t>(block_.cats[i]);
  const char* cols[3] = {block_.cols[0], block_.cols[1], block_.cols[2]};
  std::string_view* fields[3] = {&view->instruction, &view->input,
                                 &view->output};
  for (int c = 0; c < 3; ++c) {
    const uint32_t off = GetU32(cols[c] + i * 8);
    const uint32_t len = GetU32(cols[c] + i * 8 + 4);
    *fields[c] = std::string_view(block_.pool + off, len);
  }
  return true;
}

Result<bool> BinaryCorpusReader::Next(InstructionPair* pair) {
  RecordView view;
  COACHLM_ASSIGN_OR_RETURN(const bool more, NextView(&view));
  if (!more) return false;
  pair->id = view.id;
  pair->category = static_cast<Category>(view.category);
  pair->instruction.assign(view.instruction);
  pair->input.assign(view.input);
  pair->output.assign(view.output);
  return true;
}

Result<BinaryReadInfo> InspectBinaryCorpus(const std::string& path,
                                           const RecordReadOptions& options) {
  COACHLM_ASSIGN_OR_RETURN(std::unique_ptr<BinaryCorpusReader> reader,
                           BinaryCorpusReader::Open(path, options));
  return reader->info();
}

}  // namespace coachlm
