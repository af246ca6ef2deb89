#include "data/binary_corpus.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "data/record_stream.h"
#include "json/jsonl.h"

namespace coachlm {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// The byte-at-a-time CRC-32 loop Crc32 replaced, as the oracle.
uint32_t ReferenceCrc32(const std::string& bytes) {
  uint32_t crc = 0xFFFFFFFFu;
  for (const char byte : bytes) {
    crc ^= static_cast<unsigned char>(byte);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

InstructionDataset MakeDataset(size_t n) {
  InstructionDataset ds;
  for (size_t i = 0; i < n; ++i) {
    InstructionPair pair;
    pair.id = 1000 + i;
    pair.instruction = "Explain step " + std::to_string(i) + " of the plan.";
    pair.input = i % 4 == 0 ? "" : "context " + std::to_string(i % 5);
    pair.output = "Step " + std::to_string(i) + " proceeds carefully.";
    pair.category = static_cast<Category>(i % kNumCategories);
    ds.Add(std::move(pair));
  }
  return ds;
}

Status WriteBinary(const std::string& path, const InstructionDataset& ds,
                   size_t block_records = 4096) {
  BinaryCorpusWriter writer(path, block_records);
  COACHLM_RETURN_NOT_OK(WriteAllRecords(&writer, ds));
  return writer.Close();
}

std::string Slurp(const std::string& path) {
  auto text = json::ReadFile(path);
  EXPECT_TRUE(text.ok());
  return text.ok() ? *text : std::string();
}

void Spill(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(BinaryCorpusTest, MultiBlockRoundTrip) {
  const InstructionDataset ds = MakeDataset(23);
  const std::string path = TempPath("coachlm_bin_roundtrip.clmb");
  // Tiny blocks force the multi-block code paths (23 records, 5 blocks).
  ASSERT_TRUE(WriteBinary(path, ds, /*block_records=*/5).ok());

  auto reader = BinaryCorpusReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->SizeHint(), ds.size());
  EXPECT_EQ((*reader)->info().blocks, 5u);
  EXPECT_FALSE((*reader)->info().truncated());
  auto loaded = ReadAllRecords(reader->get());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), ds.size());
  for (size_t i = 0; i < ds.size(); ++i) EXPECT_EQ((*loaded)[i], ds[i]);
  std::remove(path.c_str());
}

TEST(BinaryCorpusTest, EmptyDatasetRoundTrip) {
  const std::string path = TempPath("coachlm_bin_empty.clmb");
  ASSERT_TRUE(WriteBinary(path, InstructionDataset()).ok());
  auto reader = BinaryCorpusReader::Open(path);
  ASSERT_TRUE(reader.ok());
  InstructionPair pair;
  auto more = (*reader)->Next(&pair);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
  std::remove(path.c_str());
}

TEST(BinaryCorpusTest, StringPoolDeduplicatesRepeatedFields) {
  InstructionDataset ds;
  for (size_t i = 0; i < 64; ++i) {
    InstructionPair pair;
    pair.id = i + 1;
    pair.instruction = "Summarize the attached report.";  // identical
    pair.input = "report body";                           // identical
    pair.output = "Summary " + std::to_string(i);         // distinct
    ds.Add(std::move(pair));
  }
  const std::string path = TempPath("coachlm_bin_dedup.clmb");
  BinaryCorpusWriter writer(path);
  ASSERT_TRUE(WriteAllRecords(&writer, ds).ok());
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_GT(writer.pool_dedup_hits(), 0u);

  auto loaded = BinaryCorpusReader::Open(path);
  ASSERT_TRUE(loaded.ok());
  auto records = ReadAllRecords(loaded->get());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), ds.size());
  for (size_t i = 0; i < ds.size(); ++i) EXPECT_EQ((*records)[i], ds[i]);
  std::remove(path.c_str());
}

TEST(BinaryCorpusTest, ScanViewsMatchNext) {
  const InstructionDataset ds = MakeDataset(11);
  const std::string path = TempPath("coachlm_bin_scan.clmb");
  ASSERT_TRUE(WriteBinary(path, ds, /*block_records=*/4).ok());
  auto reader = BinaryCorpusReader::Open(path);
  ASSERT_TRUE(reader.ok());
  size_t i = 0;
  const Status scanned = (*reader)->Scan([&](const RecordView& view) {
    EXPECT_EQ(view.id, ds[i].id);
    EXPECT_EQ(view.category, static_cast<uint8_t>(ds[i].category));
    EXPECT_EQ(view.instruction, ds[i].instruction);
    EXPECT_EQ(view.input, ds[i].input);
    EXPECT_EQ(view.output, ds[i].output);
    ++i;
  });
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(i, ds.size());
  std::remove(path.c_str());
}

TEST(BinaryCorpusTest, CorruptPayloadFailsCrc) {
  const InstructionDataset ds = MakeDataset(8);
  const std::string path = TempPath("coachlm_bin_crc.clmb");
  ASSERT_TRUE(WriteBinary(path, ds).ok());
  std::string bytes = Slurp(path);
  // Flip one payload byte well past the file+block headers.
  const size_t victim =
      kBinaryCorpusHeaderBytes + kBinaryBlockHeaderBytes + 40;
  ASSERT_LT(victim, bytes.size());
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x5A);
  Spill(path, bytes);

  const auto reader = BinaryCorpusReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
  EXPECT_NE(reader.status().message().find("CRC"), std::string::npos);

  // Corruption is not a torn tail: recovery mode must refuse it too.
  RecordReadOptions recover;
  recover.recover_torn_tail = true;
  EXPECT_FALSE(BinaryCorpusReader::Open(path, recover).ok());
  std::remove(path.c_str());
}

TEST(BinaryCorpusTest, TornFinalBlockStrictErrorCarriesByteOffset) {
  const InstructionDataset ds = MakeDataset(20);
  const std::string path = TempPath("coachlm_bin_torn.clmb");
  ASSERT_TRUE(WriteBinary(path, ds, /*block_records=*/5).ok());
  std::string bytes = Slurp(path);
  // Chop into the final block's payload, simulating a crash mid-append.
  bytes.resize(bytes.size() - 30);
  Spill(path, bytes);

  const auto strict = BinaryCorpusReader::Open(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kParseError);
  EXPECT_NE(strict.status().message().find("byte offset"), std::string::npos);
  EXPECT_NE(strict.status().message().find("torn final block"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(BinaryCorpusTest, TornFinalBlockRecoversIntactPrefix) {
  const InstructionDataset ds = MakeDataset(20);
  const std::string path = TempPath("coachlm_bin_recover.clmb");
  ASSERT_TRUE(WriteBinary(path, ds, /*block_records=*/5).ok());
  std::string bytes = Slurp(path);
  bytes.resize(bytes.size() - 30);
  Spill(path, bytes);

  RecordReadOptions recover;
  recover.recover_torn_tail = true;
  auto reader = BinaryCorpusReader::Open(path, recover);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE((*reader)->info().truncated());
  auto loaded = ReadAllRecords(reader->get());
  ASSERT_TRUE(loaded.ok());
  // Three intact 5-record blocks survive; the torn fourth is discarded.
  ASSERT_EQ(loaded->size(), 15u);
  for (size_t i = 0; i < loaded->size(); ++i) EXPECT_EQ((*loaded)[i], ds[i]);
  std::remove(path.c_str());
}

TEST(BinaryCorpusTest, RejectsWrongMagicAndVersion) {
  const std::string path = TempPath("coachlm_bin_magic.clmb");
  Spill(path, "not a binary corpus at all, just text\n");
  EXPECT_FALSE(BinaryCorpusReader::Open(path).ok());

  const InstructionDataset ds = MakeDataset(2);
  ASSERT_TRUE(WriteBinary(path, ds).ok());
  std::string bytes = Slurp(path);
  bytes[8] = static_cast<char>(kBinaryCorpusVersion + 1);  // version field
  Spill(path, bytes);
  const auto reader = BinaryCorpusReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(BinaryCorpusTest, HasBinaryCorpusMagicDetectsHeader) {
  const InstructionDataset ds = MakeDataset(1);
  const std::string path = TempPath("coachlm_bin_sniff.clmb");
  ASSERT_TRUE(WriteBinary(path, ds).ok());
  const std::string bytes = Slurp(path);
  EXPECT_TRUE(HasBinaryCorpusMagic(bytes));
  EXPECT_FALSE(HasBinaryCorpusMagic("CLMCORP"));   // too short
  EXPECT_FALSE(HasBinaryCorpusMagic("[{\"id\":1}]"));
  std::remove(path.c_str());
}

TEST(BinaryCorpusTest, Crc32MatchesCheckValue) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(BinaryCorpusTest, Crc32MatchesBytewiseLoopAtEveryLength) {
  // Every length 0-64 covers the 8-byte slices, the tail loop, and each
  // split between them; each length starts at every alignment 0-7.
  Rng rng(20240917);
  for (size_t len = 0; len <= 64; ++len) {
    for (size_t offset = 0; offset < 8; ++offset) {
      std::string buffer(offset + len, '\0');
      for (char& c : buffer) c = static_cast<char>(rng.NextBelow(256));
      const std::string bytes = buffer.substr(offset);
      EXPECT_EQ(Crc32(buffer.data() + offset, len), ReferenceCrc32(bytes))
          << "length " << len << " offset " << offset;
    }
  }
}

TEST(BinaryCorpusTest, InspectReportsBlocksAndRecords) {
  const InstructionDataset ds = MakeDataset(13);
  const std::string path = TempPath("coachlm_bin_inspect.clmb");
  ASSERT_TRUE(WriteBinary(path, ds, /*block_records=*/4).ok());
  const auto info = InspectBinaryCorpus(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->records, 13u);
  EXPECT_EQ(info->blocks, 4u);
  EXPECT_FALSE(info->truncated());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace coachlm
