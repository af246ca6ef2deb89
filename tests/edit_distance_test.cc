#include "text/edit_distance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "expert/pipeline.h"
#include "synth/generator.h"

namespace coachlm {
namespace editdist {
namespace {

/// Reference oracle: the textbook O(nm) two-row dynamic program.
size_t ReferenceDistance(const std::string& a, const std::string& b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  std::vector<size_t> prev(m + 1);
  std::vector<size_t> curr(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    curr[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      const size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, sub});
    }
    std::swap(prev, curr);
  }
  return prev[m];
}

/// Draws \p len bytes from the first \p alphabet byte values, offset so
/// that the 256-letter alphabet covers every byte including >= 0x80.
std::string RandomText(Rng& rng, size_t len, size_t alphabet) {
  const unsigned base = alphabet == 256 ? 0 : 'a';
  std::string s(len, '\0');
  for (char& c : s) {
    c = static_cast<char>(base + rng.NextBelow(alphabet));
  }
  return s;
}

/// Checks CharDistance against the oracle in both argument orders and
/// returns the number of mismatches.
int Mismatches(const std::string& a, const std::string& b) {
  const size_t expected = ReferenceDistance(a, b);
  const size_t ab = CharDistance(a, b);
  const size_t ba = CharDistance(b, a);
  EXPECT_EQ(ab, expected) << "lengths " << a.size() << " x " << b.size();
  EXPECT_EQ(ba, ab) << "lengths " << a.size() << " x " << b.size();
  return (ab != expected) + (ba != ab);
}

constexpr size_t kAlphabets[] = {1, 2, 4, 256};

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(CharDistance("", ""), 0u);
  EXPECT_EQ(CharDistance("abc", ""), 3u);
  EXPECT_EQ(CharDistance("", "abc"), 3u);
  EXPECT_EQ(CharDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(CharDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(CharDistance("same", "same"), 0u);
}

TEST(EditDistanceTest, WordLevel) {
  EXPECT_EQ(WordDistance("the cat sat", "the cat sat"), 0u);
  EXPECT_EQ(WordDistance("the cat sat", "the dog sat"), 1u);
  // Punctuation counts as its own token.
  EXPECT_EQ(WordDistance("hello world", "hello, world"), 1u);
}

TEST(EditDistanceTest, NormalizedBounds) {
  EXPECT_DOUBLE_EQ(NormalizedCharDistance("", ""), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedCharDistance("abc", ""), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedCharDistance("ab", "ab"), 0.0);
  const double d = NormalizedCharDistance("abcd", "abXd");
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 1.0);
}

TEST(EditDistanceTest, BoundedAgreesWithinBound) {
  Rng rng(11);
  const std::string alphabet = "abcde";
  for (int trial = 0; trial < 200; ++trial) {
    std::string a, b;
    const size_t la = rng.NextBelow(15);
    const size_t lb = rng.NextBelow(15);
    for (size_t i = 0; i < la; ++i) a += alphabet[rng.NextBelow(5)];
    for (size_t i = 0; i < lb; ++i) b += alphabet[rng.NextBelow(5)];
    const size_t exact = CharDistance(a, b);
    for (size_t bound : {0u, 1u, 2u, 5u, 20u}) {
      const size_t bounded = CharDistanceBounded(a, b, bound);
      if (exact <= bound) {
        EXPECT_EQ(bounded, exact) << a << " vs " << b << " bound " << bound;
      } else {
        EXPECT_GT(bounded, bound);
      }
    }
  }
}

TEST(EditDistanceDifferentialTest, RandomLengthsUpTo300) {
  Rng rng(20231113);
  int mismatches = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const size_t alphabet = kAlphabets[trial % 4];
    const std::string a = RandomText(rng, rng.NextBelow(301), alphabet);
    const std::string b = RandomText(rng, rng.NextBelow(301), alphabet);
    mismatches += Mismatches(a, b);
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(EditDistanceDifferentialTest, WordBoundaryLengths) {
  // One 64-bit word holds 64 pattern columns: exercise each side of the
  // first and second block boundary, on both sides of the pair.
  const size_t lengths[] = {0, 1, 2, 63, 64, 65, 127, 128, 129, 193, 300};
  Rng rng(64);
  int mismatches = 0;
  for (size_t alphabet : kAlphabets) {
    for (size_t la : lengths) {
      for (size_t lb : lengths) {
        mismatches += Mismatches(RandomText(rng, la, alphabet),
                                 RandomText(rng, lb, alphabet));
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(EditDistanceDifferentialTest, SharedPrefixAndSuffix) {
  Rng rng(7);
  int mismatches = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const size_t alphabet = kAlphabets[trial % 4];
    const std::string prefix = RandomText(rng, rng.NextBelow(160), alphabet);
    const std::string suffix = RandomText(rng, rng.NextBelow(160), alphabet);
    const std::string a =
        prefix + RandomText(rng, rng.NextBelow(140), alphabet) + suffix;
    const std::string b =
        prefix + RandomText(rng, rng.NextBelow(140), alphabet) + suffix;
    mismatches += Mismatches(a, b);
    // Identical up to a single edit deep inside a long shared text.
    std::string c = a;
    if (!c.empty()) c[rng.NextBelow(c.size())] ^= 0x40;
    mismatches += Mismatches(a, c);
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(EditDistanceDifferentialTest, SubstringPairs) {
  Rng rng(99);
  int mismatches = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const size_t alphabet = kAlphabets[trial % 4];
    const std::string a = RandomText(rng, rng.NextBelow(300), alphabet);
    const size_t begin = a.empty() ? 0 : rng.NextBelow(a.size());
    const std::string b = a.substr(begin, rng.NextBelow(a.size() - begin + 1));
    mismatches += Mismatches(a, b);
    EXPECT_EQ(CharDistance(a, b), a.size() - b.size());
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(EditDistanceDifferentialTest, StudyRevisionRecordsKeepTheirDistances) {
  synth::CorpusConfig config;
  config.size = 400;
  config.seed = 42;
  synth::SynthCorpusGenerator generator(config);
  const synth::SynthCorpus corpus = generator.Generate();
  expert::RevisionStudyConfig options;
  options.sample_size = 120;
  const expert::RevisionStudyResult study =
      expert::RunRevisionStudy(corpus.dataset, generator.engine(), options);
  // Recorded with the two-row DP on this seeded study corpus.
  const std::vector<size_t> pinned = {421, 449, 311, 294, 241, 472, 273, 344};
  std::vector<size_t> actual;
  int mismatches = 0;
  for (const RevisionRecord& record : study.revisions) {
    mismatches += Mismatches(record.original.FullInstruction(),
                             record.revised.FullInstruction());
    mismatches += Mismatches(record.original.output, record.revised.output);
    if (actual.size() < pinned.size()) {
      actual.push_back(record.char_edit_distance);
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(actual, pinned);
}

// Property suite: metric axioms on random strings.
class EditDistancePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EditDistancePropertyTest, MetricAxioms) {
  Rng rng(GetParam());
  auto random_string = [&rng]() {
    std::string s;
    const size_t len = rng.NextBelow(20);
    for (size_t i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng.NextBelow(4));
    }
    return s;
  };
  const std::string a = random_string();
  const std::string b = random_string();
  const std::string c = random_string();
  const size_t dab = CharDistance(a, b);
  const size_t dba = CharDistance(b, a);
  const size_t dac = CharDistance(a, c);
  const size_t dcb = CharDistance(c, b);
  // Identity of indiscernibles.
  EXPECT_EQ(CharDistance(a, a), 0u);
  if (dab == 0) {
    EXPECT_EQ(a, b);
  }
  // Symmetry.
  EXPECT_EQ(dab, dba);
  // Triangle inequality.
  EXPECT_LE(dab, dac + dcb);
  // Length bounds.
  const size_t len_diff =
      a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  EXPECT_GE(dab, len_diff);
  EXPECT_LE(dab, std::max(a.size(), b.size()));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, EditDistancePropertyTest,
                         ::testing::Range<uint64_t>(1, 60));

}  // namespace
}  // namespace editdist
}  // namespace coachlm
