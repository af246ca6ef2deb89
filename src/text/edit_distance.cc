#include "text/edit_distance.h"

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "text/tokenizer.h"

namespace coachlm {
namespace editdist {
namespace {

/// Two-row dynamic program over token sequences.
template <typename Seq>
size_t Levenshtein(const Seq& a, const Seq& b) {
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

constexpr size_t kWordBits = 64;
constexpr size_t kAlphabet = 256;

/// The vertical delta of one 64-row block of a DP column: bit i of \p vp
/// (\p vn) is set when row i is one more (less) than the row above it.
struct BlockDelta {
  uint64_t vp = ~uint64_t{0};
  uint64_t vn = 0;
};

/// Advances one block by one text character (Hyyro's step of Myers'
/// recurrence). \p eq has bit i set where pattern row i equals the
/// character. \p hp / \p hn hold the horizontal delta (+1 / -1) entering
/// the block's top row, and on return the delta leaving row \p high.
inline void AdvanceBlock(uint64_t eq, uint64_t high, BlockDelta& block,
                         uint64_t& hp, uint64_t& hn) {
  const uint64_t x = eq | hn;
  const uint64_t d0 = (((x & block.vp) + block.vp) ^ block.vp) | x | block.vn;
  uint64_t h_plus = block.vn | ~(d0 | block.vp);
  uint64_t h_minus = d0 & block.vp;
  const uint64_t hp_in = hp;
  const uint64_t hn_in = hn;
  hp = (h_plus & high) != 0;
  hn = (h_minus & high) != 0;
  h_plus = (h_plus << 1) | hp_in;
  h_minus = (h_minus << 1) | hn_in;
  block.vp = h_minus | ~(d0 | h_plus);
  block.vn = h_plus & d0;
}

/// Global Levenshtein distance with \p pattern split into ceil(m / 64)
/// blocks; the horizontal delta carries from each block into the next.
/// \p peq (kAlphabet rows of one word per block, zeroed) and \p blocks
/// come from the caller, so a one-word pattern needs no heap allocation.
size_t BitParallelDistance(std::string_view pattern, std::string_view text,
                           uint64_t* peq, BlockDelta* blocks) {
  const size_t words = (pattern.size() + kWordBits - 1) / kWordBits;
  for (size_t i = 0; i < pattern.size(); ++i) {
    const size_t row = static_cast<unsigned char>(pattern[i]);
    peq[row * words + i / kWordBits] |= uint64_t{1} << (i % kWordBits);
  }
  const uint64_t top = uint64_t{1} << (kWordBits - 1);
  const uint64_t last_high = uint64_t{1} << ((pattern.size() - 1) % kWordBits);
  size_t score = pattern.size();
  for (const char c : text) {
    const uint64_t* eq = &peq[static_cast<unsigned char>(c) * words];
    // Row 0 of column j is j: the delta entering the top row is always +1.
    uint64_t hp = 1;
    uint64_t hn = 0;
    for (size_t w = 0; w + 1 < words; ++w) {
      AdvanceBlock(eq[w], top, blocks[w], hp, hn);
    }
    AdvanceBlock(eq[words - 1], last_high, blocks[words - 1], hp, hn);
    score = score + hp - hn;
  }
  return score;
}

}  // namespace

size_t CharDistance(const std::string& a, const std::string& b) {
  std::string_view pattern = a.size() <= b.size() ? a : b;
  std::string_view text = a.size() <= b.size() ? b : a;
  // Unit-cost Levenshtein distance is unchanged by removing a common prefix
  // or suffix, and revision pairs share most of their text.
  const size_t prefix = static_cast<size_t>(
      std::mismatch(pattern.begin(), pattern.end(), text.begin()).first -
      pattern.begin());
  pattern.remove_prefix(prefix);
  text.remove_prefix(prefix);
  const size_t suffix = static_cast<size_t>(
      std::mismatch(pattern.rbegin(), pattern.rend(), text.rbegin()).first -
      pattern.rbegin());
  pattern.remove_suffix(suffix);
  text.remove_suffix(suffix);
  if (pattern.empty()) return text.size();
  if (pattern.size() <= kWordBits) {
    uint64_t peq[kAlphabet] = {};
    BlockDelta block;
    return BitParallelDistance(pattern, text, peq, &block);
  }
  const size_t words = (pattern.size() + kWordBits - 1) / kWordBits;
  std::vector<uint64_t> peq(kAlphabet * words, 0);
  std::vector<BlockDelta> blocks(words);
  return BitParallelDistance(pattern, text, peq.data(), blocks.data());
}

size_t CharDistanceBounded(const std::string& a, const std::string& b,
                           size_t bound) {
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t diff = n > m ? n - m : m - n;
  if (diff > bound) return bound + 1;
  return std::min(CharDistance(a, b), bound + 1);
}

size_t TokenDistance(const std::vector<std::string>& a,
                     const std::vector<std::string>& b) {
  return Levenshtein(a, b);
}

size_t WordDistance(const std::string& a, const std::string& b) {
  return TokenDistance(tokenizer::WordTokenize(a), tokenizer::WordTokenize(b));
}

double NormalizedCharDistance(const std::string& a, const std::string& b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 0.0;
  return static_cast<double>(CharDistance(a, b)) /
         static_cast<double>(longest);
}

}  // namespace editdist
}  // namespace coachlm
