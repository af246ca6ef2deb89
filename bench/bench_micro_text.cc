// Micro benchmarks of the text substrate: tokenization, edit distance,
// alignment, and similarity — the hot loops of alpha-selection (Section
// II-F2) and rule extraction — plus the byte scanners every revision runs
// over each text (lower-casing, word counting, sentence capitalization).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "synth/generator.h"
#include "synth/topic_bank.h"
#include "text/alignment.h"
#include "text/edit_distance.h"
#include "text/repair.h"
#include "text/similarity.h"
#include "text/string_util.h"
#include "text/tokenizer.h"

namespace coachlm {
namespace {

std::string LongText() {
  std::string text;
  for (const synth::Topic& topic : synth::Topics()) {
    text += topic.fact + " " + topic.details[0] + " ";
    if (text.size() > 2000) break;
  }
  return text;
}

/// Every instruction, input and response of a 500-pair seed-42 corpus:
/// the text sizes and byte mix the revise path scans.
const std::vector<std::string>& CorpusTexts() {
  static const std::vector<std::string> texts = [] {
    synth::CorpusConfig config;
    config.size = 500;
    const synth::SynthCorpus corpus =
        synth::SynthCorpusGenerator(config).Generate();
    std::vector<std::string> out;
    for (size_t i = 0; i < corpus.dataset.size(); ++i) {
      const InstructionPair& pair = corpus.dataset[i];
      for (const std::string* text :
           {&pair.instruction, &pair.input, &pair.output}) {
        if (!text->empty()) out.push_back(*text);
      }
    }
    return out;
  }();
  return texts;
}

/// Runs \p scan over every corpus text per iteration, reporting bytes/s.
template <typename Scan>
void ScanCorpus(benchmark::State& state, Scan scan) {
  const std::vector<std::string>& texts = CorpusTexts();
  int64_t bytes = 0;
  for (const std::string& text : texts) {
    bytes += static_cast<int64_t>(text.size());
  }
  for (auto _ : state) {
    for (const std::string& text : texts) {
      benchmark::DoNotOptimize(scan(text));
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() *
                                               texts.size()));
}

void BM_Lower(benchmark::State& state) {
  ScanCorpus(state, [](const std::string& text) {
    return strings::Lower(text);
  });
}
BENCHMARK(BM_Lower);

void BM_CountWords(benchmark::State& state) {
  ScanCorpus(state, [](const std::string& text) {
    return strings::CountWords(text);
  });
}
BENCHMARK(BM_CountWords);

void BM_CapitalizeSentences(benchmark::State& state) {
  ScanCorpus(state, [](const std::string& text) {
    return repair::CapitalizeSentences(text);
  });
}
BENCHMARK(BM_CapitalizeSentences);

void BM_WordTokenize(benchmark::State& state) {
  const std::string text = LongText();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer::WordTokenize(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_WordTokenize);

void BM_SplitSentences(benchmark::State& state) {
  const std::string text = LongText();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer::SplitSentences(text));
  }
}
BENCHMARK(BM_SplitSentences);

void BM_CharEditDistance(benchmark::State& state) {
  const std::string a = LongText().substr(0, state.range(0));
  std::string b = a;
  b[b.size() / 2] = '#';
  b.insert(b.size() / 3, "inserted words here");
  for (auto _ : state) {
    benchmark::DoNotOptimize(editdist::CharDistance(a, b));
  }
}
BENCHMARK(BM_CharEditDistance)->Arg(128)->Arg(512)->Arg(2000);

// BM_CharEditDistance edits the middle of a shared text, so affix trimming
// removes most of the work; here b is a rotation of a, leaving nothing to
// trim and the full n x n problem to the bit-parallel kernel.
void BM_CharEditDistanceDisjoint(benchmark::State& state) {
  const std::string a = LongText().substr(0, state.range(0));
  size_t shift = a.size() / 3;
  while (a[shift] == a.front() || a[shift - 1] == a.back()) ++shift;
  std::string b = a;
  std::rotate(b.begin(), b.begin() + static_cast<long>(shift), b.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(editdist::CharDistance(a, b));
  }
}
BENCHMARK(BM_CharEditDistanceDisjoint)->Arg(128)->Arg(512)->Arg(2000);

void BM_CharEditDistanceBounded(benchmark::State& state) {
  const std::string a = LongText().substr(0, 2000);
  std::string b = a;
  b[100] = '#';
  for (auto _ : state) {
    benchmark::DoNotOptimize(editdist::CharDistanceBounded(a, b, 4));
  }
}
BENCHMARK(BM_CharEditDistanceBounded);

void BM_WordAlignment(benchmark::State& state) {
  const auto src = tokenizer::WordTokenize(LongText().substr(0, 600));
  auto tgt = src;
  tgt.insert(tgt.begin() + static_cast<long>(tgt.size()) / 2, "extra");
  tgt[3] = "changed";
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::Align(src, tgt));
  }
}
BENCHMARK(BM_WordAlignment);

void BM_ContentOverlap(benchmark::State& state) {
  const std::string a = LongText().substr(0, 500);
  const std::string b = LongText().substr(200, 500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity::ContentOverlap(a, b));
  }
}
BENCHMARK(BM_ContentOverlap);

}  // namespace
}  // namespace coachlm

BENCHMARK_MAIN();
