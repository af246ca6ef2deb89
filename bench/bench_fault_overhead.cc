// Overhead guard for the fault-tolerant runtime envelope on the revise
// stage: a disabled-injector PipelineRuntime (the envelope with nothing to
// inject — retry loop, attempt counters, quarantine plumbing all armed)
// must cost < 1% over the inactive runtime. Both revise the same corpus
// through the one revise loop; min-of-N timing suppresses scheduler noise
// and the outputs are hashed so the run doubles as a byte-identity check.

#include <cstdio>
#include <functional>
#include <string>

#include "bench_common.h"
#include "common/execution.h"
#include "common/fault.h"
#include "common/retry.h"
#include "common/runtime.h"
#include "common/table_writer.h"
#include "lm/pair_text.h"

using namespace coachlm;

namespace {

uint64_t HashDataset(const InstructionDataset& dataset) {
  uint64_t h = 1469598103934665603ULL;
  for (const InstructionPair& pair : dataset) {
    const std::string text = lm::SerializePair(pair);
    for (unsigned char c : text) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace

int main() {
  bench::PrintHeader("Guard", "disabled-injector overhead on revise stage");
  const bench::World world = bench::BuildWorld(true);
  const coach::CoachLm& model = *world.coach.model;
  const InstructionDataset& dataset = world.corpus.dataset;
  const ExecutionContext exec;

  // Disabled injector inside an otherwise fully armed runtime: every item
  // still pays for the Run() envelope, but no fault ever fires.
  PipelineRuntime enveloped{FaultInjector(FaultPlan()), RetryPolicy()};

  constexpr int kReps = 7;
  double inactive = 1e300, envelope = 1e300;
  uint64_t inactive_hash = 0, envelope_hash = 0;
  // Interleave the reps so slow drift (thermal, cache) hits both equally;
  // one untimed warm-up rep primes allocators and page cache.
  model.ReviseDataset(dataset, {}, nullptr, exec);
  for (int rep = 0; rep < kReps; ++rep) {
    inactive = std::min(inactive, bench::Seconds([&] {
      inactive_hash = HashDataset(model.ReviseDataset(
          dataset, {}, nullptr, exec, /*runtime=*/nullptr));
    }));
    envelope = std::min(envelope, bench::Seconds([&] {
      envelope_hash = HashDataset(
          model.ReviseDataset(dataset, {}, nullptr, exec, &enveloped));
    }));
  }

  const double overhead_pct = (envelope / inactive - 1.0) * 100.0;
  TableWriter table({"Path", "min seconds", "pairs/s"});
  const auto rate = [&](double s) {
    return std::to_string(
        static_cast<long long>(static_cast<double>(dataset.size()) / s));
  };
  table.AddRow({"inactive runtime", std::to_string(inactive),
                rate(inactive)});
  table.AddRow({"runtime envelope (injector off)", std::to_string(envelope),
                rate(envelope)});
  std::printf("%s", table.ToAscii().c_str());
  std::printf("envelope overhead: %+.3f%% (budget < 1%%, min of %d reps)\n",
              overhead_pct, kReps);
  bench::Record("inactive_seconds", inactive, "s");
  bench::Record("envelope_seconds", envelope, "s");
  bench::Record("envelope_overhead", overhead_pct, "%");

  if (inactive_hash != envelope_hash) {
    std::printf("FAIL: envelope output diverged from inactive runtime "
                "(%016llx vs %016llx)\n",
                static_cast<unsigned long long>(envelope_hash),
                static_cast<unsigned long long>(inactive_hash));
    return 1;
  }
  if (overhead_pct >= 1.0) {
    std::printf("FAIL: disabled-injector envelope exceeds the 1%% budget\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
