// Small statistics and process helpers shared by every workload.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Fewest samples that must lie above a percentile before it is reported.
inline constexpr size_t kMinSamplesBeyond = 10;

/// \brief One percentile of a sample, with the sample count it rests on.
///
/// `value` is empty when the sample is too small: fewer than
/// kMinSamplesBeyond samples would lie above the requested rank.
struct Percentile {
  double q = 0.0;
  size_t n = 0;
  /// Samples ranked above the percentile.
  size_t beyond = 0;
  std::optional<double> value;

  /// "p99=12.5 ms (n=1500)", or "p99 refused (n=400 leaves 4 beyond, need
  /// 10)" when the sample cannot support it.
  std::string ToString(const char* unit) const;
  /// The value, or 0 when refused.
  double ValueOr0() const { return value.value_or(0.0); }
};

/// Nearest-rank percentile \p q in (0, 1) of \p samples (need not be
/// sorted). Infinite samples stand for failed operations: they sort last.
Percentile ComputePercentile(std::vector<double> samples, double q);

/// Median of a non-empty sample (mean of the middle two when even).
double Median(std::vector<double> samples);

/// 64-bit FNV-1a of \p bytes.
uint64_t Fnv1a(const std::string& bytes,
               uint64_t hash = 1469598103934665603ull);

/// FNV-1a of a whole file; nullopt when it cannot be read.
std::optional<uint64_t> HashFile(const std::string& path);

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// Peak resident set of process \p pid ("self" by default) in MiB, from
/// the VmHWM line of /proc/<pid>/status; 0 when unavailable.
double PeakRssMb(const std::string& pid = "self");

/// Resets this process's peak resident set (VmHWM) to its current RSS,
/// so PeakRssMb() afterwards reports the peak of what follows. False when
/// the kernel does not support it.
bool ResetPeakRss();

/// User+system CPU seconds this process has used so far.
double ProcessCpuSeconds();

/// User+system CPU seconds of process \p pid from /proc/<pid>/stat.
double ProcessCpuSeconds(int pid);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
